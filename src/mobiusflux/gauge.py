"""Gauge fields as link angles, Wilson loops, curvature, the Stokes check.

The vector potential is represented by one real angle per directed link
(Peierls convention); the reverse link carries the negated angle and is
never stored.  Angles stay raw (unreduced radians) throughout, and
comparisons reduce mod 2*pi into (-pi, pi] only at the end, so no branch
cut artifacts accumulate.

Sign convention: the holonomy of a uniform field of dimensionless flux f
around the center loop is exp(+2j*pi*f).  The opposite sign corresponds
to f -> -f, i.e. complex conjugation of all states; spectra and the
quantization loci are even in f, so nothing downstream depends on the
choice.

Loop angles are accumulated with math.fsum (correctly rounded), which
makes structural identities such as "offset loop angle = 2 x center loop
angle for a uniform field" hold bit-exactly, not just to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .lattice import (
    DIR_MX,
    DIR_MY,
    DIR_PX,
    DIR_PY,
    CenterCut,
    LinkStep,
    LoopPath,
    Site,
    StripLattice,
    cut_complement_of_center,
    homology_class,
    neighbor,
    opposite,
)

TAU = 2.0 * math.pi


class GaugeError(ValueError):
    """Mismatched lattices, invalid faces, or inadmissible loop pairs."""


def reduce_angle(angle: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi]."""
    r = math.remainder(angle, TAU)
    if r <= -math.pi:
        r += TAU
    return r


def _locked(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaugeField:
    """Real angle per +x link and per +y link, indexed by the source site.

    theta_x has shape (nx, ny); theta_x[i, j] is the phase picked up
    hopping from (i, j) to its +x neighbor (across the seam for
    i = nx-1).  theta_y has shape (nx, ny-1) for the +y links.
    """

    lattice: StripLattice
    theta_x: np.ndarray
    theta_y: np.ndarray

    def __post_init__(self):
        nx, ny = self.lattice.nx, self.lattice.ny
        tx = _locked(self.theta_x)
        ty = _locked(self.theta_y)
        if tx.shape != (nx, ny):
            raise GaugeError(f"theta_x shape {tx.shape} != {(nx, ny)}")
        if ty.shape != (nx, ny - 1):
            raise GaugeError(f"theta_y shape {ty.shape} != {(nx, ny - 1)}")
        if not (np.all(np.isfinite(tx)) and np.all(np.isfinite(ty))):
            raise GaugeError("link angles must be finite")
        object.__setattr__(self, "theta_x", tx)
        object.__setattr__(self, "theta_y", ty)


@dataclass(frozen=True)
class GaugeTransform:
    """Site-local phase function chi entering theta -> theta + chi(v) - chi(u)."""

    lattice: StripLattice
    chi: np.ndarray

    def __post_init__(self):
        chi = _locked(self.chi)
        if chi.shape != (self.lattice.nx, self.lattice.ny):
            raise GaugeError(f"chi shape {chi.shape} != {(self.lattice.nx, self.lattice.ny)}")
        if not np.all(np.isfinite(chi)):
            raise GaugeError("chi must be finite")
        object.__setattr__(self, "chi", chi)


def uniform_flux_field(lat: StripLattice, f: float) -> GaugeField:
    """Flat field of dimensionless flux f, spread evenly over all x links.

    Every +x link carries 2*pi*f/nx and every +y link zero, so the field
    keeps the y -> -y reflection symmetry manifest and the Wilson angle
    around the center loop is 2*pi*f.
    """
    if not math.isfinite(f):
        raise GaugeError("flux must be finite")
    theta = TAU * f / lat.nx
    return GaugeField(
        lattice=lat,
        theta_x=np.full((lat.nx, lat.ny), theta),
        theta_y=np.zeros((lat.nx, lat.ny - 1)),
    )


def link_angle(field: GaugeField, step: LinkStep) -> float:
    """Signed angle of one directed link; reverse links negate."""
    (i, j), d = Site(*step.site), step.direction
    if d == DIR_PX:
        return float(field.theta_x[i, j])
    if d == DIR_MX:
        u = neighbor(field.lattice, Site(i, j), DIR_MX)
        return -float(field.theta_x[u.i, u.j])
    if d == DIR_PY:
        return float(field.theta_y[i, j])
    if d == DIR_MY:
        return -float(field.theta_y[i, j - 1])
    raise GaugeError(f"unknown direction {d!r}")


class WilsonResult(NamedTuple):
    angle: float
    holonomy: complex


def wilson_loop(field: GaugeField, loop: LoopPath) -> WilsonResult:
    """Total link angle along a closed loop and its unit-modulus holonomy."""
    if loop.lattice != field.lattice:
        raise GaugeError("loop and field live on different lattices")
    angle = math.fsum(link_angle(field, step) for step in loop.steps)
    return WilsonResult(angle=angle, holonomy=complex(math.cos(angle), math.sin(angle)))


def faces(lat: StripLattice) -> Iterator[Site]:
    """Corner sites of all faces: every (i, j) with j < ny-1."""
    for i in range(lat.nx):
        for j in range(lat.ny - 1):
            yield Site(i, j)


def _check_face(lat: StripLattice, face) -> Site:
    corner = Site(*face)
    if not lat.contains(corner) or corner.j >= lat.ny - 1:
        raise GaugeError(f"{corner} is not a face corner of {lat.nx}x{lat.ny}")
    return corner


def face_boundary(lat: StripLattice, face) -> LoopPath:
    """Counterclockwise 4-step boundary of a face in its own chart.

    Seam faces are traversed via the gluing rule: after crossing the
    moebius seam the chart's y axis points opposite to the lattice's, so
    the in-chart +y step becomes a lattice -y step until the loop crosses
    back.
    """
    corner = _check_face(lat, face)
    steps = []
    pos = corner
    flipped = False
    for chart_dir in (DIR_PX, DIR_PY, DIR_MX, DIR_MY):
        d = chart_dir
        if flipped and d in (DIR_PY, DIR_MY):
            d = opposite(d)
        steps.append(LinkStep(pos, d))
        if d in (DIR_PX, DIR_MX) and neighbor(lat, Site(pos.i, 0), d).j != 0:
            flipped = not flipped  # this step's column boundary reverses the rows
        pos = neighbor(lat, pos, d)
    return LoopPath(lat, tuple(steps))


def _face_curvature_raw(field: GaugeField, face) -> float:
    boundary = face_boundary(field.lattice, face)
    return math.fsum(link_angle(field, step) for step in boundary.steps)


def face_curvature(field: GaugeField, face) -> float:
    """Signed boundary angle sum of the face, reduced into (-pi, pi].

    Each face uses its own traversal chart, so the value is defined on
    both topologies even though a moebius strip has no global
    orientation; flatness (zero curvature) is chart-independent.
    """
    return reduce_angle(_face_curvature_raw(field, face))


def add_face_flux(field: GaugeField, face, beta: float) -> GaugeField:
    """Inject curvature beta into exactly one face.

    Adds beta to the x links of the face's column from the wall row up to
    the face; the changes telescope so every face curvature except the
    target's is untouched.
    """
    corner = _check_face(field.lattice, face)
    theta_x = np.array(field.theta_x)
    theta_x[corner.i, : corner.j + 1] += beta
    return GaugeField(lattice=field.lattice, theta_x=theta_x, theta_y=field.theta_y)


def apply_gauge_transform(field: GaugeField, g: GaugeTransform) -> GaugeField:
    """theta_{u->v} -> theta_{u->v} + chi(v) - chi(u); holonomies unchanged mod 2*pi."""
    if g.lattice != field.lattice:
        raise GaugeError("transform and field live on different lattices")
    lat = field.lattice
    flat = g.chi.reshape(-1)
    theta_x = field.theta_x + (flat[lat.x_next] - flat).reshape(lat.nx, lat.ny)
    theta_y = field.theta_y + np.diff(g.chi, axis=1)
    return GaugeField(lattice=lat, theta_x=theta_x, theta_y=theta_y)


def lift_field(corr: CenterCut, field: GaugeField) -> GaugeField:
    """Pull the band's link angles back onto the cut-open annulus.

    Cut +x links image band +x links directly.  Cut +y links image band
    +y links above center and reversed band y links below it, where the
    cut's rows run opposite to the band's.
    """
    if field.lattice != corr.band:
        raise GaugeError("field lives on a different lattice than the cut")
    c = corr.band.center_row
    # cut_complement_of_center's layout: columns [0, nx) image the rows above
    # center, columns [nx, 2*nx) the rows below it in mirrored order
    theta_x = np.concatenate([field.theta_x[:, c + 1:], field.theta_x[:, :c][:, ::-1]])
    theta_y = np.concatenate([field.theta_y[:, c + 1:], -field.theta_y[:, :c - 1][:, ::-1]])
    return GaugeField(lattice=corr.cut, theta_x=theta_x, theta_y=theta_y)


def _loop_edge_chain(lat: StripLattice, loop: LoopPath) -> tuple:
    """A loop's links as canonical +x / +y chain coefficients, shaped like theta_x / theta_y."""
    n = lat.n_sites
    sid = np.array([lat.site_id(site) for site in loop.sites()])
    d = np.array([step.direction for step in loop.steps])
    backward = (d == DIR_MX) | (d == DIR_MY)
    # a reversed step walks back along the canonical link out of the next site
    source = np.where(backward, np.concatenate((sid[1:], sid[:1])), sid)
    along_y = (d == DIR_PY) | (d == DIR_MY)
    chain = np.zeros(2 * n, dtype=int)
    np.add.at(chain, source + n * along_y, 1 - 2 * backward)
    return chain[:n].reshape(lat.nx, lat.ny), chain[n:].reshape(lat.nx, lat.ny)[:, :-1]


def _bounding_face_weights(lat: StripLattice, loop1: LoopPath, loop2: LoopPath) -> np.ndarray:
    """Integer face weights m with boundary(m) = loop1 - loop2 on an annulus.

    m has theta_y's shape, one weight per face.  Column prefix sums of
    the x-link chain give the unique solution; the full boundary
    condition is then verified link by link, which catches
    non-homologous input (and deliberately broken seam rules).
    """
    cx1, cy1 = _loop_edge_chain(lat, loop1)
    cx2, cy2 = _loop_edge_chain(lat, loop2)
    running = np.cumsum(cx1 - cx2, axis=1)
    if np.any(running[:, -1] != 0):
        raise GaugeError("loops are not homologous on the working lattice")
    m = running[:, :-1]
    # the +y link out of (i, r) is the east edge of face (i-1, r) and the west edge of face (i, r)
    if np.any(m[np.arange(lat.nx) - 1] - m != cy1 - cy2):
        raise GaugeError("loop pair does not bound a face region (inconsistent chain)")
    return m


def stokes_defect(field: GaugeField, loop1: LoopPath, loop2: LoopPath,
                  lat: Optional[StripLattice] = None) -> float:
    """Wilson-angle difference minus the enclosed curvature, mod 2*pi.

    The two loops must be homologous, and on a moebius lattice must avoid
    the center row so they lift to the orientable cut-open annulus where
    the surface integral is well defined.  The returned defect vanishes
    for every gauge field; it is the discrete Stokes identity.
    """
    if lat is not None and lat != field.lattice:
        raise GaugeError("explicit lattice disagrees with the field's lattice")
    lat = field.lattice
    if loop1.lattice != lat or loop2.lattice != lat:
        raise GaugeError("loops and field live on different lattices")
    if homology_class(lat, loop1) != homology_class(lat, loop2):
        raise GaugeError("loops are not homologous")
    if lat.is_moebius:
        c = lat.center_row  # raises for even ny, where no admissible cut exists
        if loop1.touches_row(c) or loop2.touches_row(c):
            raise GaugeError("loop touches the center row; it does not lift to the cut")
        corr = cut_complement_of_center(lat)
        work_field = lift_field(corr, field)
        w1, w2 = corr.lift_loop(loop1), corr.lift_loop(loop2)
    else:
        work_field, w1, w2 = field, loop1, loop2
    work = work_field.lattice
    m = _bounding_face_weights(work, w1, w2)
    a1 = wilson_loop(work_field, w1).angle
    a2 = wilson_loop(work_field, w2).angle
    enclosed = math.fsum(
        m[i, j] * _face_curvature_raw(work_field, (i, j)) for i, j in np.argwhere(m).tolist()
    )
    return reduce_angle(a1 - a2 - enclosed)
