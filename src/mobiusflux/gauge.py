"""Gauge fields as link angles, Wilson loops, curvature, the Stokes check.

The vector potential is represented by one real angle per directed link
(Peierls convention); the reverse link carries the negated angle and is
never stored.  Angles stay raw (unreduced radians) throughout: Wilson
angles, and the curvature array that holds every face's boundary angle
(the lattice curvature of Wilson's formulation), are reduced mod 2*pi into
(-pi, pi] only where they are compared, so no branch cut artifacts
accumulate.

Sign convention: the holonomy of a uniform field of dimensionless flux f
around the center loop is exp(+2j*pi*f).  The other sign corresponds
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
from typing import NamedTuple

import numpy as np

from .lattice import (
    CenterCut,
    LoopError,
    LoopPath,
    Site,
    StripLattice,
    cut_complement_of_center,
    homology_class,
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


def uniform_flux_angle(lat: StripLattice, f: float) -> float:
    """The angle 2*pi*f/nx that a uniform flux f puts on every +x link; it must be finite."""
    angle = TAU * f / lat.nx
    if not math.isfinite(angle):
        raise GaugeError(f"flux f={float(f)!r} gives a link angle 2*pi*f/nx that is not finite")
    return angle


def uniform_flux_field(lat: StripLattice, f: float) -> GaugeField:
    """Flat field of dimensionless flux f, spread evenly over all x links.

    Every +x link carries 2*pi*f/nx and every +y link zero, so the field
    keeps the y -> -y reflection symmetry manifest and the Wilson angle
    around the center loop is 2*pi*f.
    """
    return GaugeField(
        lattice=lat,
        theta_x=np.full((lat.nx, lat.ny), uniform_flux_angle(lat, f)),
        theta_y=np.zeros((lat.nx, lat.ny - 1)),
    )


class WilsonResult(NamedTuple):
    angle: float
    holonomy: complex


def wilson_loop(field: GaugeField, loop: LoopPath) -> WilsonResult:
    """Raw total link angle along a closed loop and its unit-modulus holonomy."""
    if loop.lattice != field.lattice:
        raise GaugeError("loop and field live on different lattices")
    angle = _steps_angle(field, loop.links)
    return WilsonResult(angle=angle, holonomy=complex(math.cos(angle), math.sin(angle)))


def _y_link_angles(field: GaugeField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles of the y links from site ids a to b, one row apart in one column.

    The stored +y link out of the lower site, negated where the link runs down.
    """
    lo = np.minimum(a, b)
    return np.sign(b - a) * field.theta_y.ravel()[lo - lo // field.lattice.ny]


def _face_terms(field: GaugeField) -> tuple:
    """The four link angles around every face, each shaped like theta_y.

    Face (i, j) is walked counterclockwise in its own chart: +x out of
    (i, j), the y link between the x_next images of (i, j) and (i, j+1),
    -x back into (i, j+1), -y down to (i, j).  Across a moebius seam the
    images run downward, so the chart flips there and nowhere else.
    """
    lat = field.lattice
    lower = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[:, :-1]
    east = _y_link_angles(field, lat.x_next[lower], lat.x_next[lower + 1])
    return field.theta_x[:, :-1], east, -field.theta_x[:, 1:], -field.theta_y


def face_curvature(field: GaugeField) -> np.ndarray:
    """Raw boundary angle of every face, shaped like theta_y.

    Each face uses its own traversal chart, so the value is defined on
    both topologies even though a moebius strip has no global
    orientation; flatness, zero mod 2*pi, is chart-independent.
    """
    return sum(_face_terms(field))


def add_face_flux(field: GaugeField, face, beta: float) -> GaugeField:
    """Inject curvature beta into exactly one face.

    Adds beta to the x links of the face's column from the wall row up to
    the face; the changes telescope so every face curvature except the
    target's is untouched.
    """
    lat, corner = field.lattice, Site(*face)
    if not lat.contains(corner) or corner.j >= lat.ny - 1:
        raise GaugeError(f"{corner} is not a face corner of {lat.nx}x{lat.ny}")
    theta_x = np.array(field.theta_x)
    theta_x[corner.i, : corner.j + 1] += beta
    return GaugeField(lattice=lat, theta_x=theta_x, theta_y=field.theta_y)


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
    cut's rows run against the band's.
    """
    if field.lattice != corr.band:
        raise GaugeError("field lives on a different lattice than the cut")
    cut = corr.cut
    to_band = corr.to_band.reshape(cut.nx, cut.ny)
    theta_x = field.theta_x.ravel()[to_band]
    theta_y = _y_link_angles(field, to_band[:, :-1], to_band[:, 1:])
    return GaugeField(lattice=cut, theta_x=theta_x, theta_y=theta_y)


def _angle_sum(terms: np.ndarray) -> float:
    """fsum of a loop's finite angle terms; a total past the double range is a GaugeError."""
    try:
        return math.fsum(terms.tolist())
    except OverflowError:
        raise GaugeError("a loop's total angle is not a finite double") from None


def _steps_angle(field: GaugeField, links: tuple) -> float:
    """fsum of the signed link angle of every step."""
    link, sign = links
    angles = np.concatenate((field.theta_x.ravel(), field.theta_y.ravel()))
    return _angle_sum(sign * angles[link])


def _bounding_face_weights(lat: StripLattice, links1: tuple, links2: tuple) -> np.ndarray:
    """Integer face weights m with boundary(m) = loop1 - loop2 on an annulus.

    m has theta_y's shape, one weight per face.  Column prefix sums of
    the x-link chain give the unique solution; the full boundary
    condition is then verified link by link, which catches
    non-homologous input (and deliberately broken seam rules).
    """
    (link1, sign1), (link2, sign2) = links1, links2
    n = lat.n_sites
    chain = np.zeros(n + lat.nx * (lat.ny - 1), dtype=int)
    np.add.at(chain, np.concatenate((link1, link2)), np.concatenate((sign1, -sign2)))
    running = np.cumsum(chain[:n].reshape(lat.nx, lat.ny), axis=1)
    if np.any(running[:, -1] != 0):
        raise GaugeError("loops are not homologous on the working lattice")
    m = running[:, :-1]
    # the +y link out of (i, r) is the east edge of face (i-1, r) and the west edge of face (i, r)
    if np.any(m[np.arange(lat.nx) - 1] - m != chain[n:].reshape(lat.nx, lat.ny - 1)):
        raise GaugeError("loop pair does not bound a face region (inconsistent chain)")
    return m


def stokes_defect(field: GaugeField, loop1: LoopPath, loop2: LoopPath) -> float:
    """Wilson-angle difference minus the enclosed curvature, mod 2*pi.

    The two loops must be homologous, and on a moebius lattice must avoid
    the center row so they lift to the orientable cut-open annulus where
    the surface integral is well defined.  The returned defect vanishes
    for every gauge field; it is the discrete Stokes identity.
    """
    lat = field.lattice
    if loop1.lattice != lat or loop2.lattice != lat:
        raise GaugeError("loops and field live on different lattices")
    if homology_class(lat, loop1) != homology_class(lat, loop2):
        raise GaugeError("loops are not homologous")
    if lat.is_moebius:
        corr = cut_complement_of_center(lat)  # raises where no admissible cut exists
        try:
            w1, w2 = corr.lift_loop(loop1), corr.lift_loop(loop2)
        except LoopError as exc:
            raise GaugeError(f"{exc}; stokes_defect needs loops that lift to the cut") from None
        work_field = lift_field(corr, field)
    else:
        work_field, w1, w2 = field, loop1, loop2
    m = _bounding_face_weights(work_field.lattice, w1.links, w2.links)
    # term by term over the faces of nonzero weight: summing each face's four links
    # first would round once more per face
    inside = m != 0
    enclosed = _angle_sum(np.concatenate([m[inside] * t[inside]
                                          for t in _face_terms(work_field)]))
    wilson_gap = _steps_angle(work_field, w1.links) - _steps_angle(work_field, w2.links)
    return reduce_angle(wilson_gap - enclosed)
