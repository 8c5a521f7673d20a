"""Discretized superconducting strip with annulus or Moebius seam gluing.

Sites sit on a rectangular grid: ``nx`` columns wrap around the ring and
``ny`` rows span the width, with hard (Dirichlet) walls at the top and
bottom rows.  The Moebius variant glues column ``nx-1`` to column ``0``
with the row order reversed, the lattice version of identifying (0, y)
with (L, -y).  Loops are directed closed walks on the grid; their
homology class is the signed number of seam crossings, which generates
H_1 of either surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

ANNULUS = "annulus"
MOEBIUS = "moebius"
TOPOLOGIES = (ANNULUS, MOEBIUS)

DIR_PX = "+x"
DIR_MX = "-x"
DIR_PY = "+y"
DIR_MY = "-y"
DIRECTIONS = (DIR_PX, DIR_MX, DIR_PY, DIR_MY)

_OPPOSITE = {DIR_PX: DIR_MX, DIR_MX: DIR_PX, DIR_PY: DIR_MY, DIR_MY: DIR_PY}


class LatticeError(ValueError):
    """Invalid lattice dimensions, rows, faces or topology."""


class LoopError(ValueError):
    """Walk does not chain step to step, or does not close."""


class Site(NamedTuple):
    i: int
    j: int


class LinkStep(NamedTuple):
    site: Site
    direction: str


def opposite(direction: str) -> str:
    return _OPPOSITE[direction]


@dataclass(frozen=True)
class StripLattice:
    """Rectangular site grid with periodic (possibly flipped) x gluing.

    ``seam_flip`` is a verification hook: setting it False on a moebius
    lattice deliberately breaks the seam rule so downstream consistency
    checks must fail.  Production code never touches it.
    """

    nx: int
    ny: int
    topology: str
    seam_flip: bool = True

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise LatticeError(f"unknown topology {self.topology!r}, expected one of {TOPOLOGIES}")
        if self.nx < 3:
            raise LatticeError(f"nx must be >= 3, got {self.nx}")
        if self.ny < 1:
            raise LatticeError(f"ny must be >= 1, got {self.ny}")

    @property
    def n_sites(self) -> int:
        return self.nx * self.ny

    @property
    def is_moebius(self) -> bool:
        return self.topology == MOEBIUS

    @property
    def center_row(self) -> int:
        """Row index discretizing the middle circle; requires odd ny."""
        if self.ny % 2 == 0:
            raise LatticeError(f"ny={self.ny} has no center row (ny must be odd)")
        return (self.ny - 1) // 2

    def sites(self) -> Iterator[Site]:
        for i in range(self.nx):
            for j in range(self.ny):
                yield Site(i, j)

    def contains(self, site) -> bool:
        i, j = site
        return 0 <= i < self.nx and 0 <= j < self.ny

    def site_id(self, site) -> int:
        """Linear index used for wavefunction components and matrix rows."""
        i, j = site
        return i * self.ny + j

    @cached_property
    def x_next(self) -> np.ndarray:
        """Site id of each site's +x neighbour, indexed by site id.

        Off the seam column that is the id one column on; the seam column's
        entries are read off ``neighbor``, so the seam rule has one
        implementation.  Vectorized code indexes this array instead.
        """
        out = np.arange(self.ny, self.n_sites + self.ny)
        out[-self.ny:] = [self.site_id(neighbor(self, Site(self.nx - 1, j), DIR_PX))
                          for j in range(self.ny)]
        out.setflags(write=False)
        return out


def build_lattice(nx: int, ny: int, topology: str) -> StripLattice:
    """Construct the strip lattice; nx >= 3 and ny >= 1 are required."""
    return StripLattice(nx=nx, ny=ny, topology=topology)


def neighbor(lat: StripLattice, site, direction: str) -> Optional[Site]:
    """Step one link from ``site``; None where a Dirichlet wall blocks.

    Crossing the seam in +x from column nx-1 (or in -x from column 0) on
    a moebius lattice flips the row, j -> ny-1-j.
    """
    i, j = site
    if not lat.contains(site):
        raise LatticeError(f"site {site} outside lattice {lat.nx}x{lat.ny}")
    flip = lat.is_moebius and lat.seam_flip
    if direction == DIR_PX:
        if i < lat.nx - 1:
            return Site(i + 1, j)
        return Site(0, lat.ny - 1 - j) if flip else Site(0, j)
    if direction == DIR_MX:
        if i > 0:
            return Site(i - 1, j)
        return Site(lat.nx - 1, lat.ny - 1 - j) if flip else Site(lat.nx - 1, j)
    if direction == DIR_PY:
        return Site(i, j + 1) if j < lat.ny - 1 else None
    if direction == DIR_MY:
        return Site(i, j - 1) if j > 0 else None
    raise LatticeError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class LoopPath:
    """Closed directed walk; validated link by link at construction."""

    lattice: StripLattice
    steps: tuple

    def __post_init__(self):
        steps = tuple(LinkStep(Site(*s.site), s.direction) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise LoopError("empty walk is not a loop")
        pos = steps[0].site
        for k, step in enumerate(steps):
            if step.site != pos:
                raise LoopError(f"step {k} starts at {step.site}, expected {pos}")
            nxt = neighbor(self.lattice, step.site, step.direction)
            if nxt is None:
                raise LoopError(f"step {k} walks through the wall at {step.site} {step.direction}")
            pos = nxt
        if pos != steps[0].site:
            raise LoopError(f"walk ends at {pos}, does not close to {steps[0].site}")

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def links(self) -> tuple:
        """Each step's canonical link and the sign it is walked with, as arrays.

        A link is an index into theta_x then theta_y, each flattened.  A
        reversed step walks back along the canonical link out of the next
        site.  Built once per loop, as ``x_next`` is once per lattice.
        """
        lat = self.lattice
        sid = np.array([lat.site_id(site) for site in self.sites()])
        d = np.array([step.direction for step in self.steps])
        backward = (d == DIR_MX) | (d == DIR_MY)
        source = np.where(backward, np.concatenate((sid[1:], sid[:1])), sid)
        along_y = (d == DIR_PY) | (d == DIR_MY)
        link = np.where(along_y, lat.n_sites + source - source // lat.ny, source)
        sign = 1 - 2 * backward
        for arr in (link, sign):
            arr.setflags(write=False)
        return link, sign

    def sites(self) -> tuple:
        return tuple(step.site for step in self.steps)


def walk_loop(lat: StripLattice, start, directions) -> LoopPath:
    """Build a LoopPath from a start site and a direction sequence."""
    pos = Site(*start)
    steps = []
    for d in directions:
        steps.append(LinkStep(pos, d))
        nxt = neighbor(lat, pos, d)
        if nxt is None:
            raise LoopError(f"walk blocked at {pos} going {d}")
        pos = nxt
    return LoopPath(lat, tuple(steps))


def center_loop(lat: StripLattice) -> LoopPath:
    """The nx-step loop along the middle row, closed on both topologies."""
    c = lat.center_row
    return walk_loop(lat, Site(0, c), [DIR_PX] * lat.nx)


def offset_loop(lat: StripLattice, j: int) -> LoopPath:
    """Constant-row loop off the middle circle.

    On a moebius lattice one circuit lands on the mirror row, so the loop
    runs around twice (2*nx steps) before closing; on an annulus it closes
    after nx steps.
    """
    if not 0 <= j < lat.ny:
        raise LatticeError(f"row {j} outside [0, {lat.ny})")
    if lat.is_moebius:
        if lat.ny % 2 == 1 and j == lat.center_row:
            raise LatticeError("row j is the center row; use center_loop for it")
        return walk_loop(lat, Site(0, j), [DIR_PX] * (2 * lat.nx))
    return walk_loop(lat, Site(0, j), [DIR_PX] * lat.nx)


def homology_class(lat: StripLattice, loop: LoopPath) -> int:
    """Signed count of seam crossings; the class in H_1 = Z with [center] = 1."""
    if loop.lattice != lat:
        raise LoopError("loop belongs to a different lattice")
    n = 0
    for site, direction in loop.steps:
        if direction == DIR_PX and site.i == lat.nx - 1:
            n += 1
        elif direction == DIR_MX and site.i == 0:
            n -= 1
    return n


@dataclass(frozen=True)
class CenterCut:
    """Annulus double cover of a moebius strip minus its center row.

    ``cut`` has nx' = 2*nx columns and ny' = (ny-1)/2 rows.  Columns
    [0, nx) image the rows above center, columns [nx, 2*nx) the rows
    below center in flipped order; the maps preserve adjacency.  Cut rows
    in the lower block run opposite to band rows, so lifting flips the y
    direction there.  ``to_band`` holds the band site id of each cut site
    id; ``from_band``, its inverse, holds the cut site id of each band site
    id, and -1 on the center row.
    """

    band: StripLattice
    cut: StripLattice
    to_band: np.ndarray
    from_band: np.ndarray

    def lift_loop(self, loop: LoopPath) -> LoopPath:
        """Image of a center-avoiding band loop on the cut annulus."""
        if loop.lattice != self.band:
            raise LoopError("loop belongs to a different lattice")
        c = self.band.center_row
        steps = []
        for site, direction in loop.steps:
            lifted = int(self.from_band[self.band.site_id(site)])
            if lifted < 0:
                raise LoopError("loop touches the center row and does not lift")
            if site.j < c and direction in (DIR_PY, DIR_MY):
                direction = opposite(direction)
            steps.append(LinkStep(Site(*divmod(lifted, self.cut.ny)), direction))
        return LoopPath(self.cut, tuple(steps))


def cut_complement_of_center(lat: StripLattice) -> CenterCut:
    """Cut a moebius strip open along the center circle.

    The complement of the center row is orientable; it reassembles into
    an annulus going around twice.  Requires moebius topology, odd ny and
    ny >= 3.
    """
    if not lat.is_moebius:
        raise LatticeError("cut_complement_of_center needs a moebius lattice")
    c = lat.center_row
    if lat.ny < 3:
        raise LatticeError("need ny >= 3 so the complement of the center row is nonempty")
    cut = StripLattice(nx=2 * lat.nx, ny=(lat.ny - 1) // 2, topology=ANNULUS)
    band = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)
    to_band = np.concatenate([band[:, c + 1:], band[:, c - 1::-1]]).ravel()
    from_band = np.full(lat.n_sites, -1)
    from_band[to_band] = np.arange(cut.n_sites)
    for arr in (to_band, from_band):
        arr.setflags(write=False)
    return CenterCut(band=lat, cut=cut, to_band=to_band, from_band=from_band)
