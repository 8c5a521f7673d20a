"""Discretized superconducting strip with annulus or Moebius seam gluing.

Sites sit on a rectangular grid: ``nx`` columns wrap around the ring and
``ny`` rows span the width, with hard (Dirichlet) walls at the top and
bottom rows.  The Moebius variant glues column ``nx-1`` to column ``0``
with the row order reversed, the lattice version of identifying (0, y)
with (L, -y).  Loops are closed walks held as site-id arrays, checked
against one step table per lattice; their homology class is the signed
number of seam crossings, which generates H_1 of either surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

ANNULUS = "annulus"
MOEBIUS = "moebius"
TOPOLOGIES = (ANNULUS, MOEBIUS)

DIR_PX = "+x"
DIR_MX = "-x"
DIR_PY = "+y"
DIR_MY = "-y"
DIRECTIONS = (DIR_PX, DIR_MX, DIR_PY, DIR_MY)
# a direction's code is its index here and its row of the step table: code ^ 1
# is the reverse direction, odd codes step backward and codes >= 2 along y
CODE = {name: code for code, name in enumerate(DIRECTIONS)}


class LatticeError(ValueError):
    """Invalid lattice dimensions, rows, faces or topology."""


class LoopError(ValueError):
    """Walk does not chain step to step, or does not close."""


class Site(NamedTuple):
    i: int
    j: int


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
    def step_table(self) -> np.ndarray:
        """Site id one step on from each site, one row per direction code; -1 at a wall.

        This is the one implementation of the gluing.  Off the seam column
        +x is the id one column on; from column nx-1 it is column 0, the row
        reversed, j -> ny-1-j, where the moebius seam flips.  The -x row is
        the +x row's inverse.
        """
        ids = np.arange(self.n_sites)
        east, west, row = ids + self.ny, np.empty_like(ids), ids % self.ny
        seam = np.arange(self.ny)
        east[-self.ny:] = seam[::-1] if self.is_moebius and self.seam_flip else seam
        west[east] = ids
        table = np.stack((east, west, np.where(row < self.ny - 1, ids + 1, -1),
                          np.where(row > 0, ids - 1, -1)))
        table.setflags(write=False)
        return table

    @property
    def x_next(self) -> np.ndarray:
        """Site id of each site's +x neighbour, indexed by site id: the table's +x row."""
        return self.step_table[CODE[DIR_PX]]


def build_lattice(nx: int, ny: int, topology: str) -> StripLattice:
    """Construct the strip lattice; nx >= 3 and ny >= 1 are required."""
    return StripLattice(nx=nx, ny=ny, topology=topology)


@dataclass(frozen=True, eq=False)
class LoopPath:
    """Closed directed walk as arrays, checked against the step table once.

    ``steps`` holds one direction code per step; ``sites`` the site id the
    walk stands on before each step, then the start again.
    """

    lattice: StripLattice
    steps: np.ndarray
    sites: np.ndarray

    def __post_init__(self):
        lat = self.lattice
        steps, sites = np.array(self.steps), np.array(self.sites)
        if steps.size == 0 or steps.shape != (steps.size,) or sites.shape != (steps.size + 1,):
            raise LoopError(f"a loop is one or more steps and one site more, not "
                            f"{steps.shape} steps and {sites.shape} sites")
        for arr, name, end in ((steps, "direction codes", len(DIRECTIONS)),
                               (sites, "site ids", lat.n_sites)):
            # checked before the table is indexed, which would wrap a negative id
            if arr.dtype.kind not in "iu" or np.any((arr < 0) | (arr >= end)):
                raise LatticeError(f"{name} must be integers in [0, {end})")
        landed = lat.step_table[steps, sites[:-1]]  # -1 where a step meets a wall
        if np.any(landed != sites[1:]):
            k = int(np.argmax(landed != sites[1:]))
            reached = f"site {landed[k]}" if landed[k] >= 0 else "a wall"
            raise LoopError(f"step {k} from site {sites[k]} reaches {reached}, not {sites[k + 1]}")
        if sites[-1] != sites[0]:
            raise LoopError(f"walk ends at site {sites[-1]}, does not close to {sites[0]}")
        for name, arr in (("steps", steps.astype(np.int8)), ("sites", sites)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def links(self) -> tuple:
        """Each step's canonical link and the sign it is walked with, as arrays.

        A link is an index into theta_x then theta_y, each flattened.  A
        backward step walks the canonical link out of the next site.
        """
        lat, steps = self.lattice, self.steps
        backward = steps % 2 == 1
        source = np.where(backward, self.sites[1:], self.sites[:-1])
        link = np.where(steps >= CODE[DIR_PY], lat.n_sites + source - source // lat.ny, source)
        sign = 1 - 2 * backward
        for arr in (link, sign):
            arr.setflags(write=False)
        return link, sign


def walk_loop(lat: StripLattice, start, directions) -> LoopPath:
    """Build a LoopPath from a start site and a sequence of direction names."""
    if not lat.contains(start):
        raise LatticeError(f"site {start} outside lattice {lat.nx}x{lat.ny}")
    steps, sites = [], [lat.site_id(start)]
    for d in directions:
        if d not in CODE:
            raise LatticeError(f"unknown direction {d!r}")
        steps.append(CODE[d])
        sites.append(int(lat.step_table[CODE[d], sites[-1]]))
        if sites[-1] < 0:  # stop here: the table would read -1 as the last site id
            raise LoopError(f"walk blocked at site {sites[-2]} going {d}")
    return LoopPath(lat, np.array(steps, dtype=np.int8), np.array(sites))


def center_loop(lat: StripLattice) -> LoopPath:
    """The nx-step loop along the middle row, closed on both topologies."""
    return walk_loop(lat, Site(0, lat.center_row), [DIR_PX] * lat.nx)


def offset_loop(lat: StripLattice, j: int) -> LoopPath:
    """Constant-row loop off the middle circle.

    On a moebius lattice one circuit lands on the mirror row, so the loop
    runs around twice (2*nx steps) before closing; on an annulus it closes
    after nx steps.
    """
    if not 0 <= j < lat.ny:
        raise LatticeError(f"row {j} outside [0, {lat.ny})")
    if lat.is_moebius and lat.ny % 2 == 1 and j == lat.center_row:
        raise LatticeError("row j is the center row; use center_loop for it")
    return walk_loop(lat, Site(0, j), [DIR_PX] * (2 if lat.is_moebius else 1) * lat.nx)


def homology_class(lat: StripLattice, loop: LoopPath) -> int:
    """Signed count of seam crossings; the class in H_1 = Z with [center] = 1."""
    if loop.lattice != lat:
        raise LoopError("loop belongs to a different lattice")
    column = loop.sites[:-1] // lat.ny
    return int(np.count_nonzero((loop.steps == CODE[DIR_PX]) & (column == lat.nx - 1))
               - np.count_nonzero((loop.steps == CODE[DIR_MX]) & (column == 0)))


@dataclass(frozen=True)
class CenterCut:
    """Annulus double cover of a moebius strip minus its center row.

    ``cut`` has nx' = 2*nx columns and ny' = (ny-1)/2 rows.  Columns
    [0, nx) image the rows above center, columns [nx, 2*nx) the rows
    below center in flipped order; the maps preserve adjacency.  Cut rows
    in the lower block run against the band rows, so lifting flips the y
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
        sites = self.from_band[loop.sites]
        if np.any(sites < 0):
            raise LoopError("loop touches the center row and does not lift")
        below = loop.sites[:-1] % self.band.ny < self.band.center_row
        steps = np.where(below & (loop.steps >= CODE[DIR_PY]), loop.steps ^ 1, loop.steps)
        return LoopPath(self.cut, steps, sites)


@lru_cache(maxsize=16)
def cut_complement_of_center(lat: StripLattice) -> CenterCut:
    """Cut a moebius strip open along the center circle.

    The complement of the center row is orientable; it reassembles into
    an annulus going around twice.  Requires moebius topology, odd ny and
    ny >= 3.  The cuts of the last 16 lattices are cached, so repeated
    calls on one lattice return the same object.
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
