"""Magnetic tight-binding Hamiltonian and reflection-parity sectors.

Units: hbar = 1, lattice spacing 1, and the hopping energy t = 1/(2 m a^2)
absorbs the particle mass, so energies are reported in units of the x
hopping.  The discrete kinetic term puts 2*tx + 2*ty on every diagonal
(also at Dirichlet walls, where the missing neighbor simply contributes
no hop) and -t * exp(i*theta) on every existing link, theta being the
gauge field's Peierls angle for the hop direction.  Every operator,
``SparseHermitian(matrix)``, ``assemble``, ``restrict`` and
``FluxPencil.at`` alike, is checked, symmetrized and stored in one way:
on a CSR pattern closed under transposition, through its transpose
index, keeping every slot the pattern holds, every diagonal slot among
them.  The pattern holds its CSR, index arrays validated once, and an
operator on it is that CSR with its own data, which no sparse
constructor checks again.  ``assemble`` writes its entries straight onto
the one link layout, a pattern built once per lattice.  Every operator
is checked finite, entries at most 1e150, where it is built, so no
solver scans it again; its Hermiticity defect and sector leak must meet
1e-12, or 64 eps max |entry| where that is larger.

The reflection y -> -y commutes with any assembled operator whose angles
and potential share that symmetry; its even and odd eigenspaces are the
sectors.  Odd-sector states vanish identically on the center row, which
is what realizes nodal states on the middle circle.

A uniform flux is odd under complex conjugation K and odd under the
mirror along the ring, M: (i, j) -> (nx-1-i, j), which reverses every x
link (the seam's included).  Their product Theta = M K is antiunitary,
commutes with H and squares to 1, so H is real symmetric in any basis
that Theta fixes (Wigner's antiunitary symmetry, Dyson's orthogonal
class).  ``sector_isometry`` gives such a basis of each sector:
(e_s + e_Ms)/sqrt(2) and i (e_s - e_Ms)/sqrt(2) over mirror pairs of the
sector's coordinates, e_s on a fixed column, each partner read off its
(i, j); the basis holds its CSR form and its adjoint, built once, for
the projection.  It is a unitary similarity for any operator, so an
input without the mirror symmetry (a gauge-transformed field, say) keeps
its exact spectrum and merely stays complex.  Data with no imaginary
part is stored as float64, and the store checks and symmetrizes real
data in real arithmetic.

A uniform flux f puts one angle phi = 2*pi*f/nx on every x link and
none on the y links, so H(f) = R + cos(phi) X + sin(phi) Y, with R the
diagonal plus the rungs, X = -tx (S + S^T) and Y = -i tx (S - S^T), S
the +x link incidence.  ``FluxPencil`` lays the three pieces on
``assemble``'s link layout, restricts them to a sector once, by the
projection ``restrict`` uses, keeps the blocks as float64 (in the mirror
basis every imaginary part is exactly 0.0), and evaluates each flux
point from their real data arrays, with the guarantees of
``restrict(assemble(...))``.  The leak and the Hermiticity defect are
both linear in H, and |cos phi|, |sin phi| <= 1, so no point leaks or
departs from Hermiticity more than the pieces summed, which are checked
once, when the pencil is built, against the same bound; each piece is
then kept symmetrized, (P + P^dagger)/2, so every point is exactly
Hermitian, and is checked only finite, entries at most 1e150.  On every
lattice tested, each point's CSR arrays are bit for bit those of the
unsymmetrized pieces combined, then symmetrized.
``restrict(assemble(...))`` stays the path for any other field.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .gauge import GaugeField, uniform_flux_angle
from .lattice import LatticeError, StripLattice

FULL = "full"
EVEN = "even"
ODD = "odd"
SECTORS = (FULL, EVEN, ODD)

_MAX_ENTRY = 1e150  # ~sqrt(largest double / 1e8): squared and summed over 1e8 rows, finite
# rounding explains a defect or residual up to this times the operator's size (see _round_off_bound)
ROUND_OFF = 64.0 * float(np.finfo(float).eps)


class SymmetryViolationError(ValueError):
    """Operator is not reflection symmetric; sector restriction refused."""


@dataclass(frozen=True)
class HoppingParams:
    """Hopping energies; ty = 0 is the decoupled-chain limit."""

    tx: float = 1.0
    ty: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.tx) and self.tx > 0):
            raise ValueError(f"tx must be finite and > 0, got {self.tx}")
        if not (np.isfinite(self.ty) and self.ty >= 0):
            raise ValueError(f"ty must be finite and >= 0, got {self.ty}")


def _round_off_bound(size: float) -> float:
    """The largest defect rounding explains in an operator of max |entry| size (measured:
    leaks 1.3-2.6 eps size, Hermiticity defects below 0.3 eps size, for sizes 1 to 1e8)."""
    return max(1e-12, ROUND_OFF * size)


def _max_abs(entries: np.ndarray) -> float:
    return float(np.max(np.abs(entries), initial=0.0))


def _entry_size(entries: np.ndarray) -> float:
    """max |entry|, refusing a non-finite entry or one above 1e150, so that H + H^dagger and
    every residual norm are finite too."""
    size = _max_abs(entries)
    if not size <= _MAX_ENTRY:
        raise ValueError(f"matrix has a non-finite entry, or one above {_MAX_ENTRY:.3g}")
    return size


class SparseHermitian:
    """Sparse matrix with exact Hermitian symmetry.

    Construction refuses a non-finite entry (or one above 1e150), verifies
    max |H - H^dagger| against the round-off bound and then stores the
    exactly symmetrized (H + H^dagger)/2, finite, whose Hermiticity holds
    entrywise in floating point, with a real diagonal.  It is stored as
    float64 when every imaginary part is exactly 0.0, so solvers run in
    real arithmetic; nothing is rounded to get there.  The CSR holds every
    stored entry of the matrix and of its transpose, explicit zeros
    included, so its pattern is closed under transposition, and every
    diagonal slot.
    """

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix, dtype=complex, copy=True)  # never sort the caller's arrays
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is {m.shape}, not square")
        m.sum_duplicates()
        pattern, (data,) = _Pattern.of_matrices([m], m.shape[0])
        self._csr = pattern.hermitian(data).csr

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def csr(self):
        return self._csr

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._csr @ v


class _Pattern(NamedTuple):
    """A square CSR pattern closed under transposition: the one store of every operator.

    ``template`` is the pattern's CSR, its index arrays validated once,
    when the pattern is built; an operator on the pattern is a shallow
    copy of it with its own data, which no sparse constructor checks
    again.  ``transpose`` holds the slot of each entry's transpose, so
    data laid on the pattern is checked and symmetrized entry by entry,
    with no sparse round trip.
    """

    template: sp.csr_matrix
    transpose: np.ndarray

    @classmethod
    def of(cls, keys: np.ndarray, n: int) -> "_Pattern":
        """The pattern of sorted, distinct row-major keys row * n + col, closed under transposition."""
        rows, cols = np.divmod(keys, n)
        indices = cols.astype(np.int32)
        indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
        transpose = np.searchsorted(keys, cols * n + rows)
        for arr in (indices, indptr, transpose):  # every operator on the pattern shares them
            arr.setflags(write=False)
        return cls(sp.csr_matrix((np.zeros(keys.size), indices, indptr), shape=(n, n)), transpose)

    @classmethod
    def of_matrices(cls, matrices, n: int) -> tuple:
        """The pattern of these n x n matrices, their transposes and the diagonal, and their data.

        Each matrix must hold no duplicate entries; a slot it does not
        hold is 0 in its row of the data.  The data is float64 when every
        imaginary part is exactly 0.0, as in the blocks of a uniform-flux
        operator in the mirror basis.
        """
        coos = [m.tocoo() for m in matrices]
        own = [c.row.astype(np.int64) * n + c.col for c in coos]
        keys = np.sort(np.concatenate(own + [c.col.astype(np.int64) * n + c.row for c in coos]
                                      + [np.arange(n, dtype=np.int64) * (n + 1)]))
        first = np.ones(keys.size, dtype=bool)  # np.unique by a sort: its hashing is slower here
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        data = np.zeros((len(coos), keys.size), dtype=complex)
        for row, c, k in zip(data, coos, own):
            row[np.searchsorted(keys, k)] = c.data
        if not np.any(data.imag):
            data = data.real.copy()
        return cls.of(keys, n), data

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with these entries on the pattern, unchecked."""
        m = copy.copy(self.template)
        m.data = data
        return m

    def symmetrized(self, data: np.ndarray) -> np.ndarray:
        """(P + P^dagger)/2 of each row P of data, once P is checked.

        A NaN compares false with any bound, so the entries are checked
        first (``_entry_size``).  Then the Hermiticity defects of the rows,
        summed, must meet the round-off bound of the largest entry: the
        defect is linear in P, so the sum bounds that of any combination
        of the rows with coefficients at most 1 in magnitude.  Real data
        stays in real arithmetic.
        """
        size = _entry_size(data)
        adjoint = data[..., self.transpose]
        if np.iscomplexobj(data):
            adjoint = adjoint.conj()
        worst = float(np.sum(np.max(np.abs(data - adjoint), axis=-1, initial=0.0)))
        if worst > _round_off_bound(size):
            raise ValueError(f"matrix is not Hermitian: max defect {worst:.3e}")
        return (data + adjoint) * 0.5

    def store(self, data: np.ndarray) -> SparseHermitian:
        """The operator with these entries, exactly Hermitian and checked finite by the caller.

        Complex data is stored as float64 if every imaginary part is exactly 0.0.
        """
        if np.iscomplexobj(data) and not np.any(data.imag):
            data = data.real.copy()
        h = SparseHermitian.__new__(SparseHermitian)
        h._csr = self.csr(data)
        return h

    def hermitian(self, data: np.ndarray) -> SparseHermitian:
        """The operator with these entries: checked, symmetrized and stored."""
        return self.store(self.symmetrized(data))


def assemble(lat: StripLattice, field: GaugeField, hop: HoppingParams,
             pot: Optional[np.ndarray] = None) -> SparseHermitian:
    """Assemble the lattice Schrodinger operator with Peierls link phases.

    ``pot`` is an optional on-site potential, shape (nx, ny) or flat
    (nx*ny,), in units of the hopping; omitted means zero.
    """
    if field.lattice != lat:
        raise LatticeError("gauge field lives on a different lattice")
    n = lat.n_sites
    v = np.zeros(n)
    if pot is not None:
        v = np.asarray(pot, dtype=float).reshape(-1)
        if v.shape != (n,):  # its entries are checked with the operator's
            raise LatticeError(f"potential has {v.size} entries, lattice has {n} sites")
    x_hop = -hop.tx * np.exp(1j * field.theta_x.reshape(-1))
    y_hop = -hop.ty * np.exp(1j * field.theta_y.reshape(-1)) if hop.ty != 0.0 else None
    pattern, order = _link_layout(lat, y_hop is not None)
    values = _link_values(lat, 2.0 * hop.tx + 2.0 * hop.ty + v, x_hop, y_hop)
    return pattern.hermitian(values[order])


def _link_coords(lat: StripLattice, y_links: bool) -> tuple:
    """Rows and columns of the diagonal, then of every +x and +y link and its conjugate.

    Each link (u -> v) enters as H[v, u] and its conjugate at H[u, v],
    the +x links read off ``lat.x_next``.
    """
    ids = np.arange(lat.n_sites)
    rows, cols = [ids, lat.x_next, ids], [ids, ids, lat.x_next]
    if y_links:
        below = ids.reshape(lat.nx, lat.ny)[:, :-1].reshape(-1)
        rows += [below + 1, below]
        cols += [below, below + 1]
    return np.concatenate(rows), np.concatenate(cols)


def _link_values(lat: StripLattice, diag, x_hop, y_hop) -> np.ndarray:
    """The entries at ``_link_coords``: H[v, u] = hop[u] on each link, its conjugate at H[u, v].

    ``y_hop`` None leaves the +y links out, as ``_link_coords`` does.
    """
    vals = [np.broadcast_to(diag, (lat.n_sites,)), x_hop, np.conj(x_hop)]
    if y_hop is not None:
        vals += [y_hop, np.conj(y_hop)]
    return np.concatenate(vals)


@functools.lru_cache(maxsize=16)
def _link_layout(lat: StripLattice, y_links: bool) -> tuple:
    """``assemble``'s pattern on lat, once per lattice, and the order that sorts its entries into it.

    nx >= 3 keeps every link distinct, so the entries fill the pattern one to one.
    """
    n = lat.n_sites
    rows, cols = _link_coords(lat, y_links)
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys)
    return _Pattern.of(keys[order], n), order


def ring_spectrum_oracle(nx: int, f: float) -> np.ndarray:
    """Closed-form spectrum of the single-row ring at tx = 1.

    Plane waves diagonalize the ring exactly: the eigenvalues are
    2 - 2*cos(2*pi*(k + f)/nx) for k = 0..nx-1, sorted ascending.  Used
    as an independent check on assembly plus eigensolver.
    """
    k = np.arange(nx)
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * (k + f) / nx))


def reflection_permutation(lat: StripLattice) -> np.ndarray:
    """Site-id permutation of the reflection (i, j) -> (i, ny-1-j)."""
    lat.center_row  # requires odd ny
    return np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[:, ::-1].reshape(-1)


@dataclass(frozen=True)
class SectorIsometry:
    """Orthonormal embedding of the full space or one reflection-parity subspace.

    ``parity`` is "full", "even" or "odd".  The columns are those of the
    parity basis B, the identity for "full" and otherwise
    (e(i,j) -/+ e(i,ny-1-j))/sqrt(2) over rows below center plus, for the
    even sector, the bare center-row sites, recombined in mirror pairs so
    that Theta = M K fixes each one.  Each column touches at most four
    sites, so orthonormality holds to round-off.  ``matrix`` is the CSC
    form; its CSR form and its adjoint, which the sector projection
    multiplies with, are built once, on first use.
    """

    lattice: StripLattice
    parity: str
    matrix: sp.csc_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @functools.cached_property
    def csr(self) -> sp.csr_matrix:
        return self.matrix.tocsr()

    @functools.cached_property
    def adjoint(self) -> sp.csr_matrix:
        """B^dagger, CSR: the transpose of the conjugated CSC arrays."""
        return self.matrix.conj().T

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Map a sector vector back to the full site basis."""
        return self.csr @ vec


def sector_isometry(lat: StripLattice, sector: str) -> SectorIsometry:
    """Isometry onto a sector ("full", "even" or "odd") whose columns Theta = M K fixes.

    It is the parity basis B times Theta's real basis on B's coordinates:
    M maps B's column at (i, j) to the one at (nx-1-i, j), M b_p = b_q,
    and a pair p < q becomes (b_p + b_q)/sqrt(2) in column p and
    i (b_p - b_q)/sqrt(2) in column q; a column M fixes stays.  Each entry
    is one product, written straight into the CSC arrays with the rows of
    each column descending, as the sparse product B W lists them.  An
    operator commuting with Theta restricts to a real symmetric one.

    Raises LatticeError where a parity sector does not exist: ny even (no
    center row), or the odd sector of a one-row strip, which is empty.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    nx, n = lat.nx, lat.n_sites
    grid = np.arange(n).reshape(nx, lat.ny)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # B's columns in blocks, each on an (nx, width) grid of column coordinates (i, j): the
    # sites of each column, ascending, and its entries there; a block's columns follow the
    # blocks before it, row-major
    if sector == FULL:
        blocks = [(grid[:, :, None], np.ones(1))]
    else:
        c = lat.center_row
        if sector == ODD and c == 0:
            raise LatticeError("the odd sector of a one-row strip is empty")
        sign = 1.0 if sector == EVEN else -1.0
        blocks = [(np.stack([grid[:, :c], grid[:, ::-1][:, :c]], axis=-1),
                   np.array([inv_sqrt2, sign * inv_sqrt2]))]
        if sector == EVEN:
            blocks.append((grid[:, c, None, None], np.ones(1)))
    i = np.arange(nx)[:, None, None]
    lower, upper = i < nx - 1 - i, i > nx - 1 - i  # a column M fixes is neither
    rows, data, counts = [], [], []
    for sites, vals in blocks:
        partner = sites[::-1]  # the column at (nx-1-i, j): its sites lie all above or all below
        # both columns of a pair hold the pair's sites, descending: the upper column's first
        support = np.concatenate([np.maximum(sites, partner)[..., ::-1],
                                  np.minimum(sites, partner)[..., ::-1]], axis=-1)
        desc = vals[::-1]
        scaled = inv_sqrt2 * desc
        real = np.where(lower, np.concatenate([scaled, scaled]),
                        np.where(upper, 0.0, np.concatenate([desc, desc])))
        imag = np.where(upper, np.concatenate([-scaled, scaled]), 0.0)
        value = real + 1j * imag  # zero parts +0.0, as the product's sums leave them
        keep = np.broadcast_to(lower | upper | (np.arange(2 * desc.size) < desc.size),
                               support.shape)  # a fixed column holds its own sites once
        rows.append(support[keep])
        data.append(np.broadcast_to(value, support.shape)[keep])
        counts.append(keep.sum(axis=-1).reshape(-1))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    matrix = sp.csc_matrix((np.concatenate(data), np.concatenate(rows), indptr),
                           shape=(n, indptr.size - 1))
    return SectorIsometry(lattice=lat, parity=sector, matrix=matrix)


def restrict(h: SparseHermitian, iso: SectorIsometry) -> SparseHermitian:
    """Project the operator into one sector, B^dagger H B.

    Refuses operators that couple the sectors: the leak H B - B (B^dagger H B),
    which is H B's component outside the sector, must vanish to round-off
    in max magnitude.  That is the numerical form of requiring
    reflection-symmetric angles and potential.
    """
    pattern, (data,) = _sector_blocks(iso, [h.csr])
    return pattern.hermitian(data)


def _project(m, iso: SectorIsometry) -> tuple:
    """The sparse block B^dagger M B and its leak max |M B - B (B^dagger M B)|, unchecked."""
    if m.shape[0] != iso.lattice.n_sites:
        raise ValueError(f"operator dimension {m.shape[0]} != lattice size {iso.lattice.n_sites}")
    mb = m @ iso.csr
    block = iso.adjoint @ mb
    return block, float(abs(mb - iso.csr @ block).max())


def _sector_blocks(iso: SectorIsometry, matrices) -> tuple:
    """The blocks B^dagger M B laid on one pattern, as ``_Pattern.of_matrices``; the leak is
    linear in M, so theirs are summed and checked once, against their largest entry's bound."""
    blocks, leaks = zip(*(_project(m, iso) for m in matrices))
    leak = sum(leaks)
    if leak > _round_off_bound(max(_max_abs(m.data) for m in matrices)):
        raise SymmetryViolationError(f"operator couples even and odd sectors (leak {leak:.3e})")
    return _Pattern.of_matrices(blocks, iso.dim)


class FluxPencil:
    """One sector's uniform-flux operator as a function of f (see the module docstring).

    R, X and Y are laid on ``assemble``'s pattern, each 0 on the links it
    does not hold, and projected once by ``_sector_blocks`` onto one
    shared pattern, as float64 blocks in the mirror basis, which are
    checked and symmetrized there, once; ``at(f)`` combines their data in
    real arithmetic and checks only its entries: finite, at most 1e150.
    """

    def __init__(self, iso: SectorIsometry, hop: HoppingParams):
        lat, n = iso.lattice, iso.lattice.n_sites
        tx = np.full(n, hop.tx)
        rungs = np.full(lat.nx * (lat.ny - 1), -hop.ty) if hop.ty != 0.0 else None
        no_rungs = None if rungs is None else np.zeros_like(rungs)
        pieces = (_link_values(lat, 2.0 * hop.tx + 2.0 * hop.ty, np.zeros(n), rungs),
                  _link_values(lat, 0.0, -tx, no_rungs),
                  _link_values(lat, 0.0, -1j * tx, no_rungs))
        pattern, order = _link_layout(lat, rungs is not None)
        self.iso = iso
        self._pattern, data = _sector_blocks(iso, [pattern.csr(piece[order]) for piece in pieces])
        self._data = self._pattern.symmetrized(data)

    def at(self, f: float) -> SparseHermitian:
        """The sector operator at flux f: ``restrict(assemble(...))`` to round-off.

        Each piece is exactly Hermitian, and so is any real combination of them.
        """
        phi = uniform_flux_angle(self.iso.lattice, f)
        r, x, y = self._data
        data = r + math.cos(phi) * x + math.sin(phi) * y
        _entry_size(data)
        return self._pattern.store(data)
