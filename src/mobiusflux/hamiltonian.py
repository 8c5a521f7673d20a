"""Magnetic tight-binding Hamiltonian and reflection-parity sectors.

Units: hbar = 1, lattice spacing 1, energies in units of the x hopping.
``SparseHermitian`` is every operator's type and ``_Pattern`` its one
store, which each operator carries as its ``pattern``; ``assemble``
builds the site-basis operator on a link layout held per lattice,
``sector_isometry`` gives the real mirror basis of a reflection-parity
sector as one CSC matrix, from one pair rule applied to the reflection R
and then to the ring mirror M, ``restrict`` projects onto it, and
``FluxPencil`` evaluates a sector's uniform-flux operator at any flux.
``sector_isometry`` and ``sector_pencil`` keep what they build in a cache
per process, read-only, so a band's bases and pencils are built once.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

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

    Construction checks the matrix and stores (H + H^dagger)/2, as
    ``_Pattern.hermitian`` does, on the pattern of the matrix and its
    transpose.  ``pattern`` is the ``_Pattern`` an operator is stored on,
    one object for every operator on it, keyed by identity: the
    eigensolver caches its band layout there.
    """

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix, dtype=complex, copy=True)  # never sort the caller's arrays
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is {m.shape}, not square")
        m.sum_duplicates()
        self.pattern, (data,) = _Pattern.of_matrices([m], m.shape[0])
        self._csr = self.pattern.hermitian(data).csr

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


@dataclass(frozen=True, eq=False)
class _Pattern:
    """A square CSR pattern closed under transposition: the one store of every operator.

    ``template`` is the pattern's CSR, its index arrays validated once,
    when the pattern is built; an operator on the pattern is a shallow
    copy of it with its own data, which no sparse constructor checks
    again.  ``transpose`` holds the slot of each entry's transpose, so
    data laid on the pattern is checked and symmetrized entry by entry,
    with no sparse round trip.  A pattern holds the slots of its matrices
    and their transposes, no other, and an operator keeps every slot,
    explicit zeros included.  A pattern hashes and compares by identity:
    one built anew is a new key, however equal its arrays.
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
        """The pattern of these n x n matrices and their transposes, and their data.

        Each matrix must hold no duplicate entries; a slot it does not
        hold is 0 in its row of the (complex) data.
        """
        coos = [m.tocoo() for m in matrices]
        own = [c.row.astype(np.int64) * n + c.col for c in coos]
        keys = np.sort(np.concatenate(own + [c.col.astype(np.int64) * n + c.row for c in coos]))
        first = np.ones(keys.size, dtype=bool)  # np.unique by a sort: its hashing is slower here
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        data = np.zeros((len(coos), keys.size), dtype=complex)
        for row, c, k in zip(data, coos, own):
            row[np.searchsorted(keys, k)] = c.data
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
        of the rows with coefficients at most 1 in magnitude.  The result
        is float64 when every imaginary part is exactly 0.0, as in the
        blocks of a uniform-flux operator in the mirror basis, so solvers
        run in real arithmetic; nothing is rounded to get there.
        """
        size = _entry_size(data)
        adjoint = data[..., self.transpose].conj()
        worst = float(np.sum(np.max(np.abs(data - adjoint), axis=-1, initial=0.0)))
        if worst > _round_off_bound(size):
            raise ValueError(f"matrix is not Hermitian: max defect {worst:.3e}")
        data = (data + adjoint) * 0.5
        return data.real.copy() if np.iscomplexobj(data) and not np.any(data.imag) else data

    def store(self, data: np.ndarray) -> SparseHermitian:
        """The operator with these entries, exactly Hermitian and checked finite by the caller."""
        h = SparseHermitian.__new__(SparseHermitian)
        h._csr, h.pattern = self.csr(data), self
        return h

    def hermitian(self, data: np.ndarray) -> SparseHermitian:
        """The operator with these entries: checked, symmetrized and stored."""
        return self.store(self.symmetrized(data))


def assemble(lat: StripLattice, field: GaugeField, hop: HoppingParams,
             pot: Optional[np.ndarray] = None) -> SparseHermitian:
    """Assemble the lattice Schrodinger operator with Peierls link phases.

    2*tx + 2*ty + pot on every diagonal, walls included, where the missing
    neighbor contributes no hop, and -t exp(i theta) on every link, theta
    the field's angle for the hop; at ty = 0 the rungs hold exact zeros, so
    the pattern is the lattice's alone.  ``pot`` is an optional on-site
    potential, shape (nx, ny) or flat (nx*ny,), in units of the hopping;
    omitted means zero.
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
    y_hop = -hop.ty * np.exp(1j * field.theta_y.reshape(-1))
    pattern, order = _link_layout(lat)
    values = _link_values(lat, 2.0 * hop.tx + 2.0 * hop.ty + v, x_hop, y_hop)
    return pattern.hermitian(values[order])


def _link_coords(lat: StripLattice) -> tuple:
    """Rows and columns of the diagonal, then of every +x and +y link and its conjugate.

    Each link (u -> v) enters as H[v, u] and its conjugate at H[u, v],
    the +x links read off ``lat.x_next``.
    """
    ids = np.arange(lat.n_sites)
    below = ids.reshape(lat.nx, lat.ny)[:, :-1].reshape(-1)
    return (np.concatenate([ids, lat.x_next, ids, below + 1, below]),
            np.concatenate([ids, ids, lat.x_next, below, below + 1]))


def _link_values(lat: StripLattice, diag, x_hop, y_hop) -> np.ndarray:
    """The entries at ``_link_coords``: H[v, u] = hop[u] on each link, its conjugate at H[u, v].

    Each class takes one value for all its members or one each: ``diag``
    and ``x_hop`` per site, ``y_hop`` per +y link.
    """
    x_hop = np.broadcast_to(x_hop, (lat.n_sites,))
    y_hop = np.broadcast_to(y_hop, (lat.nx * (lat.ny - 1),))
    return np.concatenate([np.broadcast_to(diag, (lat.n_sites,)), x_hop, np.conj(x_hop),
                           y_hop, np.conj(y_hop)])


@functools.lru_cache(maxsize=16)
def _link_layout(lat: StripLattice) -> tuple:
    """``assemble``'s pattern on lat, once per lattice, and the order that sorts its entries into it.

    nx >= 3 keeps every link distinct, so the entries fill the pattern one to one.
    Both are read-only: every operator on lat is gathered through the order.
    """
    n = lat.n_sites
    rows, cols = _link_coords(lat)
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys)
    order.setflags(write=False)
    return _Pattern.of(keys[order], n), order


def _frozen(m):
    """The sparse matrix m with its arrays made read-only, so that every holder may share it."""
    for arr in (m.data, m.indices, m.indptr):
        arr.setflags(write=False)
    return m


def ring_spectrum_oracle(nx: int, f: float) -> np.ndarray:
    """Closed-form spectrum of the single-row ring at tx = 1.

    Plane waves diagonalize the ring exactly: the eigenvalues are
    2 - 2*cos(2*pi*(k + f)/nx) for k = 0..nx-1, sorted ascending.  Used
    as an independent check on assembly plus eigensolver.
    """
    k = np.arange(nx)
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * (k + f) / nx))


@dataclass(frozen=True)
class SectorIsometry:
    """Orthonormal embedding of the full space or one reflection-parity subspace.

    ``parity`` is "full", "even" or "odd".  The columns are those of the
    parity basis B, the identity for "full" and otherwise
    (e(i,j) +/- e(i,ny-1-j))/sqrt(2), even or odd, over the pairs of the
    reflection R, j < ny-1-j, plus, for the even sector, R's fixed points,
    the bare center-row sites; they are recombined in mirror pairs so
    that Theta = M K fixes each one.  Each column touches at most four
    sites, so orthonormality holds to round-off.  ``matrix`` is B W's
    one stored form, CSC, which ``embed`` and the sector projection
    multiply with; it is read-only in a basis ``sector_isometry`` builds.
    """

    lattice: StripLattice
    parity: str
    matrix: sp.csc_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Map a sector vector back to the full site basis."""
        return self.matrix @ vec


def _per_process(build):
    """``build(lat, sector, ...)`` cached per process, like ``_link_layout``, behind the one
    check of ``sector``: an unknown or unhashable name raises ValueError before any lookup."""
    cached = functools.lru_cache(maxsize=16)(build)

    @functools.wraps(build)
    def checked(lat: StripLattice, sector: str, *args):
        if sector not in SECTORS:
            raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
        return cached(lat, sector, *args)

    checked.cache_clear, checked.cache_info = cached.cache_clear, cached.cache_info
    return checked


def _pairs(perm: np.ndarray) -> tuple:
    """An involution's pairs, each as its smaller point lo and larger one hi = perm[lo],
    ordered by lo, and its fixed points, ascending."""
    p = np.arange(perm.size)
    return p[p < perm], perm[p < perm], p[p == perm]


@_per_process
def sector_isometry(lat: StripLattice, sector: str) -> SectorIsometry:
    """Isometry onto a sector ("full", "even" or "odd") whose columns Theta = M K fixes.

    It is the product B W of the parity basis B and Theta's real basis W
    on B's coordinates, one pair rule (``_pairs``) giving B from the
    reflection R and W from the ring mirror M.  B has a column per pair of
    R, (i, j) -> (i, ny-1-j), then, if even, one per R's fixed point, a
    center-row site; the full sector's B is the identity.  M maps B's
    column at (i, j) to the one at (nx-1-i, j), M b_p = b_q, and W turns a
    pair p < q into (b_p + b_q)/sqrt(2) in column p and
    i (b_p - b_q)/sqrt(2) in column q; a column M fixes stays.  A uniform
    flux is odd under complex conjugation K and under M, so Theta commutes
    with H and H restricts to a real symmetric block; an operator without
    that symmetry keeps its exact spectrum and merely stays complex.
    Odd-sector states vanish on the center row: the nodal states on the
    middle circle.

    Raises ValueError for a name not in ``SECTORS``, and LatticeError
    where a parity sector does not exist: ny even (no center row), or the
    odd sector of a one-row strip, which is empty.  The basis is built once
    per lattice and sector in a process, and shared read-only.
    """
    n = lat.n_sites
    grid = np.arange(n).reshape(lat.nx, lat.ny)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    if sector != FULL and lat.center_row == 0 and sector == ODD:  # center_row refuses even ny
        raise LatticeError("the odd sector of a one-row strip is empty")
    # B: (e_lo +/- e_hi)/sqrt(2) for each pair of R, then R's fixed points, the center row, if
    # even; the full sector's involution is the identity, whose fixed points are every site
    lo, hi, fixed = _pairs((grid if sector == FULL else grid[:, ::-1]).reshape(-1))
    fixed = fixed[:0] if sector == ODD else fixed
    kept = np.concatenate([lo, fixed])  # each column's first site
    p = np.arange(kept.size)  # a pair's two sites share its column
    r = np.full(lo.size, inv_sqrt2)
    b = sp.coo_matrix((np.concatenate([r, -r if sector == ODD else r, np.ones(fixed.size)]),
                       (np.concatenate([lo, hi, fixed]), np.concatenate([p[:lo.size], p]))),
                      shape=(n, p.size)).tocsc()
    # W: the pairs of M on B's columns, which M maps among themselves, through the column map
    column = np.empty(n, dtype=np.intp)
    column[kept] = p
    lo, hi, fixed = _pairs(column[grid[::-1].reshape(-1)[kept]])
    s = np.full(lo.size, inv_sqrt2)
    w = sp.coo_matrix((np.concatenate([s, s, 1j * s, -1j * s, np.ones(fixed.size)]),
                       (np.concatenate([lo, hi, lo, hi, fixed]),
                        np.concatenate([lo, lo, hi, hi, fixed]))), shape=(p.size, p.size))
    return SectorIsometry(lattice=lat, parity=sector, matrix=_frozen(b @ w.tocsc()))


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
    b = iso.matrix.tocsr()
    mb = m @ b
    block = iso.matrix.conj().T @ mb
    return block, float(abs(mb - b @ block).max())


def _sector_blocks(iso: SectorIsometry, matrices) -> tuple:
    """The blocks B^dagger M B laid on one pattern, as ``_Pattern.of_matrices``; the leak is
    linear in M, so theirs are summed and checked once, against their largest entry's bound."""
    blocks, leaks = zip(*(_project(m, iso) for m in matrices))
    leak = sum(leaks)
    if leak > _round_off_bound(max(_max_abs(m.data) for m in matrices)):
        raise SymmetryViolationError(f"operator couples even and odd sectors (leak {leak:.3e})")
    return _Pattern.of_matrices(blocks, iso.dim)


class FluxPencil:
    """One sector's uniform-flux operator H(f) = R + cos(phi) X + sin(phi) Y.

    phi = 2*pi*f/nx is the angle on every x link, R the diagonal plus the
    rungs, X = -tx (S + S^T) and Y = -i tx (S - S^T), S the +x link
    incidence.  The pieces are laid on ``assemble``'s pattern, each 0 on
    the links it does not hold, and projected once by ``_sector_blocks``
    onto one shared pattern, float64 blocks in the mirror basis, checked
    and symmetrized there, once; ``at(f)`` combines their data in real
    arithmetic and checks only its entries: finite, at most 1e150.  Each
    point's CSR arrays are bit for bit those of the unsymmetrized pieces
    combined, then symmetrized.
    """

    def __init__(self, iso: SectorIsometry, hop: HoppingParams):
        lat = iso.lattice
        pieces = (_link_values(lat, 2.0 * hop.tx + 2.0 * hop.ty, 0.0, -hop.ty),
                  _link_values(lat, 0.0, -hop.tx, 0.0),
                  _link_values(lat, 0.0, -1j * hop.tx, 0.0))
        pattern, order = _link_layout(lat)
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


@_per_process
def sector_pencil(lat: StripLattice, sector: str, hop: HoppingParams) -> FluxPencil:
    """``FluxPencil(sector_isometry(lat, sector), hop)``, cached, its data read-only: built
    once per band, sector and hopping, whatever number of sweeps solves it."""
    pencil = FluxPencil(sector_isometry(lat, sector), hop)
    pencil._data.setflags(write=False)
    return pencil
