"""Magnetic tight-binding Hamiltonian and reflection-parity sectors.

Units: hbar = 1, lattice spacing 1, and the hopping energy t = 1/(2 m a^2)
absorbs the particle mass, so energies are reported in units of the x
hopping.  The discrete kinetic term puts 2*tx + 2*ty on every diagonal
(also at Dirichlet walls, where the missing neighbor simply contributes
no hop) and -t * exp(i*theta) on every existing link, theta being the
gauge field's Peierls angle for the hop direction.

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
sector's coordinates, e_s on a fixed column.  It is a unitary similarity
for any operator, so an input without the mirror symmetry (a
gauge-transformed field, say) keeps its exact spectrum and merely stays
complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .gauge import GaugeField
from .lattice import LatticeError, StripLattice

FULL = "full"
EVEN = "even"
ODD = "odd"
SECTORS = (FULL, EVEN, ODD)

_HERM_BUILD_TOL = 1e-12
_SECTOR_LEAK_TOL = 1e-12


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


class SparseHermitian:
    """Sparse matrix with exact Hermitian symmetry.

    Construction verifies max |H - H^dagger| <= 1e-12 and then stores the
    exactly symmetrized (H + H^dagger)/2, whose Hermiticity holds
    entrywise in floating point, with a real diagonal.  It is stored as
    float64 when every imaginary part is exactly 0.0, so solvers run in
    real arithmetic; nothing is rounded to get there.
    """

    def __init__(self, matrix):
        m = sp.csr_matrix(matrix, dtype=complex)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix is {m.shape}, not square")
        defect = m - m.conj().T
        if defect.nnz and np.max(np.abs(defect.data)) > _HERM_BUILD_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max defect {np.max(np.abs(defect.data)):.3e}"
            )
        m = ((m + m.conj().T) * 0.5).tocsr()
        m.sum_duplicates()
        self._csr = m if np.any(m.data.imag) else m.real

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
        if v.shape != (n,):
            raise LatticeError(f"potential has {v.size} entries, lattice has {n} sites")
        if not np.all(np.isfinite(v)):
            raise LatticeError("potential must be finite")
    ids = np.arange(n)
    x_hop = -hop.tx * np.exp(1j * field.theta_x.reshape(-1))
    # each link (u -> v) enters as H[v, u] = -t exp(i theta) and its conjugate at H[u, v]
    rows = [ids, lat.x_next, ids]
    cols = [ids, ids, lat.x_next]
    vals = [2.0 * hop.tx + 2.0 * hop.ty + v, x_hop, np.conj(x_hop)]
    if hop.ty != 0.0:
        below = ids.reshape(lat.nx, lat.ny)[:, :-1].reshape(-1)
        y_hop = -hop.ty * np.exp(1j * field.theta_y.reshape(-1))
        rows += [below + 1, below]
        cols += [below, below + 1]
        vals += [y_hop, np.conj(y_hop)]
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return SparseHermitian(coo)


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
    sites, so orthonormality holds to round-off.
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


def sector_isometry(lat: StripLattice, sector: str) -> SectorIsometry:
    """Isometry onto a sector ("full", "even" or "odd") whose columns Theta = M K fixes.

    It is the parity basis B times Theta's real basis on B's coordinates:
    M permutes B's columns, M b_p = b_q, and a pair p < q becomes
    (b_p + b_q)/sqrt(2) in column p and i (b_p - b_q)/sqrt(2) in column q;
    a column M fixes stays.  An operator commuting with Theta restricts to
    a real symmetric one.

    Raises LatticeError where a parity sector does not exist: ny even (no
    center row), or the odd sector of a one-row strip, which is empty.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    if sector == FULL:
        b = sp.identity(lat.n_sites, format="csc")
    else:
        c = lat.center_row
        if sector == ODD and c == 0:
            raise LatticeError("the odd sector of a one-row strip is empty")
        sign = 1.0 if sector == EVEN else -1.0
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        grid = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)
        below = grid[:, :c].reshape(-1)
        pairs = np.arange(below.size)
        rows = [below, reflection_permutation(lat)[below]]
        cols = [pairs, pairs]
        vals = [np.full(below.size, inv_sqrt2), np.full(below.size, sign * inv_sqrt2)]
        if sector == EVEN:
            rows.append(grid[:, c])
            cols.append(below.size + np.arange(lat.nx))
            vals.append(np.ones(lat.nx))
        b = sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(lat.n_sites, pairs.size + (lat.nx if sector == EVEN else 0)),
        )
    mirror = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[::-1].reshape(-1)
    # column p of B^T (M B) is e_q where M b_p = b_q: one entry per column
    partner = (b.T @ b[mirror]).tocsc().indices
    p = np.arange(b.shape[1])
    lo, fixed = p < partner, p == partner
    a, q = p[lo], partner[lo]
    s = np.full(a.size, 1.0 / np.sqrt(2.0))
    w = sp.csc_matrix(
        (np.concatenate([s, s, 1j * s, -1j * s, np.ones(np.count_nonzero(fixed))]),
         (np.concatenate([a, q, a, q, p[fixed]]), np.concatenate([a, a, q, q, p[fixed]]))),
        shape=(p.size, p.size),
    )
    return SectorIsometry(lattice=lat, parity=sector, matrix=b @ w)


def restrict(h: SparseHermitian, iso: SectorIsometry) -> SparseHermitian:
    """Project the operator into one sector, B^dagger H B.

    Refuses operators that couple the sectors: the leak H B - B (B^dagger H B),
    which is H B's component outside the sector, must vanish to 1e-12 in
    max magnitude.  That is the numerical form of requiring
    reflection-symmetric angles and potential.
    """
    if h.n != iso.lattice.n_sites:
        raise ValueError(f"operator dimension {h.n} != lattice size {iso.lattice.n_sites}")
    hb = h.csr @ iso.matrix
    block = iso.matrix.conj().T @ hb
    leak = float(abs(hb - iso.matrix @ block).max())
    if leak > _SECTOR_LEAK_TOL:
        raise SymmetryViolationError(f"operator couples even and odd sectors (leak {leak:.3e})")
    return SparseHermitian(block)
