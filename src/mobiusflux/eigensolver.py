"""Lowest eigenpairs of sparse Hermitian operators, with certification.

Two routes: a dense direct solve (LAPACK) for reference accuracy at small
dimension, and shift-invert Lanczos (ARPACK) for larger problems.
The dense route computes only the k lowest pairs asked for, by LAPACK's
index-range driver (dsyevr/zheevr): full accuracy at a fraction of the cost
of all n.  For k < n that driver finds the values by bisection (stebz) and
only then, if asked, the vectors by inverse iteration (stein), so a
values-only solve returns the same values bit for bit; for k = n it takes
other routes for values (sterf) and for vectors (MRRR, stemr), whose values
differ in the last bits, so there the values-only mode solves for vectors.
It calls that driver directly, with the arguments scipy's ``eigh`` would
pass and its workspace sized once per dtype and n, and hands it one
column-major dense copy to overwrite in place, with no finiteness scan:
``SparseHermitian`` refuses non-finite entries when built.
A real operator is symmetric entry by entry, so that copy is its row-major
array, transposed.
The iterative route shifts just below the spectrum's Gershgorin bound, where
H - sigma I is positive definite, and iterates with solves on its sparse
factor: the lowest eigenvalues of H are the best separated ones of the
inverse, so a few dozen solves do the work of hundreds of matvecs.
A Krylov method can skip copies of a degenerate eigenvalue (routine at
half-integer flux) while every residual it reports is tiny, so an
iterative answer counts only once a Sylvester inertia count shows that no
eigenvalue below its top value was missed.  The shift-invert solves and the
counts use one symmetric-mode sparse factorization, set up once per solve:
each shift is a data update on the diagonal of one CSC copy of H, read off
its CSR arrays (H is Hermitian entry by entry, so a row conjugated is the
column).  Residuals
||H v - lambda v|| are always recomputed from the returned pairs;
eigenvectors of degenerate eigenvalues are ambiguous beyond orthonormality.
Both routes work in the operator's own dtype, so a real symmetric operator
(see ``hamiltonian.sector_isometry``) is solved in real arithmetic: dsyevr
in place of zheevr, and real ARPACK on a real factor.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .hamiltonian import ROUND_OFF, SparseHermitian

_DENSE_MAX_N = 4096
_AUTO_DENSE_N = 1024
# half the digits of a double: the relative margin of the shift below the
# spectrum, and the pivot imaginary part and growth an inertia count tolerates
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

METHODS = ("dense", "lanczos", "auto")


class NoConvergenceError(RuntimeError):
    """Iterative solve not certified in budget; carries the best pairs found."""

    def __init__(self, message: str, best: Optional["EigenResult"] = None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class SolverConfig:
    k: int = 6
    tol: float = 1e-10
    max_iter: Optional[int] = None  # Lanczos factor-solve budget; None -> 10 * n
    seed: int = 2024
    method: str = "auto"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues, unit-norm eigenvectors (columns), residuals; a values-only
    solve leaves vectors and residuals None."""

    values: np.ndarray
    vectors: Optional[np.ndarray]
    residuals: Optional[np.ndarray]

    @property
    def k(self) -> int:
        return len(self.values)

    def lowest(self, k: int) -> "EigenResult":
        return EigenResult(self.values[:k], self.vectors[:, :k], self.residuals[:k])


def _finalize(h: SparseHermitian, values: np.ndarray, vectors: np.ndarray) -> EigenResult:
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(h.csr @ vectors - vectors * values, axis=0)
    for arr in (values, vectors, residuals):
        arr.setflags(write=False)
    return EigenResult(values=values, vectors=vectors, residuals=residuals)


@functools.lru_cache(maxsize=16)
def _evr(dtype: np.dtype, n: int) -> tuple:
    """LAPACK's index-range driver for dtype, dsyevr or zheevr, and its workspace sizes at n."""
    from scipy.linalg.lapack import _compute_lwork, get_lapack_funcs

    name, sizes = (("syevr", ("lwork", "liwork")) if dtype == np.float64
                   else ("heevr", ("lwork", "lrwork", "liwork")))
    driver, query = get_lapack_funcs((name, name + "_lwork"), dtype=dtype)
    return driver, dict(zip(sizes, _compute_lwork(query, n=n, lower=1)))


def dense_eigh(h: SparseHermitian, k: Optional[int] = None, *,
               values_only: bool = False) -> EigenResult:
    """k lowest eigenpairs (None: all n) by a dense direct solve; n <= 4096.

    The reference path; only the requested pairs and their residuals are computed.
    With values_only and k < n, only the k values: bit for bit the values of
    the vector solve (see the module docstring); at k = n the pairs are solved.
    dsyevr or zheevr, called directly with ``scipy.linalg.eigh``'s arguments
    (so its values and vectors bit for bit), overwrites the one column-major
    copy it is handed, unscanned: every ``SparseHermitian`` is checked
    finite when it is built.  A nonzero info raises LinAlgError.
    """
    if h.n > _DENSE_MAX_N:
        raise ValueError(f"dense path limited to n <= {_DENSE_MAX_N}, got {h.n}")
    k = h.n if k is None else k
    if not 1 <= k <= h.n:
        raise ValueError(f"k must lie in [1, n={h.n}], got {k}")
    values_only = values_only and k < h.n
    csr = h.csr
    # a real store is symmetric entry by entry, so its row-major array is its column-major
    # one, with no CSC conversion; a complex one's would be its conjugate
    a = csr.toarray().T if csr.dtype == np.float64 else csr.toarray(order="F")
    driver, lwork = _evr(csr.dtype, h.n)
    values, vectors, m, _, info = driver(a, compute_v=0 if values_only else 1, range="I",
                                         lower=1, il=1, iu=k, overwrite_a=1, **lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"dense eigensolver failed: LAPACK info = {info}")
    values = values[:m]
    if values_only:
        values.setflags(write=False)
        return EigenResult(values=values, vectors=None, residuals=None)
    return _finalize(h, values, vectors[:, :m])


def residual_report(h: SparseHermitian, res: EigenResult) -> np.ndarray:
    """Recompute ||H v - lambda v||_2 independently of the solver."""
    if res.vectors.shape[0] != h.n:
        raise ValueError(f"vectors have dimension {res.vectors.shape[0]}, operator has {h.n}")
    return np.linalg.norm(h.csr @ res.vectors - res.vectors * res.values, axis=0)


def _gershgorin(h: SparseHermitian) -> tuple:
    """Interval (lo, hi) holding every eigenvalue of h: the union of its Gershgorin discs."""
    diag = h.csr.diagonal().real
    radius = np.asarray(abs(h.csr).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


class _Shifts:
    """H's Gershgorin interval and a CSC copy of H with its diagonal slots.

    Built once per solve from H's CSR arrays, with no sort: H's store holds
    every diagonal slot, so each factor of H - sigma I is a data update on
    them.  Off the diagonal it drops H's explicit zeros, as the sparse
    difference H - sigma I does.
    """

    def __init__(self, h: SparseHermitian):
        self.lo, self.hi = _gershgorin(h)
        n, csr = h.n, h.csr
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        keep = (csr.indices == rows) | (csr.data != 0)
        rows, cols, data = rows[keep], csr.indices[keep], csr.data[keep]
        # H is Hermitian entry by entry, so row j of its CSR, conjugated, is column j of its CSC
        self._diag = csr.diagonal()
        self._csc = sp.csc_matrix((data.conj(), cols, np.searchsorted(rows, np.arange(n + 1))),
                                  shape=(n, n))
        self._slots = np.flatnonzero(cols == rows)

    def factor(self, sigma: float):
        """Sparse LU of H - sigma I by SuperLU in symmetric mode with diagonal pivots.

        When the pivots stay diagonal (perm_r == perm_c) it is the congruence
        P (H - sigma I) P^T = L D L^H with D the diagonal of U.
        """
        from scipy.sparse.linalg import splu

        self._csc.data[self._slots] = self._diag - sigma  # the factor keeps no reference to it
        return splu(self._csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})

    def count_below(self, sigma: float) -> Optional[int]:
        """Number of eigenvalues of H below sigma, by Sylvester's law of inertia; None if untrusted.

        D's negative entries in the factor L D L^H of H - sigma I are the
        count.  Diagonal pivots are not stable on an indefinite matrix: a
        pivot near zero makes later entries grow until rounding swamps the
        signs of later pivots.  So the count is trusted only if the pivots
        stayed on the diagonal, are real to within sqrt(eps) ||H - sigma I||
        (exactly real in exact arithmetic) and no entry of U exceeds
        ||H - sigma I|| / sqrt(eps).  Where it is not, or sigma is an
        eigenvalue so the factor is exactly singular, it returns None, and
        the caller may count the dense spectrum (``_dense_count``).
        """
        try:
            lu = self.factor(sigma)
        except RuntimeError:  # SuperLU's "Factor is exactly singular": sigma is an eigenvalue
            return None
        norm = max(self.hi - sigma, sigma - self.lo)  # bounds ||H - sigma I||
        u = lu.U
        pivots = u.diagonal()
        if (np.array_equal(lu.perm_r, lu.perm_c)
                and np.max(np.abs(pivots.imag)) <= _SQRT_EPS * norm
                and np.max(np.abs(u.data)) * _SQRT_EPS <= norm):
            return int(np.count_nonzero(pivots.real < 0))
        return None


def _dense_count(h: SparseHermitian, sigma: float) -> int:
    """Number of eigenvalues of h below sigma from the dense spectrum; n <= 4096."""
    if h.n > _DENSE_MAX_N:
        raise np.linalg.LinAlgError(
            f"no trustworthy sparse factor of H - {sigma!r} I, and n={h.n} exceeds "
            f"the dense count's limit {_DENSE_MAX_N}")
    return int(np.count_nonzero(np.linalg.eigvalsh(h.toarray()) < sigma))


def _rayleigh_ritz(h: SparseHermitian, basis: np.ndarray, k: int) -> EigenResult:
    """k lowest Ritz pairs of h on the span of the columns of basis."""
    q, _ = np.linalg.qr(basis)
    theta, s = np.linalg.eigh(q.conj().T @ (h.csr @ q))
    return _finalize(h, theta[:k].copy(), q @ s[:, :k])


def lanczos_lowest(h: SparseHermitian, cfg: SolverConfig) -> EigenResult:
    """k lowest eigenpairs by shift-invert Lanczos, certified complete.

    sigma sits a sqrt(eps) * (hi - lo) step below h's Gershgorin interval
    [lo, hi], so H - sigma I is positive definite and is factored once.
    ARPACK (scipy's eigsh) runs on its inverse, whose largest, best separated
    eigenvalues are the lowest of H, from a seeded start vector (its real
    part on a real operator, which keeps the whole solve real).  ARPACK's
    stop test bounds the residual of the inverse; times ||H - sigma I|| <=
    hi - sigma it bounds the residual on H, so ARPACK gets cfg.tol / (hi - sigma).
    Rayleigh-Ritz makes the vectors orthonormal.  Residuals must meet
    tol * max(1, |lambda|_max), or min(tol, ``ROUND_OFF``) times h's
    Gershgorin bound on ||H|| where that is larger: a residual is never
    below eps ||H||, however small the lowest eigenvalues are against ||H||,
    while a tol below the round-off itself is still held to as asked.  The
    certificate's cut margin is the same gate.  The inertia count just above
    the top value must equal the number of values; a larger count means skipped
    degenerate copies, so the solve is redone for that many.  Where the
    sparse count there is not trusted, it is taken at one or two higher
    cuts before the dense count; a re-solve whose cut lies at or below the
    one counted takes that count, with no new factorization.  The count
    comes before the gate, which the solve's values must then all meet: at
    a highly degenerate level, where Rayleigh-Ritz can leave a copy's
    residual above it, inverse-iteration steps on the factor refine the
    block while the budget lasts and the worst residual still falls.
    cfg.max_iter caps the factor solves; on exhaustion the error carries the
    Ritz pairs of the latest Krylov vectors.  k >= n - 1, beyond ARPACK,
    goes to the dense solver.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, k = h.n, cfg.k
    if k > n:
        raise ValueError(f"k={k} exceeds dimension n={n}")
    rng = np.random.default_rng(cfg.seed)
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    v0 = re + 1j * im if np.iscomplexobj(h.csr) else re
    budget = cfg.max_iter if cfg.max_iter is not None else 10 * n
    shifts = _Shifts(h)
    lo, hi = shifts.lo, shifts.hi
    # the floors keep a multiple of the identity (lo == hi) off its eigenvalue, and sigma
    # a few units in the last place of lo below it where the diagonal dwarfs the width
    sigma = lo - _SQRT_EPS * max(hi - lo, 1.0, 4.0 * _SQRT_EPS * abs(lo))
    # positive definite, so diagonal pivots are stable: no growth check as in count_below
    factor = shifts.factor(sigma)
    # a pivot's rounding grows as eps ||H||^2 / d at a distance d from an eigenvalue, and the
    # first cut sits within ~||R|| of one: 100 sqrt(eps) ||H|| higher it is ~1% of the bound
    retry = 100.0 * _SQRT_EPS * (hi - sigma)
    floor = min(cfg.tol, ROUND_OFF) * max(abs(lo), abs(hi))
    solves = 0
    latest = collections.deque(maxlen=max(k, 20))  # ARPACK's newest Krylov vectors

    def inverse(v):
        nonlocal solves
        if solves >= budget:
            raise NoConvergenceError("factor-solve budget exhausted")
        solves += 1
        latest.append(v.copy())  # v is a view of ARPACK's workspace
        return factor.solve(v)

    op = LinearOperator((n, n), matvec=inverse, dtype=h.csr.dtype)

    def ritz(m):
        """The m lowest Ritz pairs of a shift-invert solve, or the dense ones for m >= n - 1."""
        try:
            if m >= n - 1:
                return dense_eigh(h, m)
            _, vectors = eigsh(h.csr, m, sigma=sigma, which="LM", v0=v0,
                               tol=cfg.tol / (hi - sigma), maxiter=budget, OPinv=op)
            return _rayleigh_ritz(h, vectors, m)
        except (NoConvergenceError, ArpackNoConvergence):
            raise NoConvergenceError(
                f"Lanczos did not reach tol={cfg.tol} within {budget} factor solves",
                best=_rayleigh_ritz(h, np.column_stack(latest), k),
            ) from None

    want, counted = k, -np.inf
    res = ritz(want)
    while True:
        gate = max(cfg.tol * max(1.0, float(np.max(np.abs(res.values)))), floor)
        # Ritz value i is >= lambda_i and within ||R|| of a distinct eigenvalue,
        # so exactly `want` eigenvalues below sigma means none was skipped
        # and so does any higher cut: where the count at this one is not trusted, one or
        # two higher ones are tried before the dense count.  A cut at or below one counted
        # before needs no count: `want` eigenvalues lie below the earlier cut, and the
        # `want` Ritz values put as many below this one
        cut = res.values[-1] + np.linalg.norm(res.residuals) + gate
        if cut > counted:
            for counted in (cut, cut + retry, cut + 100.0 * retry):
                count = shifts.count_below(counted)
                if count is not None:
                    break
            else:
                counted = cut
                try:
                    count = _dense_count(h, cut)
                except np.linalg.LinAlgError as exc:
                    raise NoConvergenceError(f"completeness not certified: {exc}",
                                             best=res.lowest(k)) from None
            if count < want:
                raise NoConvergenceError(f"inertia count {count} < {want} values",
                                         best=res.lowest(k))
            if count > want:  # skipped degenerate copies: solve again for all of them
                want = count
                res = ritz(want)
                continue
        if np.all(res.residuals <= gate):
            return res.lowest(k)
        # at a highly degenerate level Rayleigh-Ritz can leave a copy's residual above the
        # gate: one inverse-iteration step on the factor at hand refines the block, while
        # the budget lasts and the worst residual still falls
        if solves + want <= budget:
            solves += want
            refined = _rayleigh_ritz(h, factor.solve(res.vectors), want)
            if np.max(refined.residuals) < np.max(res.residuals):
                res = refined
                continue
        raise NoConvergenceError(f"Lanczos residuals exceed tol={cfg.tol}", best=res.lowest(k))


def solve(h: SparseHermitian, cfg: SolverConfig, *, values_only: bool = False) -> EigenResult:
    """Dispatch on cfg.method; auto picks dense for n <= 1024.  A k above n is capped at n
    here, so one k serves every sector; ``dense_eigh`` and ``lanczos_lowest`` refuse it.
    values_only reaches the dense route only: Lanczos needs its vectors for the
    Rayleigh-Ritz step, the residual gate and the certificate."""
    if cfg.k > h.n:
        cfg = replace(cfg, k=h.n)
    method = cfg.method
    if method == "auto":
        method = "dense" if h.n <= _AUTO_DENSE_N else "lanczos"
    if method == "dense":
        return dense_eigh(h, cfg.k, values_only=values_only)
    return lanczos_lowest(h, cfg)
