"""Lowest eigenpairs of sparse Hermitian operators, with certification.

Two routes, both in the operator's own dtype, so a real operator is
solved in real arithmetic: ``dense_eigh``, scipy's ``eigh`` on a
column-major copy it may overwrite, the reference at small dimension,
and ``lanczos_lowest``, shift-invert Lanczos on a banded Cholesky factor
(SuperLU past a half-bandwidth of 120; ``_definite_factor``), certified
complete by an inertia count on the same band, a block L D L^H at every
half-bandwidth; ``solve`` picks.  The shift-invert factor and the count
read one reverse Cuthill-McKee layout per sparsity pattern, cached on the
operator's own pattern (``_layout(h.pattern)``); ``dense_eigh`` reads
none.  SuperLU's factor is of the plain sparse difference H - sigma I.
Residuals ||H v - lambda v|| are always recomputed from the returned
pairs; eigenvectors of degenerate eigenvalues are ambiguous beyond
orthonormality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .hamiltonian import ROUND_OFF, SparseHermitian

_DENSE_MAX_N = 4096
_AUTO_DENSE_N = 1024
# the widest half-bandwidth the shift-invert factor takes as a band, from whole Lanczos
# solves of Moebius bands (one BLAS thread): the band took 0.87-0.96 of SuperLU's time up
# to b = 118, tied at 122-134 and mostly lost from 138 (1.44 at 202).  In the tie SuperLU
# holds half the band's (b + 1) n entries, a gap that widens with b
_MAX_BAND = 120
# the count's narrowest block: blocks as narrow as a narrow band are too many calls (1,200-site
# ring, b = 3: 1.51 ms in blocks of 3, 0.79 in blocks of 16, SuperLU 0.69), while wider blocks
# cost more flops (1.14 ms in blocks of 24; b = 8: 0.60 in blocks of 8, 0.51 of 16, 0.58 of 24)
_MIN_BLOCK = 16
# half the digits of a double: the relative margin of the shift below the
# spectrum, and the growth an inertia count tolerates
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

METHODS = ("dense", "lanczos", "auto")


def _budget(n: int) -> int:
    """Factor solves a Lanczos solve of dimension n may take."""
    return 10 * n


class NoConvergenceError(RuntimeError):
    """Iterative solve not certified: the budget ran out, the count was short or not trusted,
    or a residual missed the gate.  It carries its message only."""


@dataclass(frozen=True)
class SolverConfig:
    k: int = 6
    tol: float = 1e-10
    seed: int = 2024
    method: str = "auto"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
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
        """The k lowest values, with their vectors and residuals where they were solved."""
        return EigenResult(*(a if a is None else a[..., :k]
                             for a in (self.values, self.vectors, self.residuals)))


def _finalize(h: SparseHermitian, values: np.ndarray, vectors: np.ndarray) -> EigenResult:
    vectors = vectors / np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(h.csr @ vectors - vectors * values, axis=0)
    for arr in (values, vectors, residuals):
        arr.setflags(write=False)
    return EigenResult(values=values, vectors=vectors, residuals=residuals)


def dense_eigh(h: SparseHermitian, k: Optional[int] = None, *,
               values_only: bool = False) -> EigenResult:
    """k lowest eigenpairs (None: all n) by a dense direct solve; n <= 4096.

    The reference path: scipy's ``eigh`` with LAPACK's index-range driver
    (dsyevr or zheevr) on a column-major copy of the operator, which it may
    overwrite, unscanned: every ``SparseHermitian`` is checked finite when
    it is built.  Only the requested pairs and their residuals are computed.
    For k < n the driver finds the values by bisection (stebz) and only
    then, if asked, the vectors by inverse iteration (stein), so with
    values_only only the k values are solved, bit for bit those of the
    vector solve; for k = n it takes other routes, whose values differ in
    the last bits, so there the pairs are solved.  A failed solve raises
    eigh's LinAlgError.
    """
    from scipy.linalg import eigh

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
    result = eigh(a, subset_by_index=[0, k - 1], driver="evr", eigvals_only=values_only,
                  overwrite_a=True, check_finite=False)
    if values_only:
        result.setflags(write=False)
        return EigenResult(values=result, vectors=None, residuals=None)
    return _finalize(h, *result)


def _gershgorin(h: SparseHermitian) -> tuple:
    """Interval (lo, hi) holding every eigenvalue of h: the union of its Gershgorin discs."""
    diag = h.csr.diagonal().real
    radius = np.asarray(abs(h.csr).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


class _Layout(NamedTuple):
    """The reverse Cuthill-McKee band of one sparsity pattern; every array is read-only.

    Row i of the band is row perm[i] of H, row j of H is row order[j] of
    the band, and width is the band's half-bandwidth.  A scatter is a pair
    (slots, positions): entry slots[k] of the CSR data goes to flat
    position positions[k].  ``upper`` fills LAPACK's upper band storage,
    (width + 1) x n column-major (``_definite_factor``).  ``pieces`` fills
    the count's blocks (``_count_below``): the band cut into block x block
    pieces, the last block padded, and block >= width, so the matrix is
    block tridiagonal; piece 2j is diagonal block j, piece 2j + 1 the
    block below it, each column-major.
    """

    perm: np.ndarray
    order: np.ndarray
    width: int
    upper: tuple
    block: int
    pieces: tuple


@functools.lru_cache(maxsize=16)
def _layout(pattern) -> _Layout:
    """The band layout of an operator's pattern (``SparseHermitian.pattern``), built once per
    pattern: the cache holds the pattern itself, which hashes by identity."""
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    csr, n = pattern.template, pattern.template.shape[0]
    perm = reverse_cuthill_mckee(csr, symmetric_mode=True)  # reads the index arrays only
    order = np.argsort(perm)
    rows = order[np.repeat(np.arange(n), np.diff(csr.indptr))]
    cols = order[csr.indices]
    width = int(np.max(cols - rows, initial=0))  # H's pattern is closed under transposition
    upper = np.flatnonzero(rows <= cols)
    block = max(width, _MIN_BLOCK)
    lower = np.flatnonzero(rows // block >= cols // block)
    piece = (rows // block + cols // block)[lower]  # 2j in diagonal block j, 2j + 1 below it
    arrays = (perm, order, upper, (rows + width * (cols + 1))[upper], lower,
              (piece * block + cols[lower] % block) * block + rows[lower] % block)
    for arr in arrays:
        arr.setflags(write=False)
    return _Layout(perm, order, width, arrays[2:4], block, arrays[4:])


@functools.lru_cache(maxsize=16)
def _block_routines(dtype: np.dtype, block: int) -> tuple:
    """The routines of the band count for dtype: LAPACK's Cholesky (?potrf) and Bunch-Kaufman
    factor-and-solve (?sysv or ?hesv), BLAS's ?trsm, ?syrk or ?herk, and ?gemm, and the
    Bunch-Kaufman workspace at block."""
    from scipy.linalg.blas import get_blas_funcs
    from scipy.linalg.lapack import get_lapack_funcs

    name = "sy" if dtype == np.float64 else "he"
    potrf, sv, query = get_lapack_funcs(("potrf", name + "sv", name + "sv_lwork"), dtype=dtype)
    return (potrf, sv, *get_blas_funcs(("trsm", name + "rk", "gemm"), dtype=dtype),
            int(query(block, lower=1)[0].real))


def _count_below(h: SparseHermitian, cut: float, norm: float) -> Optional[int]:
    """Number of eigenvalues of H below cut, by Sylvester's law of inertia; None if untrusted.

    norm bounds ||H - cut I||.  The count is read off a block L D L^H on
    the band: A = P (H - cut I) P^T is block tridiagonal, with diagonal
    blocks A_j and blocks C_j below them (``_Layout``); the padded rows
    hold norm on the diagonal, which adds no negative eigenvalue.  Its
    inertia is the sum of the inertias of S_1 = A_1 and
    S_{j+1} = A_{j+1} - C_j S_j^{-1} C_j^H (Haynsworth).  Where S_j has a
    Cholesky factor L L^H it has no negative eigenvalue, and
    C_j S_j^{-1} C_j^H = W^H W with W = L^{-1} C_j^H: at a cut low in the
    spectrum most blocks are so (17 of 23 at 48 x 25).  Any other S_j's
    inertia is that of the block diagonal D of its Bunch-Kaufman factor
    L D L^H, on which S_j^{-1} C_j^H is solved, and is read off its pivots:
    a 1 x 1 pivot counts by its sign, and a 2 x 2 pivot, whose two rows
    LAPACK marks with negative ipiv, has exactly one negative eigenvalue.
    The pivot rule takes a 2 x 2 pivot [[a, b*], [b, c]] only where
    |a c| < alpha^2 omega^2 with alpha = (1 + sqrt(17)) / 8, omega its
    column's largest entry |b|, so its determinant a c - |b|^2 < 0 (Bunch
    & Kaufman, Math. Comp. 31, 163-179 (1977); ?hetrf measures omega by
    |Re b| + |Im b|, and there |a c| < 0.82 |b|^2).  Neither forms
    an explicit inverse: its rounding reaches beyond S_j's near null space,
    which C_j annihilates at a degenerate level, and there it flipped signs
    in the next block.  Every block, the last one too, is factored by
    this one rule, Cholesky where it is definite: past the last block the
    buffer holds two zero pieces, its C_m and the S_{m+1} that C_m would
    update, so the last step's solve and update leave zeros, counted by
    no factor.  The count is not trusted where a Bunch-Kaufman factor is
    exactly singular (info != 0), as at a cut on an eigenvalue, or an
    entry of a Schur complement or of a factor exceeds
    norm / sqrt(eps): a pivot near zero makes later entries grow until
    rounding swamps the signs of later pivots.  Where it returns None the
    caller may count the dense spectrum (``_dense_count``).
    """
    layout = _layout(h.pattern)
    csr, s = h.csr, layout.block
    m = -(-h.n // s)
    slots, positions = layout.pieces
    data = np.zeros((2 * m + 1) * s * s, dtype=csr.dtype)
    data[positions] = csr.data[slots]
    diagonal = data.reshape(-1, s * s)[:2 * m:2, ::s + 1]
    diagonal -= cut
    diagonal[-1, h.n - (m - 1) * s:] = norm
    pieces = data.reshape(-1, s, s).transpose(0, 2, 1)  # each piece in Fortran order
    potrf, sv, trsm, rk, gemm, lwork = _block_routines(csr.dtype, s)
    adjoint = 1 if csr.dtype == np.float64 else 2
    negatives, growth = 0, 0.0
    for j in range(m):
        below, after = pieces[2 * j + 1], pieces[2 * j + 2]
        factor, info = potrf(pieces[2 * j], lower=1, clean=0)
        if info == 0:  # S_{j+1} -= W^H W, in place on its lower triangle, the one read
            rk(-1.0, trsm(1.0, factor, below.conj().T, lower=1), 1.0, after, trans=adjoint,
               lower=1, overwrite_c=1)
        else:
            factor, pivots, solved, info = sv(pieces[2 * j], below.conj().T, lower=1,
                                              lwork=lwork)
            if info != 0:
                return None
            gemm(-1.0, below, solved, 1.0, after, overwrite_c=1)  # S_{j+1}, in place
            # a 1 x 1 pivot counts by its sign; a 2 x 2 one, on two rows of negative ipiv, as one
            singles = factor.diagonal().real[pivots > 0]
            negatives += np.count_nonzero(singles < 0) + np.count_nonzero(pivots < 0) // 2
        growth = np.maximum(growth, np.max(np.abs(factor)))
    if not max(np.max(np.abs(data)), growth) * _SQRT_EPS <= norm:
        return None
    return int(negatives)


def _definite_factor(h: SparseHermitian, sigma: float):
    """The solve x = (H - sigma I)^{-1} v of a factor of the positive definite H - sigma I,
    for a vector or a block of columns.

    LAPACK's banded Cholesky (?pbtrf, ?pbtrs) on H's reverse Cuthill-McKee
    band (``_layout``) where its half-bandwidth b is at most ``_MAX_BAND``
    (a strip's is about twice its short side).  It factors the permuted
    matrix's upper band, ab[b + i - j, j] = A[i, j]: LAPACK's default,
    whose two triangular solves took 44 us against the lower band's 62 at
    b = 52 (OpenBLAS, one thread); a nonzero info raises
    NoConvergenceError.  The solve permutes its right-hand side in and the
    answer out.  On a wider band SuperLU, no slower there and holding
    less, factors the sparse difference H - sigma I, which drops H's
    explicit zeros, in symmetric mode with diagonal pivots, stable on a
    definite matrix.  Those options are kept as they are: they fix the
    rounding, and so the printed digits, of every solve on a wide band.
    """
    layout = _layout(h.pattern)
    if layout.width > _MAX_BAND:
        from scipy.sparse.linalg import splu

        a = (h.csr - sigma * sp.identity(h.n, dtype=h.csr.dtype, format="csr")).tocsc()
        return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True}).solve
    from scipy.linalg.lapack import get_lapack_funcs

    slots, positions = layout.upper
    ab = np.zeros((h.n, layout.width + 1), dtype=h.csr.dtype)
    ab.reshape(-1)[positions] = h.csr.data[slots]
    ab = ab.T  # (width + 1) x n in Fortran order
    ab[layout.width] -= sigma
    pbtrf, pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=ab.dtype)
    factor, info = pbtrf(ab, overwrite_ab=1)
    if info != 0:
        raise NoConvergenceError(f"banded Cholesky failed: LAPACK info = {info}")
    return lambda v: pbtrs(factor, v[layout.perm])[0][layout.order]


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

    A Krylov method can skip copies of a degenerate eigenvalue (routine at
    half-integer flux) while every residual it reports is tiny, so an
    answer counts only once a Sylvester inertia count shows that no
    eigenvalue below its top value was missed.
    sigma sits a sqrt(eps) * (hi - lo) step below h's Gershgorin interval
    [lo, hi], so H - sigma I is positive definite and is factored once, by
    one function with two routes (``_definite_factor``): LAPACK's banded
    Cholesky on H's reverse Cuthill-McKee order, where that half-bandwidth
    is at most 120, as a strip's short side keeps it, and SuperLU above,
    where it is no slower.  H - cut I is indefinite, so each count factors
    it anew (``_count_below``), its norm bounded by the Gershgorin
    interval: a block L D L^H of Cholesky and Bunch-Kaufman factors on the
    same band, at every half-bandwidth; the order and the band's index
    arrays are built once per sparsity pattern, cached on the operator's
    pattern (``_layout(h.pattern)``).
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
    cuts before the dense count; a re-solve whose bound theta_max + ||R||
    lies below the cut counted before takes that count, with no new
    factorization.  The count comes before the gate, which the solve's
    values must then all meet: at a highly degenerate level, where
    Rayleigh-Ritz can leave a copy's residual above it, inverse-iteration
    steps on the factor refine the block while the budget lasts and the
    worst residual still falls.
    The factor solves are capped at 10 n (``_budget``); every failure raises
    NoConvergenceError, which carries only its message.  k >= n - 1, beyond
    ARPACK, goes to the dense solver.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n, k = h.n, cfg.k
    if k > n:
        raise ValueError(f"k={k} exceeds dimension n={n}")
    rng = np.random.default_rng(cfg.seed)
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    v0 = re + 1j * im if np.iscomplexobj(h.csr) else re
    budget = _budget(n)
    lo, hi = _gershgorin(h)
    # the floors keep a multiple of the identity (lo == hi) off its eigenvalue, and sigma
    # a few units in the last place of lo below it where the diagonal dwarfs the width
    sigma = lo - _SQRT_EPS * max(hi - lo, 1.0, 4.0 * _SQRT_EPS * abs(lo))
    factor_solve = _definite_factor(h, sigma)
    # a pivot's rounding grows as eps ||H||^2 / d at a distance d from an eigenvalue, and the
    # first cut sits within ~||R|| of one: 100 sqrt(eps) ||H|| higher it is ~1% of the bound
    retry = 100.0 * _SQRT_EPS * (hi - sigma)
    round_off = ROUND_OFF * max(abs(lo), abs(hi))  # the rounding of a computed bound
    floor = min(cfg.tol, ROUND_OFF) * max(abs(lo), abs(hi))
    solves = 0

    def inverse(v):
        nonlocal solves
        if solves >= budget:
            raise NoConvergenceError("factor-solve budget exhausted")
        solves += 1
        return factor_solve(v)

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
                f"Lanczos did not reach tol={cfg.tol} within {budget} factor solves") from None

    want, counted = k, -np.inf
    res = ritz(want)
    while True:
        gate = max(cfg.tol * max(1.0, float(np.max(np.abs(res.values)))), floor)
        # Ritz value i is >= lambda_i and within ||R|| of a distinct eigenvalue (Kahan), so
        # `want` eigenvalues lie at or below bound = theta_max + ||R||, and exactly `want`
        # below a cut above it means none was skipped, as at any higher cut: where the count
        # at this one is not trusted, one or two higher ones are tried before the dense count.
        # A re-solve whose bound lies below the cut counted before needs no count: exactly
        # `want` eigenvalues lie below that cut, so the `want` its Ritz values find there
        # are the lowest
        bound = res.values[-1] + np.linalg.norm(res.residuals)
        if bound + round_off >= counted:
            cut = bound + gate
            for counted in (cut, cut + retry, cut + 100.0 * retry):
                count = _count_below(h, counted, max(hi - counted, counted - lo))
                if count is not None:
                    break
            else:
                counted = cut
                try:
                    count = _dense_count(h, cut)
                except np.linalg.LinAlgError as exc:
                    raise NoConvergenceError(f"completeness not certified: {exc}") from None
            if count < want:
                raise NoConvergenceError(f"inertia count {count} < {want} values")
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
            refined = _rayleigh_ritz(h, factor_solve(res.vectors), want)
            if np.max(refined.residuals) < np.max(res.residuals):
                res = refined
                continue
        raise NoConvergenceError(f"Lanczos residuals exceed tol={cfg.tol}")


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
