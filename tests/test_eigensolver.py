"""Solver contracts: dense reference, Lanczos agreement, certification."""

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from mobiusflux import eigensolver
from mobiusflux.eigensolver import (
    EigenResult,
    NoConvergenceError,
    SolverConfig,
    dense_eigh,
    lanczos_lowest,
    residual_report,
    solve,
)
from mobiusflux.experiments import SweepConfig, flux_sweep, nodal_amplitude
from mobiusflux.gauge import uniform_flux_field
from mobiusflux.hamiltonian import (
    EVEN,
    ODD,
    FluxPencil,
    HoppingParams,
    SparseHermitian,
    assemble,
    restrict,
    ring_spectrum_oracle,
    sector_isometry,
)
from mobiusflux.lattice import ANNULUS, MOEBIUS, build_lattice


def moebius_operator(nx, ny, f, ty=1.0):
    lat = build_lattice(nx, ny, MOEBIUS)
    return assemble(lat, uniform_flux_field(lat, f), HoppingParams(tx=1.0, ty=ty))


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return SparseHermitian(sp.csr_matrix((a + a.conj().T) / 2))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(method="arnoldi")


def test_dense_one_by_one():
    res = dense_eigh(SparseHermitian(sp.csr_matrix(np.array([[4.2]]))))
    assert_allclose(res.values, [4.2])
    assert abs(abs(res.vectors[0, 0]) - 1.0) < 1e-15
    assert res.residuals[0] < 1e-14


def test_dense_matches_ring_oracle():
    lat = build_lattice(4, 1, ANNULUS)
    h = assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(ty=0.0))
    assert_allclose(dense_eigh(h).values, ring_spectrum_oracle(4, 0.0), atol=1e-10)


def test_dense_residual_certification_on_random_matrix():
    h = random_hermitian(50, seed=12)
    res = dense_eigh(h)
    scale = max(1.0, float(np.max(np.abs(res.values))))
    assert np.all(res.residuals <= 1e-10 * scale)
    assert np.all(residual_report(h, res) <= 1e-10 * scale)


def test_dense_dimension_guard():
    big = SparseHermitian(sp.eye(4097, format="csr", dtype=complex))
    with pytest.raises(ValueError):
        dense_eigh(big)


def test_dense_orthonormality():
    res = dense_eigh(random_hermitian(40, seed=3))
    gram = res.vectors.conj().T @ res.vectors
    assert np.max(np.abs(gram - np.eye(40))) < 1e-10


def strip_operator(topology, f, ty):
    lat = build_lattice(12, 5, topology)
    return assemble(lat, uniform_flux_field(lat, f), HoppingParams(tx=1.0, ty=ty))


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("f", [0.0, 0.5])
@pytest.mark.parametrize("ty", [1.0, 0.01])
def test_dense_k_lowest_matches_full_decomposition(topology, f, ty):
    h = strip_operator(topology, f, ty)
    full = dense_eigh(h).values
    for k in (1, 2, 6, h.n - 1, h.n):
        res = dense_eigh(h, k)
        assert res.k == k
        assert_allclose(res.values, full[:k], rtol=0, atol=1e-12)
        gram = res.vectors.conj().T @ res.vectors
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12
        assert np.all(res.residuals <= 1e-10)


def dense_cases():
    lat = build_lattice(12, 5, MOEBIUS)
    hop = HoppingParams(ty=0.01)
    yield assemble(lat, uniform_flux_field(lat, 0.3), hop)  # complex
    for sector in ("full", EVEN, ODD):  # real, in the mirror basis
        yield FluxPencil(sector_isometry(lat, sector), hop).at(0.3)
    yield random_hermitian(30, seed=5)


@pytest.mark.parametrize("h", list(dense_cases()))
@pytest.mark.parametrize("k", [1, 2, 6, "n-1", "n"])
@pytest.mark.parametrize("values_only", [False, True])
def test_dense_eigh_is_scipys_eigh_on_a_copy_it_may_overwrite(h, k, values_only):
    # LAPACK overwrites the one dense copy it is handed: never the operator, and no bit moves.
    # dsyevr or zheevr is called directly, with eigh's arguments, and returns eigh's values
    # and vectors; at k = n values_only solves the pairs, as eigh's eigvals_only would not
    from scipy.linalg import eigh

    k = {"n-1": h.n - 1, "n": h.n}.get(k, k)
    stored = [arr.copy() for arr in (h.csr.data, h.csr.indices, h.csr.indptr)]
    first, again = (dense_eigh(h, k, values_only=values_only) for _ in range(2))
    for arr, before in zip((h.csr.data, h.csr.indices, h.csr.indptr), stored):
        assert arr.tobytes() == before.tobytes()
    if values_only and k < h.n:
        values = eigh(h.toarray(), subset_by_index=[0, k - 1], eigvals_only=True)
        assert first.vectors is None and first.residuals is None
    else:
        values, vectors = eigh(h.toarray(), subset_by_index=[0, k - 1])
        for res in (first, again):
            assert res.vectors.tobytes() == (vectors / np.linalg.norm(vectors, axis=0)).tobytes()
        assert first.residuals.tobytes() == again.residuals.tobytes()
    for res in (first, again):
        assert res.values.dtype == values.dtype and res.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("h", list(dense_cases()))
@pytest.mark.parametrize("k", [1, 2, 6, "n-1", "n"])
def test_dense_values_only_are_the_vector_solves_values_bit_for_bit(h, k):
    # for k < n LAPACK bisects for the values whether or not it then computes vectors; at
    # k = n it takes other routes for values and for vectors, so the pairs are solved
    k = {"n-1": h.n - 1, "n": h.n}.get(k, k)
    values = dense_eigh(h, k, values_only=True)
    assert (values.vectors is None, values.residuals is None) == (k < h.n, k < h.n)
    assert np.array_equal(values.values, dense_eigh(h, k).values)
    assert np.array_equal(solve(h, SolverConfig(k=k, method="dense"), values_only=True).values,
                          values.values)


def test_values_only_leaves_the_lanczos_route_its_pairs():
    h = moebius_operator(12, 5, 0.3)
    cfg = SolverConfig(k=4, seed=1, method="lanczos")
    res = solve(h, cfg, values_only=True)
    assert res.vectors is not None
    assert np.array_equal(res.values, solve(h, cfg).values)


@pytest.mark.parametrize("k", [0, -1, 61])
def test_dense_k_out_of_range(k):
    h = strip_operator(MOEBIUS, 0.3, 1.0)
    assert h.n == 60
    with pytest.raises(ValueError):
        dense_eigh(h, k)


def test_dense_solve_on_acceptance_band():
    # the acceptance sweep's operator: 48 x 9 Moebius, ty = 0.01
    lat = build_lattice(48, 9, MOEBIUS)
    cfg = SolverConfig(k=6, method="dense")
    half = solve(moebius_operator(48, 9, 0.5, ty=0.01), cfg)
    assert nodal_amplitude(half.vectors[:, 0], lat) <= 1e-8
    for f in (0.13, 0.37, 0.81):
        h = moebius_operator(48, 9, f, ty=0.01)
        values, vectors = np.linalg.eigh(h.toarray())
        res = solve(h, cfg)
        assert_allclose(res.values, values[:6], rtol=0, atol=1e-12)
        assert abs(np.vdot(vectors[:, 0], res.vectors[:, 0])) == pytest.approx(1.0, abs=1e-10)


def test_lanczos_full_space_matches_dense_with_degeneracies():
    # ring at f=0 has the doubly degenerate pair {2, 2}; k = n lies beyond
    # ARPACK and must still return every copy
    lat = build_lattice(4, 1, ANNULUS)
    h = assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(ty=0.0))
    res = lanczos_lowest(h, SolverConfig(k=4, tol=1e-12, seed=5, method="lanczos"))
    assert_allclose(res.values, dense_eigh(h).values, atol=1e-8)


def test_lanczos_matches_dense_on_desk_scale_operator():
    h = moebius_operator(48, 9, 0.25)
    assert h.n == 432
    res = lanczos_lowest(h, SolverConfig(k=6, tol=1e-11, seed=42, method="lanczos"))
    assert_allclose(res.values, dense_eigh(h).values[:6], atol=1e-8)


@pytest.mark.parametrize("nx, ny, f, ty, seed", [
    # half-flux multiplets: the single-vector Lanczos dropped copies here
    *[(48, 9, 0.5, 0.01, seed) for seed in (1, 2, 3, 2024)],
    # ARPACK alone skips the second copy of 0.0180891469 with residuals
    # <= 3e-13; only the inertia count and the re-solve catch it
    (48, 9, 0.0, 0.01, 12345),
    # lambda_6 = lambda_7: the count above lambda_6 exceeds k on a right answer
    (48, 25, 0.0, 1.0, 2024),
])
def test_lanczos_returns_complete_degenerate_spectrum(nx, ny, f, ty, seed):
    h = moebius_operator(nx, ny, f, ty=ty)
    res = lanczos_lowest(h, SolverConfig(k=6, seed=seed, method="lanczos"))
    assert_allclose(res.values, dense_eigh(h).values[:6], rtol=0, atol=1e-8)


def inertia_count(h, sigma):
    """The solver's count: the sparse factor's where it is trusted, else the dense spectrum's."""
    count = eigensolver._Shifts(h).count_below(sigma)
    return eigensolver._dense_count(h, sigma) if count is None else count


@pytest.mark.parametrize("h", [
    moebius_operator(8, 5, 0.5),
    moebius_operator(12, 3, 0.0, ty=0.01),
    assemble(build_lattice(6, 3, ANNULUS), uniform_flux_field(build_lattice(6, 3, ANNULUS), 0.3),
             HoppingParams()),
    random_hermitian(30, seed=4),
])
def test_inertia_count_matches_dense_count(h):
    values = dense_eigh(h).values
    gaps = np.flatnonzero(np.diff(values) > 1e-9)
    sigmas = [values[0] - 1.0, values[-1] + 1.0, *(0.5 * (values[gaps] + values[gaps + 1]))]
    for sigma in sigmas:
        assert inertia_count(h, sigma) == np.count_nonzero(values < sigma)


def near_zero_pivot_ring():
    # six-site ring with sigma 1e-15 below a diagonal entry: the third pivot
    # is ~1e-15, and the 1e15 growth behind it flips the last pivot's sign
    # (bare count 2), though the nearest eigenvalue is 0.057 away from sigma
    diag = [-0.84, -0.47, 0.27, 0.99, 1.86, -0.86]
    m = np.diag(diag) - np.roll(np.eye(6), 1, axis=1) - np.roll(np.eye(6), -1, axis=1)
    return SparseHermitian(sp.csr_matrix(m)), diag[1] - 1e-15


def test_inertia_count_survives_a_near_zero_pivot():
    h, sigma = near_zero_pivot_ring()
    values = np.linalg.eigvalsh(h.toarray())
    assert np.min(np.abs(values - sigma)) > 0.05
    assert inertia_count(h, sigma) == np.count_nonzero(values < sigma) == 3


def test_inertia_count_at_an_eigenvalue():
    # sigma = 3 makes the factor of 3 I - sigma I exactly singular
    h = SparseHermitian(3 * sp.identity(5))
    assert inertia_count(h, 3.0) == 0
    assert inertia_count(h, 3.0 + 1e-9) == 5


def test_inertia_count_dense_fallback_is_size_guarded(monkeypatch):
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    with pytest.raises(np.linalg.LinAlgError, match="exceeds"):
        inertia_count(SparseHermitian(3 * sp.identity(5)), 3.0)  # singular factor
    with pytest.raises(np.linalg.LinAlgError, match="exceeds"):
        inertia_count(*near_zero_pivot_ring())  # grown pivots
    assert inertia_count(SparseHermitian(3 * sp.identity(5)), 2.0) == 0  # a sound factor counts


def test_lanczos_reports_an_uncertifiable_count_as_no_convergence(monkeypatch):
    # no sparse count is trusted at any cut, and the dense count is out of reach
    monkeypatch.setattr(eigensolver._Shifts, "count_below", lambda shifts, sigma: None)
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    with pytest.raises(NoConvergenceError) as err:
        lanczos_lowest(moebius_operator(12, 5, 0.3), SolverConfig(k=4, seed=1, method="lanczos"))
    assert err.value.best is not None and err.value.best.k == 4
    records = flux_sweep(SweepConfig(build_lattice(12, 5, MOEBIUS), HoppingParams(), f_steps=3,
                                     sectors=("full",), solver=SolverConfig(k=4, method="lanczos")))
    assert [rec.status for rec in records] == ["failed"] * 3


def pencil_at_cos_phi_zero():
    # cos(pi / 2) rounds to 6e-17, so the piece is zeroed by hand: 40 slots only it fills
    # then hold explicit zeros
    pencil = FluxPencil(sector_isometry(build_lattice(12, 5, MOEBIUS), ODD), HoppingParams())
    pencil._data[1] = 0.0
    return pencil.at(3.0)


@pytest.mark.parametrize("h", [
    moebius_operator(12, 5, 0.3),
    # at f = 0 the sin(phi) piece leaves explicit zeros in the pencil's pattern
    FluxPencil(sector_isometry(build_lattice(12, 5, MOEBIUS), EVEN), HoppingParams()).at(0.0),
    # a zero diagonal entry in row 1, whose slot the store holds as an explicit zero
    SparseHermitian(sp.csr_matrix(np.diag([1.0, 0.0, 2.0]) + np.eye(3, k=1) + np.eye(3, k=-1))),
    # a complex operator whose potential cancels two diagonal entries, one of them the last:
    # both stay in the store as explicit zeros, which the sparse difference fills
    assemble(build_lattice(6, 3, MOEBIUS), uniform_flux_field(build_lattice(6, 3, MOEBIUS), 0.3),
             HoppingParams(), pot=np.where(np.isin(np.arange(18), [4, 17]), -4.0, 0.0)),
    # at f = nx / 4, phi = pi / 2: the cos(phi) piece's slots hold 6e-17 or, zeroed, 0
    FluxPencil(sector_isometry(build_lattice(12, 5, MOEBIUS), ODD), HoppingParams()).at(3.0),
    pencil_at_cos_phi_zero(),
    # a zero diagonal entry in the last row: the store holds its slot, the last of all
    SparseHermitian(np.diag([1.0, 2.0, 0.0]) + np.eye(3, k=1) + np.eye(3, k=-1)),
])
def test_each_shift_factors_the_sparse_difference(h):
    # a data update on the diagonal slots gives the entries of H - sigma I, explicit zeros dropped
    shifts = eigensolver._Shifts(h)
    for sigma in (shifts.lo - 1.0, 0.5, shifts.hi + 1.0):
        shifts.factor(sigma)
        want = (h.csr - sigma * sp.identity(h.n, format="csr")).tocsc()
        for name in ("indptr", "indices", "data"):
            assert getattr(shifts._csc, name).tobytes() == getattr(want, name).tobytes()


def test_an_untrusted_count_is_retried_at_a_higher_cut(monkeypatch):
    # annulus 48 x 25 at f = 0.3627: the pivots at the first cut are imaginary to 1.6e-7,
    # over their 1.2e-7 bound, which sent the count to a dense eigvalsh at n = 1200
    def no_dense_count(h, sigma):
        raise AssertionError("dense count")

    count_below = eigensolver._Shifts.count_below
    counts = []

    def recorded(shifts, sigma):
        counts.append(count_below(shifts, sigma))
        return counts[-1]

    monkeypatch.setattr(eigensolver, "_dense_count", no_dense_count)
    monkeypatch.setattr(eigensolver._Shifts, "count_below", recorded)
    lat = build_lattice(48, 25, ANNULUS)
    h = assemble(lat, uniform_flux_field(lat, 0.3627), HoppingParams())
    res = lanczos_lowest(h, SolverConfig(k=6, seed=12345, method="lanczos"))
    assert counts == [None, 6]
    k, m = np.arange(48)[:, None], np.arange(1, 26)[None, :]
    exact = np.sort((4.0 - 2.0 * np.cos(2.0 * np.pi * (k + 0.3627) / 48)
                     - 2.0 * np.cos(np.pi * m / 26)).ravel())
    assert_allclose(res.values, exact[:6], rtol=0, atol=1e-10)


def test_an_untrusted_factor_above_the_dense_limit_certifies_at_the_retried_cut(monkeypatch):
    # the first count's factor leaves the diagonal: untrusted, and no dense count may stand in
    factor = eigensolver._Shifts.factor
    calls = []

    class OffDiagonal:
        def __init__(self, lu):
            self.U, self.perm_c, self.perm_r = lu.U, lu.perm_c, lu.perm_c[::-1]

    def first_count_off_diagonal(shifts, sigma):
        calls.append(sigma)
        lu = factor(shifts, sigma)
        return OffDiagonal(lu) if len(calls) == 2 else lu  # call 1 is the Lanczos factor

    h = moebius_operator(12, 5, 0.3)
    exact = dense_eigh(h, 4).values
    monkeypatch.setattr(eigensolver._Shifts, "factor", first_count_off_diagonal)
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    res = lanczos_lowest(h, SolverConfig(k=4, seed=1, method="lanczos"))
    assert_allclose(res.values, exact, rtol=0, atol=1e-10)
    assert len(calls) == 3 and calls[2] > calls[1] > res.values[-1]


@pytest.mark.parametrize("topology, f, seed", [
    *((topology, f, 2024) for topology in (MOEBIUS, ANNULUS) for f in (0.0, 0.13, 0.5, 0.81)),
    # from these seeds the first shift-invert solve skips a degenerate copy
    # that only the certificate's re-solve finds
    (ANNULUS, 0.0, 2),
    (ANNULUS, 0.0, 7),
])
def test_lanczos_matches_dense_at_the_auto_lanczos_size(topology, f, seed):
    # 48 x 25 (n = 1200) is where solve(auto) goes to Lanczos; at the default
    # tol the residuals must meet the gate with no error, which pins ARPACK's
    # tol to the shift-invert operator's norm
    lat = build_lattice(48, 25, topology)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams())
    # zero flux has real hops, so f = 0 keeps the real Krylov path covered
    assert (h.csr.dtype == np.float64) == (f == 0.0)
    cfg = SolverConfig(k=6, seed=seed, method="lanczos")
    res = lanczos_lowest(h, cfg)
    assert_allclose(res.values, dense_eigh(h, 6).values, rtol=0, atol=1e-10)
    assert np.all(res.residuals <= cfg.tol * max(1.0, float(np.max(np.abs(res.values)))))


@pytest.mark.parametrize("topology, f, factorizations", [
    # the re-solve's cut lies below the first (0.0827305993257605 against ...8425 at f = 0,
    # 0.0752266425003 against ...5146 at f = 1/2): the first count stands, no third factor
    (MOEBIUS, 0.0, 2),
    (MOEBIUS, 0.5, 2),
    # the re-solve's cut lies 1.4e-15 above the first, where no count was taken: it counts again
    (ANNULUS, 0.0, 3),
])
def test_a_re_solve_at_or_below_the_counted_cut_takes_that_count(monkeypatch, topology, f,
                                                                  factorizations):
    factor = eigensolver._Shifts.factor
    calls = []

    def counted(shifts, sigma):
        calls.append(sigma)
        return factor(shifts, sigma)

    monkeypatch.setattr(eigensolver._Shifts, "factor", counted)
    lat = build_lattice(48, 25, topology)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams())
    res = lanczos_lowest(h, SolverConfig(k=6, seed=2024, method="lanczos"))
    assert len(calls) == factorizations
    assert_allclose(res.values, dense_eigh(h, 6).values, rtol=0, atol=1e-10)


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("seed", [12345, 2024])
def test_lanczos_refines_residuals_at_highly_degenerate_levels(topology, k, seed):
    # ty = 0 decouples the rows: levels up to six-fold degenerate, where Rayleigh-Ritz left
    # a copy's residual at 1.3e-10 to 5.5e-10 against the 1e-10 gate, and the solve failed
    lat = build_lattice(8, 3, topology)
    h = assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(ty=0.0))
    cfg = SolverConfig(k=k, seed=seed, method="lanczos")
    res = lanczos_lowest(h, cfg)
    assert np.all(res.residuals <= cfg.tol)
    assert_allclose(res.values, dense_eigh(h, k).values, rtol=0, atol=1e-13)


def test_lanczos_budget_counts_factor_solves():
    h = moebius_operator(48, 25, 0.5)
    # ~90 shift-invert solves suffice, re-solve included; ARPACK on H took ~800 matvecs
    res = lanczos_lowest(h, SolverConfig(k=6, max_iter=200, seed=3, method="lanczos"))
    assert_allclose(res.values, dense_eigh(h, 6).values, rtol=0, atol=1e-10)
    with pytest.raises(NoConvergenceError) as err:
        lanczos_lowest(h, SolverConfig(k=6, max_iter=10, seed=3, method="lanczos"))
    best = err.value.best
    assert best is not None and best.k == 6
    assert np.all(np.isfinite(best.values)) and np.all(np.isfinite(best.residuals))


def test_lanczos_determinism():
    h = moebius_operator(12, 5, 0.3)
    cfg = SolverConfig(k=5, tol=1e-11, seed=99, method="lanczos")
    a = lanczos_lowest(h, cfg)
    b = lanczos_lowest(h, cfg)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_orthonormality():
    h = moebius_operator(12, 5, 0.3)
    res = lanczos_lowest(h, SolverConfig(k=6, tol=1e-11, seed=1, method="lanczos"))
    gram = res.vectors.conj().T @ res.vectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8


def test_lanczos_residuals_meet_tolerance():
    h = moebius_operator(16, 5, 0.5)
    cfg = SolverConfig(k=4, tol=1e-10, seed=8, method="lanczos")
    res = lanczos_lowest(h, cfg)
    # scale is the operator's largest-eigenvalue magnitude, not the k lowest
    scale = max(1.0, float(np.max(np.abs(dense_eigh(h).values))))
    assert np.all(res.residuals <= cfg.tol * scale)


def test_lanczos_k_exceeds_n():
    h = random_hermitian(5, seed=1)
    with pytest.raises(ValueError):
        lanczos_lowest(h, SolverConfig(k=6, method="lanczos"))


def test_lanczos_no_convergence_carries_best():
    h = random_hermitian(60, seed=21)
    cfg = SolverConfig(k=3, tol=1e-14, max_iter=5, seed=2, method="lanczos")
    with pytest.raises(NoConvergenceError) as err:
        lanczos_lowest(h, cfg)
    best = err.value.best
    assert best is not None and best.k == 3
    assert np.all(np.isfinite(best.residuals))


def test_residual_report_detects_perturbation():
    h = moebius_operator(8, 3, 0.2)
    res = dense_eigh(h)
    assert np.all(residual_report(h, res) < 1e-12)
    rng = np.random.default_rng(6)
    noise = rng.standard_normal(h.n)
    noise /= np.linalg.norm(noise)
    vectors = np.array(res.vectors)
    vectors[:, 0] = vectors[:, 0] + 1e-3 * noise
    vectors[:, 0] /= np.linalg.norm(vectors[:, 0])
    bumped = EigenResult(values=res.values, vectors=vectors, residuals=res.residuals)
    r0 = residual_report(h, bumped)[0]
    assert 1e-5 < r0 < 1e-1  # first order in the 1e-3 perturbation


def test_residual_report_dimension_mismatch():
    h = moebius_operator(8, 3, 0.2)
    res = dense_eigh(moebius_operator(8, 5, 0.2))
    with pytest.raises(ValueError):
        residual_report(h, res)


def test_solve_auto_picks_dense_for_small():
    h = moebius_operator(8, 5, 0.3)
    res = solve(h, SolverConfig(k=4, method="auto"))
    assert_allclose(res.values, dense_eigh(h).values[:4], atol=1e-12)


def test_dirichlet_nesting_monotonicity():
    # killing the center row (odd sector) never lowers the ground energy
    lat = build_lattice(8, 5, MOEBIUS)
    hop = HoppingParams()
    iso_odd = sector_isometry(lat, ODD)
    iso_even = sector_isometry(lat, EVEN)
    for f in (0.0, 0.25, 0.5, 0.75):
        h = assemble(lat, uniform_flux_field(lat, f), hop)
        e_full = dense_eigh(h).values[0]
        e_odd = dense_eigh(restrict(h, iso_odd)).values[0]
        e_even = dense_eigh(restrict(h, iso_even)).values[0]
        assert e_odd >= e_full - 1e-10
        assert min(e_even, e_odd) == pytest.approx(e_full, abs=1e-10)
        # at order-one rung coupling the transverse zero point keeps the
        # nodal sector above the nodeless one at every flux
        assert e_odd >= e_even - 1e-10
