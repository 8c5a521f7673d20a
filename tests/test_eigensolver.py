"""Solver contracts: dense reference, Lanczos agreement, certification."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mobiusflux import eigensolver
from mobiusflux.eigensolver import (
    NoConvergenceError,
    SolverConfig,
    dense_eigh,
    lanczos_lowest,
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
    sector_pencil,
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
        SolverConfig(method="arnoldi")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_unsigned_bits_is_refused(seed):
    with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
        SolverConfig(seed=seed)
    assert SolverConfig(seed=seed % 2**64).seed == seed % 2**64


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
    assert np.all(np.linalg.norm(h.csr @ res.vectors - res.vectors * res.values, axis=0)
                  <= 1e-10 * scale)


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
    # eigh may overwrite the one dense copy it is handed: never the operator, and no bit moves.
    # Its values and vectors are those of eigh on the operator's dense array; at k = n
    # values_only solves the pairs, as eigh's eigvals_only would not
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


def test_lowest_of_a_values_only_result_slices_the_values():
    # it sliced vectors[:, :k] on a result that holds none: 'NoneType' is not subscriptable
    h = moebius_operator(12, 5, 0.3)
    values = dense_eigh(h, 4, values_only=True).lowest(2)
    assert (values.vectors, values.residuals) == (None, None)
    assert values.values.tobytes() == dense_eigh(h, 4, values_only=True).values[:2].tobytes()
    pairs, both = dense_eigh(h, 4), dense_eigh(h, 4).lowest(2)
    for got, want in zip((both.values, both.vectors, both.residuals),
                         (pairs.values[:2], pairs.vectors[:, :2], pairs.residuals[:2])):
        assert got.tobytes() == want.tobytes()


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


@pytest.fixture(params=["solver-blocks", "narrowest-blocks"])
def block_partition(request, monkeypatch):
    """Each partition of the band into blocks: the solver's, at least _MIN_BLOCK rows, or blocks
    as narrow as the half-bandwidth, which put even a small operator's rows in several blocks and
    so drive the Schur complements between them."""
    if request.param == "narrowest-blocks":
        monkeypatch.setattr(eigensolver, "_MIN_BLOCK", 1)
    eigensolver._layout.cache_clear()  # its layouts hold the block
    yield request.param
    eigensolver._layout.cache_clear()


def sparse_count(h, sigma):
    """The sparse count, a Python int, or None, with the norm bound the solver gives it."""
    lo, hi = eigensolver._gershgorin(h)
    count = eigensolver._count_below(h, sigma, max(hi - sigma, sigma - lo))
    assert count is None or type(count) is int
    return count


def inertia_count(h, sigma):
    """The solver's count: the sparse factor's where it is trusted, else the dense spectrum's."""
    count = sparse_count(h, sigma)
    return eigensolver._dense_count(h, sigma) if count is None else count


def pencil_at_cos_phi_zero():
    # cos(pi / 2) rounds to 6e-17, so the piece is zeroed by hand: 40 slots only it fills
    # then hold explicit zeros
    pencil = FluxPencil(sector_isometry(build_lattice(12, 5, MOEBIUS), ODD), HoppingParams())
    pencil._data[1] = 0.0
    return pencil.at(3.0)


@pytest.mark.parametrize("h", [
    moebius_operator(8, 5, 0.5),
    moebius_operator(12, 3, 0.0, ty=0.01),
    assemble(build_lattice(6, 3, ANNULUS), uniform_flux_field(build_lattice(6, 3, ANNULUS), 0.3),
             HoppingParams()),
    random_hermitian(30, seed=4),
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
def test_inertia_count_matches_dense_count(h, block_partition):
    values = dense_eigh(h).values
    gaps = np.flatnonzero(np.diff(values) > 1e-9)
    sigmas = [values[0] - 1.0, values[-1] + 1.0, *(0.5 * (values[gaps] + values[gaps + 1]))]
    for sigma in sigmas:
        assert inertia_count(h, sigma) == np.count_nonzero(values < sigma)


def record_block_factors(monkeypatch):
    """Wrap the count's Cholesky (?potrf) and Bunch-Kaufman (?sysv, ?hesv) routines; the list
    returned gets, for each block a count factors, the factor that took it."""
    routes, routines = [], eigensolver._block_routines

    def recorded(dtype, block):
        potrf, sv, *rest = routines(dtype, block)

        def cholesky(a, **kwargs):
            factor, info = potrf(a, **kwargs)
            if info == 0:
                routes.append("cholesky")
            return factor, info

        def bunch_kaufman(*args, **kwargs):
            routes.append("bunch-kaufman")
            return sv(*args, **kwargs)

        return (cholesky, bunch_kaufman, *rest)

    monkeypatch.setattr(eigensolver, "_block_routines", recorded)
    return routes


# test_inertia_count_matches_dense_count's operators, read off its parametrize mark
DENSE_COUNTED = next(mark.args[1] for mark in test_inertia_count_matches_dense_count.pytestmark
                     if mark.name == "parametrize")


@pytest.mark.parametrize("h", [moebius_operator(20, 7, 0.3), *DENSE_COUNTED])
def test_the_last_block_is_factored_by_the_rule_of_every_block(h, block_partition, monkeypatch):
    # below the spectrum every block is definite, and Cholesky takes each, the last one too;
    # above it none is (a padded last block is indefinite: its padded rows hold +norm), and
    # Bunch-Kaufman takes each
    routes = record_block_factors(monkeypatch)
    values = dense_eigh(h).values
    blocks = -(-h.n // eigensolver._layout(h.pattern).block)
    assert block_partition == "solver-blocks" or blocks > 1
    for cut, route, count in ((values[0] - 1.0, "cholesky", 0),
                              (values[-1] + 1.0, "bunch-kaufman", h.n)):
        routes.clear()
        assert sparse_count(h, cut) == count == np.count_nonzero(values < cut)
        assert routes == [route] * blocks


def near_zero_pivot_ring():
    # six-site ring with sigma 1e-15 below a diagonal entry: the third pivot
    # is ~1e-15, and the 1e15 growth behind it flips the last pivot's sign
    # (bare count 2), though the nearest eigenvalue is 0.057 away from sigma
    diag = [-0.84, -0.47, 0.27, 0.99, 1.86, -0.86]
    m = np.diag(diag) - np.roll(np.eye(6), 1, axis=1) - np.roll(np.eye(6), -1, axis=1)
    return SparseHermitian(sp.csr_matrix(m)), diag[1] - 1e-15


def test_inertia_count_survives_a_near_zero_pivot(block_partition):
    h, sigma = near_zero_pivot_ring()
    values = np.linalg.eigvalsh(h.toarray())
    assert np.min(np.abs(values - sigma)) > 0.05
    assert inertia_count(h, sigma) == np.count_nonzero(values < sigma) == 3


def test_the_count_is_not_trusted_where_its_entries_outgrow_the_norm():
    # a norm below max|entry| sqrt(eps) makes the ring's own entries count as grown; the
    # solver's norm bound leaves the count trusted, and right
    h, sigma = near_zero_pivot_ring()
    assert np.max(np.abs(h.csr.data)) * eigensolver._SQRT_EPS > 1e-9
    assert eigensolver._count_below(h, sigma, 1e-9) is None
    assert sparse_count(h, sigma) == 3


def test_inertia_count_at_an_eigenvalue(block_partition):
    # sigma = 3 makes the factor of 3 I - sigma I exactly singular
    h = SparseHermitian(3 * sp.identity(5))
    assert inertia_count(h, 3.0) == 0
    assert inertia_count(h, 3.0 + 1e-9) == 5


@pytest.mark.parametrize("h", [
    sector_pencil(build_lattice(12, 5, MOEBIUS), ODD, HoppingParams()).at(0.3),
    sector_pencil(build_lattice(48, 9, MOEBIUS), "full", HoppingParams(ty=0.01)).at(0.3),
    assemble(build_lattice(6, 3, MOEBIUS), uniform_flux_field(build_lattice(6, 3, MOEBIUS), 0.3),
             HoppingParams(), pot=np.where(np.isin(np.arange(18), [4, 17]), -4.0, 0.0)),
    SparseHermitian(sp.csr_matrix(np.diag([1.0, 0.0, 2.0, 3.0]) + np.eye(4, k=1) + np.eye(4, k=-1))),
])
def test_a_cut_on_a_diagonal_entry_is_counted_right_or_not_trusted(h, block_partition):
    # there the sparse difference H - cut I holds no entry in that diagonal slot: the count is
    # the dense one or None (untrusted, or a factor is exactly singular)
    values = np.linalg.eigvalsh(h.toarray())
    for cut in map(float, np.unique(h.csr.diagonal().real)):
        coo = (h.csr - cut * sp.identity(h.n, dtype=h.csr.dtype, format="csr")).tocoo()
        assert np.count_nonzero(coo.row == coo.col) < h.n
        assert sparse_count(h, cut) in (None, np.count_nonzero(values < cut))


def zero_diagonal_path(n):
    # the n-site path with a zero diagonal: Bunch-Kaufman takes 2 x 2 pivots, in runs that
    # cross from one block into the next
    return SparseHermitian(sp.diags([np.ones(n - 1), np.ones(n - 1)], [-1, 1]))


def site_operator(top, nx, ny, f, ty=1.0):
    lat = build_lattice(nx, ny, top)
    return assemble(lat, uniform_flux_field(lat, f), HoppingParams(ty=ty))


BAND_COUNTED = {
    # real sector pencils (?potrf, ?sytrf): at 48 x 25 the last block is padded (n = 1200 in
    # blocks of 52 or 51, 624 in 28, 576 in 26), at 16 x 5 n is a multiple of the block (80, 48
    # and 32 in blocks of 16), and at 5 x 3 all n rows are one block
    **{f"{top}-{nx}x{ny}-{sector}": (top, nx, ny, sector)
       for top in (MOEBIUS, ANNULUS) for nx, ny in ((48, 25), (16, 5), (5, 3))
       for sector in ("full", EVEN, ODD)},
    # complex site-basis operators (?hetrf): 140 = 8 x 16 + 12, 80 = 5 x 16, 15 rows, and on
    # the annulus 1200 = 25 x 48
    **{f"{top}-site-{nx}x{ny}": (top, nx, ny, None) for top in (MOEBIUS, ANNULUS)
       for nx, ny in ((20, 7), (16, 5), (5, 3))},
    "annulus-site-48x25": (ANNULUS, 48, 25, None),
    # ty = 0 at f = 1/2: levels up to 14-fold degenerate, where Schur complements formed from an
    # explicit inverse miscounted by two at a cut 1.7e-10 above one, with no entry grown
    **{f"{top}-site-7x7-ty0": (top, 7, 7, "ty0") for top in (MOEBIUS, ANNULUS)},
    "zero-diagonal-path": None,
    # half-bandwidth 97, n = 2352: its last block is padded (2352 = 24 x 97 + 24)
    "moebius-48x49-full": (MOEBIUS, 48, 49, "full"),
}


def band_counted(name):
    if BAND_COUNTED[name] is None:
        return zero_diagonal_path(30)
    top, nx, ny, sector = BAND_COUNTED[name]
    if sector is None:
        return site_operator(top, nx, ny, 0.3)
    if sector == "ty0":
        return site_operator(top, nx, ny, 0.5, ty=0.0)
    return sector_pencil(build_lattice(nx, ny, top), sector, HoppingParams()).at(0.3)


@pytest.mark.parametrize("name", list(BAND_COUNTED))
def test_a_trusted_band_count_is_never_wrong(name):
    h = band_counted(name)
    assert (h.csr.dtype == complex) == ("site" in name)
    values = np.linalg.eigvalsh(h.toarray())
    lo, hi = eigensolver._gershgorin(h)

    def count(cut):
        return eigensolver._count_below(h, cut, max(hi - cut, cut - lo))

    # a random cut lies far from every eigenvalue on the scale of the count's rounding: the
    # count is trusted there, and right
    for cut in np.random.default_rng(h.n).uniform(lo, hi, 12):
        assert count(cut) == np.count_nonzero(values < cut)
    # within 1e-12 of an eigenvalue, or on a diagonal entry, it is right or not trusted
    near = np.concatenate([values[:8] - 1e-12, values[:8] + 1e-12, values[-2:] - 1e-12])
    for cut in (*near, *np.unique(h.csr.diagonal().real)):
        assert count(cut) in (None, np.count_nonzero(values < cut))


def test_an_exactly_singular_band_count_is_not_trusted():
    h = SparseHermitian(3 * sp.identity(5))  # 3 I - 3 I is exactly singular
    assert eigensolver._layout(h.pattern).width == 0
    assert eigensolver._count_below(h, 3.0, 3.0) is None
    assert eigensolver._count_below(h, 3.0 + 1e-9, 3.0) == 5


@st.composite
def pivoted_blocks(draw):
    """(dtype, Q diag(lam) Q^H, lam) for an s x s block, s in 2-60: lam mixes signs and up to
    three exact zeros, its other entries at one scale 10^e per block, e in -150..150, within
    1e3 either way.  The zeros' eigenvectors are unit vectors, so their rows are exactly zero,
    and the rest of Q is a seeded random unitary."""
    dtype = draw(st.sampled_from((np.float64, np.complex128)))
    s = draw(st.integers(2, 60))
    scale = 10.0 ** draw(st.integers(-150, 150))
    lam = np.array(draw(st.lists(st.builds(lambda sign, m: sign * m * scale, st.sampled_from(
        (-1.0, 1.0)), st.floats(1e-3, 1e3)), min_size=s, max_size=s)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero, live = np.split(rng.permutation(s), [draw(st.integers(0, 3))])
    lam[zero] = 0.0
    g = rng.standard_normal((live.size, live.size))
    if dtype == np.complex128:
        g = g + 1j * rng.standard_normal(g.shape)
    q = np.linalg.qr(g)[0]
    a = np.zeros((s, s), dtype=dtype)
    a[np.ix_(live, live)] = (q * lam[live]) @ q.conj().T
    return dtype, (a + a.conj().T) / 2, lam


@settings(max_examples=60, deadline=None)
@given(pivoted_blocks())
def test_bunch_kaufman_takes_a_2x2_pivot_only_where_it_is_indefinite(block):
    # the rule that ``_count_below`` reads inertia by: LAPACK's ?sysv or ?hesv takes a 2 x 2
    # pivot, on two rows of negative ipiv, only where its determinant is negative, so it has
    # one negative eigenvalue; a singular block shows as a zero 1 x 1 pivot (info != 0)
    dtype, a, lam = block
    sv, lwork = eigensolver._block_routines(np.dtype(dtype), a.shape[0])[1::4]
    factor, ipiv, _, info = sv(np.asfortranarray(a), np.ones((a.shape[0], 1), dtype), lower=1,
                               lwork=lwork)
    assert (info != 0) == np.any(lam == 0)
    paired = ipiv < 0
    k = np.flatnonzero(paired)[::2]
    assert np.array_equal(ipiv[k], ipiv[k + 1])
    d = factor / (np.max(np.abs(a)) or 1.0)  # scaled, so that no product under- or overflows
    det = d[k, k].real * d[k + 1, k + 1].real - np.abs(d[k + 1, k]) ** 2
    assert np.all(det < 0)
    singles = factor.diagonal().real[~paired]
    assert (np.count_nonzero(singles < 0) + np.count_nonzero(paired) // 2
            == np.count_nonzero(lam < 0))


def no_dense_count(h, sigma):
    raise AssertionError("dense count")


@pytest.mark.parametrize("nx, ny, width", [
    (48, 48, 96),
    (48, 49, 97),
    (64, 64, 128),  # past _MAX_BAND: SuperLU factors H - sigma I
])
def test_the_count_is_the_bands_at_every_half_bandwidth(monkeypatch, nx, ny, width):
    h = sector_pencil(build_lattice(nx, ny, MOEBIUS), "full", HoppingParams()).at(0.3)
    assert eigensolver._layout(h.pattern).width == width
    blocks, routines = [], eigensolver._block_routines
    monkeypatch.setattr(eigensolver, "_block_routines",
                        lambda dtype, block: blocks.append(block) or routines(dtype, block))
    lo, hi = eigensolver._gershgorin(h)
    assert sparse_count(h, lo + 0.05 * (hi - lo)) > 0
    assert blocks == [width]
    # a whole solve: each count is the band's and trusted, and SuperLU factors only the
    # definite H - sigma I, below the spectrum, on a band wider than _MAX_BAND
    calls = record_factorizations(monkeypatch)
    monkeypatch.setattr(eigensolver, "_dense_count", no_dense_count)
    res = lanczos_lowest(h, SolverConfig(k=6, seed=1, method="lanczos"))
    factor, counts = calls[0], calls[1:]
    assert counts and all(cut > res.values[-1] for cut in counts)
    assert len(blocks) == 1 + len(counts)
    if width <= eigensolver._MAX_BAND:
        assert factor == "cholesky"
    else:
        assert factor < res.values[0]


def test_inertia_count_dense_fallback_is_size_guarded(monkeypatch):
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    with pytest.raises(np.linalg.LinAlgError, match="exceeds"):
        inertia_count(SparseHermitian(3 * sp.identity(5)), 3.0)  # singular factor
    assert inertia_count(SparseHermitian(3 * sp.identity(5)), 2.0) == 0  # a sound factor counts


def test_lanczos_reports_an_uncertifiable_count_as_no_convergence(monkeypatch):
    # no sparse count is trusted at any cut, and the dense count is out of reach
    monkeypatch.setattr(eigensolver, "_count_below", lambda h, cut, norm: None)
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    with pytest.raises(NoConvergenceError) as err:
        lanczos_lowest(moebius_operator(12, 5, 0.3), SolverConfig(k=4, seed=1, method="lanczos"))
    assert "completeness not certified" in str(err.value)
    records = flux_sweep(SweepConfig(build_lattice(12, 5, MOEBIUS), HoppingParams(), f_steps=3,
                                     sectors=("full",), solver=SolverConfig(k=4, method="lanczos")))
    assert [rec.status for rec in records] == ["failed"] * 3


def is_superlu(solve) -> bool:
    """Whether this solve of ``_definite_factor`` is a SuperLU factor's."""
    return isinstance(getattr(solve, "__self__", None), SuperLU)


def record_factorizations(monkeypatch) -> list:
    """The list lanczos_lowest's factorizations go to: each inertia count's cut, and for each
    shift-invert factor its sigma if it is SuperLU's, else "cholesky"."""
    factor, count = eigensolver._definite_factor, eigensolver._count_below
    calls = []

    def definite_factor(h, sigma):
        solve = factor(h, sigma)
        calls.append(sigma if is_superlu(solve) else "cholesky")
        return solve

    def count_below(h, cut, norm):
        calls.append(cut)
        return count(h, cut, norm)

    monkeypatch.setattr(eigensolver, "_definite_factor", definite_factor)
    monkeypatch.setattr(eigensolver, "_count_below", count_below)
    return calls


def ty_zero_operator():
    # ty = 0 leaves the rungs in the pattern as explicit zeros, which the band stores and
    # SuperLU's CSC drops
    lat = build_lattice(48, 25, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams(ty=0.0))
    assert np.count_nonzero(h.csr.data == 0) > 0
    return h


@pytest.mark.parametrize("h", [
    sector_pencil(build_lattice(48, 25, MOEBIUS), "full", HoppingParams()).at(0.3),
    moebius_operator(48, 25, 0.3),
    ty_zero_operator(),
])
@pytest.mark.parametrize("columns", [None, 3])
def test_the_two_factor_routes_solve_alike(monkeypatch, h, columns):
    sigma = eigensolver._gershgorin(h)[0] - 0.01
    assert eigensolver._layout(h.pattern).width <= eigensolver._MAX_BAND
    band = eigensolver._definite_factor(h, sigma)
    assert not is_superlu(band)
    monkeypatch.setattr(eigensolver, "_MAX_BAND", -1)  # every band is too wide: SuperLU
    superlu = eigensolver._definite_factor(h, sigma)
    assert is_superlu(superlu)
    rng = np.random.default_rng(7)
    shape = h.n if columns is None else (h.n, columns)
    v = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if h.csr.dtype == complex
                                      else 0.0)
    x, want = band(v), superlu(v)
    assert x.shape == want.shape == v.shape and x.dtype == want.dtype == h.csr.dtype
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))
    # and each solves the system itself: the residual of H - sigma I on its answer
    for y in (x, want):
        assert np.max(np.abs(h.csr @ y - sigma * y - v)) <= 1e-12 * np.max(np.abs(v))


def test_a_band_that_is_not_positive_definite_is_no_convergence():
    h = moebius_operator(12, 5, 0.3)
    lo, hi = eigensolver._gershgorin(h)
    for sigma in (0.5 * (lo + hi), hi + 1.0):
        with pytest.raises(NoConvergenceError, match="banded Cholesky failed: LAPACK info = "):
            eigensolver._definite_factor(h, sigma)


def annulus_operator(nx, ny, f):
    """The nx x ny annulus at uniform flux f, ty = 1, with its closed-form spectrum."""
    lat = build_lattice(nx, ny, ANNULUS)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams())
    k, m = np.arange(nx)[:, None], np.arange(1, ny + 1)[None, :]
    return h, np.sort((4.0 - 2.0 * np.cos(2.0 * np.pi * (k + f) / nx)
                       - 2.0 * np.cos(np.pi * m / (ny + 1))).ravel())


@pytest.mark.parametrize("top, nx, ny, banded", [
    (MOEBIUS, 48, 25, True),  # reverse Cuthill-McKee half-bandwidth 52
    (ANNULUS, 120, 60, True),  # 120: the widest band the banded factor takes
    (ANNULUS, 121, 61, False),  # 121: SuperLU factors
])
def test_the_shift_invert_factor_is_banded_up_to_a_half_bandwidth_of_120(monkeypatch, top, nx,
                                                                         ny, banded):
    if top == MOEBIUS:
        h = sector_pencil(build_lattice(nx, ny, MOEBIUS), "full", HoppingParams()).at(0.3)
        exact = dense_eigh(h, 6).values
    else:
        h, exact = annulus_operator(nx, ny, 0.3)
    calls = record_factorizations(monkeypatch)
    res = lanczos_lowest(h, SolverConfig(k=6, seed=1, method="lanczos"))
    assert_allclose(res.values, exact[:6], rtol=0, atol=1e-10)
    # the shift-invert factor comes first: its sigma lies below the spectrum, every cut above
    assert (calls[0] == "cholesky") if banded else (calls[0] < res.values[0])
    assert calls.count("cholesky") == banded


def first_count_untrusted(monkeypatch, h) -> tuple:
    """Make the first inertia count return None; the retry step lanczos_lowest takes on h, and
    the list each count's (cut, count) goes to."""
    count, calls = eigensolver._count_below, []

    def count_below(h, cut, norm):
        calls.append((cut, None if not calls else count(h, cut, norm)))
        return calls[-1][1]

    monkeypatch.setattr(eigensolver, "_count_below", count_below)
    lo, hi = eigensolver._gershgorin(h)
    sigma = lo - eigensolver._SQRT_EPS * max(hi - lo, 1.0, 4.0 * eigensolver._SQRT_EPS * abs(lo))
    return 100.0 * eigensolver._SQRT_EPS * (hi - sigma), calls


def test_an_untrusted_count_is_retried_at_a_higher_cut(monkeypatch):
    # the next cut, 100 sqrt(eps) (hi - sigma) higher, is counted on the band and trusted, so
    # no dense eigvalsh runs at n = 1200
    h, exact = annulus_operator(48, 25, 0.3627)
    retry, calls = first_count_untrusted(monkeypatch, h)
    monkeypatch.setattr(eigensolver, "_dense_count", no_dense_count)
    res = lanczos_lowest(h, SolverConfig(k=6, seed=12345, method="lanczos"))
    assert_allclose(res.values, exact[:6], rtol=0, atol=1e-10)
    (cut, first), (retried, count) = calls
    assert first is None and retried == cut + retry and count == 6


def test_an_untrusted_factor_above_the_dense_limit_certifies_at_the_retried_cut(monkeypatch):
    # the first count is untrusted, and no dense count may stand in
    h = moebius_operator(12, 5, 0.3)
    exact = dense_eigh(h, 4).values
    retry, calls = first_count_untrusted(monkeypatch, h)
    monkeypatch.setattr(eigensolver, "_DENSE_MAX_N", 4)
    res = lanczos_lowest(h, SolverConfig(k=4, seed=1, method="lanczos"))
    assert_allclose(res.values, exact, rtol=0, atol=1e-10)
    (cut, first), (retried, count) = calls
    assert first is None and retried == cut + retry and count == 4 and cut > res.values[-1]


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


@pytest.mark.parametrize("topology, f, seed, factorizations", [
    # the re-solve's bound theta_max + ||R|| lies about the gate, 1e-10, below the cut the
    # first count was taken at (0.08273059922576 against 0.08273059932584 at f = 0,
    # 0.07522664240028 against 0.07522664251459 at f = 1/2): the first count stands
    (MOEBIUS, 0.0, 2024, 2),
    (MOEBIUS, 0.5, 2024, 2),
    # here the re-solve's bound padded with the gate lay 1.4e-15 (annulus), 7.4e-14 and
    # 1.4e-15 (Moebius, f = 0 and 1/2, seed 12345) above the counted cut, and a count was
    # taken again; the bound itself lies below that cut, so the first count stands
    (ANNULUS, 0.0, 2024, 2),
    (MOEBIUS, 0.0, 12345, 2),
    (MOEBIUS, 0.5, 12345, 2),
])
def test_a_re_solve_at_or_below_the_counted_cut_takes_that_count(monkeypatch, topology, f, seed,
                                                                  factorizations):
    calls = record_factorizations(monkeypatch)
    lat = build_lattice(48, 25, topology)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams())
    res = lanczos_lowest(h, SolverConfig(k=6, seed=seed, method="lanczos"))
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


def test_lanczos_budget_counts_factor_solves(monkeypatch):
    h = moebius_operator(48, 25, 0.5)
    cfg = SolverConfig(k=6, seed=3, method="lanczos")
    # ~90 shift-invert solves suffice, re-solve included; ARPACK on H took ~800 matvecs
    monkeypatch.setattr(eigensolver, "_budget", lambda n: 200)
    res = lanczos_lowest(h, cfg)
    assert_allclose(res.values, dense_eigh(h, 6).values, rtol=0, atol=1e-10)
    monkeypatch.setattr(eigensolver, "_budget", lambda n: 10)
    with pytest.raises(NoConvergenceError, match="within 10 factor solves"):
        lanczos_lowest(h, cfg)


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


def test_lanczos_no_convergence_on_an_exhausted_budget(monkeypatch):
    h = random_hermitian(60, seed=21)
    cfg = SolverConfig(k=3, tol=1e-14, seed=2, method="lanczos")
    monkeypatch.setattr(eigensolver, "_budget", lambda n: 5)
    with pytest.raises(NoConvergenceError, match="within 5 factor solves"):
        lanczos_lowest(h, cfg)


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
