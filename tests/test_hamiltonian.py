"""Operator assembly, the ring oracle, parity sectors and restriction."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from mobiusflux import hamiltonian
from mobiusflux.eigensolver import dense_eigh
from mobiusflux.gauge import apply_gauge_transform, uniform_flux_angle, uniform_flux_field
from mobiusflux.experiments import nodal_amplitude
from mobiusflux.hamiltonian import (
    EVEN,
    FULL,
    ODD,
    SECTORS,
    FluxPencil,
    HoppingParams,
    SectorIsometry,
    SparseHermitian,
    SymmetryViolationError,
    assemble,
    reflection_permutation,
    restrict,
    ring_spectrum_oracle,
    sector_isometry,
)
from mobiusflux.lattice import ANNULUS, MOEBIUS, LatticeError, Site, build_lattice
from mobiusflux.verify import random_gauge_transform


def ring(nx, f, ty=0.0):
    lat = build_lattice(nx, 1, ANNULUS)
    return assemble(lat, uniform_flux_field(lat, f), HoppingParams(tx=1.0, ty=ty))


def test_hopping_params_validation():
    HoppingParams(tx=1.0, ty=0.0)  # decoupled-chain limit is allowed
    with pytest.raises(ValueError):
        HoppingParams(tx=0.0)
    with pytest.raises(ValueError):
        HoppingParams(tx=1.0, ty=-0.5)


def test_ring_spectrum_against_closed_form():
    # independent closed form: 2 - 2 cos(2 pi (k+f)/nx), computed right here
    for nx, f in [(3, 0.0), (4, 0.0), (4, 0.5), (8, 0.25)]:
        explicit = np.sort(
            [2.0 - 2.0 * math.cos(2.0 * math.pi * (k + f) / nx) for k in range(nx)]
        )
        assert_allclose(ring_spectrum_oracle(nx, f), explicit, atol=1e-15)
        assert_allclose(dense_eigh(ring(nx, f)).values, explicit, atol=1e-10)


def test_ring_examples():
    assert_allclose(dense_eigh(ring(3, 0.0)).values, [0.0, 3.0, 3.0], atol=1e-10)
    assert_allclose(dense_eigh(ring(4, 0.0)).values, [0.0, 2.0, 2.0, 4.0], atol=1e-10)
    s2 = math.sqrt(2.0)
    assert_allclose(
        ring_spectrum_oracle(4, 0.5), [2 - s2, 2 - s2, 2 + s2, 2 + s2], atol=1e-12
    )
    assert_allclose(ring_spectrum_oracle(5, 1.0), ring_spectrum_oracle(5, 0.0), atol=1e-12)


def test_assembled_matrix_is_exactly_hermitian():
    lat = build_lattice(8, 5, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.37), HoppingParams())
    dense = h.toarray()
    assert np.array_equal(dense, dense.conj().T)


def test_assemble_diagonal_uniform_at_walls():
    lat = build_lattice(5, 3, ANNULUS)
    hop = HoppingParams(tx=1.0, ty=0.7)
    dense = assemble(lat, uniform_flux_field(lat, 0.1), hop).toarray()
    assert_allclose(np.diag(dense), 2 * hop.tx + 2 * hop.ty)


def test_assemble_potential_shifts_spectrum():
    lat = build_lattice(6, 3, MOEBIUS)
    field = uniform_flux_field(lat, 0.21)
    hop = HoppingParams()
    base = dense_eigh(assemble(lat, field, hop)).values
    shifted = dense_eigh(assemble(lat, field, hop, pot=np.full((6, 3), 0.5))).values
    assert_allclose(shifted, base + 0.5, atol=1e-10)


def test_assemble_input_validation():
    lat = build_lattice(6, 3, MOEBIUS)
    other = build_lattice(6, 3, ANNULUS)
    with pytest.raises(LatticeError):
        assemble(lat, uniform_flux_field(other, 0.0), HoppingParams())
    with pytest.raises(LatticeError):
        assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(), pot=np.zeros(5))
    # a potential's entries are checked with the operator's, by the one finiteness check
    for bad in (np.nan, np.inf, 1e200):
        pot = np.zeros((6, 3))
        pot[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(), pot=pot)


def test_sparse_hermitian_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        SparseHermitian(bad)


# 1e308 is finite, but H + H^dagger, which the stored operator halves, overflows
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), 1e308])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_entries_are_refused(bad):
    # a NaN compares false with the 1e-12 bound, so the Hermiticity check alone let it through
    for m in (np.array([[bad, 1.0], [1.0, 0.0]]), np.array([[0.0, bad], [np.conj(bad), 0.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            SparseHermitian(m)
    pencil = FluxPencil(sector_isometry(build_lattice(6, 3, MOEBIUS), ODD), HoppingParams())
    # the pencil's blocks are float64; a complex entry goes into complex blocks, the other path
    pencil._data = pencil._data.astype(np.result_type(pencil._data, bad))
    pencil._data[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pencil.at(0.3)


def test_reflection_permutation():
    lat = build_lattice(5, 5, ANNULUS)
    perm = reflection_permutation(lat)
    assert perm[lat.site_id(Site(3, 0))] == lat.site_id(Site(3, 4))
    assert perm[lat.site_id(Site(3, 2))] == lat.site_id(Site(3, 2))
    assert np.array_equal(perm[perm], np.arange(lat.n_sites))
    with pytest.raises(LatticeError):
        reflection_permutation(build_lattice(5, 4, ANNULUS))


def test_reflection_commutes_with_assembled_operator():
    # exhaustive entrywise check on nx=4, ny=3
    lat = build_lattice(4, 3, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams()).toarray()
    perm = reflection_permutation(lat)
    conjugated = h[np.ix_(perm, perm)]
    assert np.array_equal(conjugated, h)


def test_sector_isometry_dimensions_and_orthonormality():
    lat = build_lattice(4, 3, MOEBIUS)
    full = sector_isometry(lat, FULL)
    odd = sector_isometry(lat, ODD)
    even = sector_isometry(lat, EVEN)
    assert full.dim == 12 and odd.dim == 4 and even.dim == 8
    assert odd.dim + even.dim == lat.n_sites
    for iso in (full, odd, even):
        gram = (iso.matrix.conj().T @ iso.matrix).toarray()
        assert_allclose(gram, np.eye(iso.dim), atol=1e-15)


def test_odd_sector_vectors_vanish_on_center_row():
    lat = build_lattice(6, 5, MOEBIUS)
    odd = sector_isometry(lat, ODD)
    rng = np.random.default_rng(2)
    vec = odd.embed(rng.standard_normal(odd.dim))
    c = lat.center_row
    for i in range(lat.nx):
        assert vec[lat.site_id(Site(i, c))] == 0.0


def test_sector_completeness():
    lat = build_lattice(6, 5, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.41), HoppingParams())
    full = dense_eigh(h).values
    pieces = np.concatenate(
        [dense_eigh(restrict(h, sector_isometry(lat, p))).values for p in (EVEN, ODD)]
    )
    assert_allclose(np.sort(pieces), full, atol=1e-10)


def test_odd_sector_equals_half_width_annulus_shifted():
    # the central mechanism: dense solves of both sides, entrywise
    band = build_lattice(6, 5, MOEBIUS)
    ringlat = build_lattice(6, 2, ANNULUS)
    hop = HoppingParams()
    iso = sector_isometry(band, ODD)
    for f in (0.0, 0.17, 0.5, 0.93):
        e_odd = dense_eigh(
            restrict(assemble(band, uniform_flux_field(band, f), hop), iso)
        ).values
        e_ann = dense_eigh(assemble(ringlat, uniform_flux_field(ringlat, f + 0.5), hop)).values
        assert_allclose(e_odd, e_ann, atol=1e-10)


def test_restrict_rejects_symmetry_breaking_potential():
    lat = build_lattice(6, 5, MOEBIUS)
    pot = np.zeros((6, 5))
    pot[2, 0] = 1.0  # breaks y -> -y
    h = assemble(lat, uniform_flux_field(lat, 0.1), HoppingParams(), pot=pot)
    with pytest.raises(SymmetryViolationError):
        restrict(h, sector_isometry(lat, ODD))


def test_restrict_rejects_asymmetric_y_angles():
    from mobiusflux.gauge import GaugeField

    lat = build_lattice(6, 5, MOEBIUS)
    theta_y = np.zeros((6, 4))
    theta_y[1, 0] = 0.4
    field = GaugeField(lat, uniform_flux_field(lat, 0.1).theta_x, theta_y)
    h = assemble(lat, field, HoppingParams())
    with pytest.raises(SymmetryViolationError):
        restrict(h, sector_isometry(lat, EVEN))


def test_flux_pencil_keeps_the_leak_and_hermiticity_checks(monkeypatch):
    lat = build_lattice(6, 5, MOEBIUS)
    hop = HoppingParams()
    # the first sites span no sector: the x links leave it
    corner = SectorIsometry(lat, EVEN, sp.identity(lat.n_sites, format="csc")[:, :7])
    with pytest.raises(SymmetryViolationError):
        FluxPencil(corner, hop)
    # the pieces' leaks are summed: three of 0.4e-12 each meet the bound alone, not together
    project = hamiltonian._project
    monkeypatch.setattr(hamiltonian, "_project", lambda m, iso: (project(m, iso)[0], 0.4e-12))
    with pytest.raises(SymmetryViolationError):
        FluxPencil(sector_isometry(lat, ODD), hop)
    monkeypatch.undo()
    # every piece is checked Hermitian when the pencil is built: a hop off by 1e-9 on the
    # first +x link and on its mirror image across the center row, not on their conjugates,
    # keeps the pieces reflection symmetric, so it is no leak
    values = hamiltonian._link_values

    def skewed(*args):
        vals = values(*args)
        vals[[lat.n_sites, lat.n_sites + lat.ny - 1]] += 1e-9
        return vals

    monkeypatch.setattr(hamiltonian, "_link_values", skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        FluxPencil(sector_isometry(lat, ODD), hop)
    monkeypatch.undo()
    # the pieces' defects are summed: three of 0.4e-12 each meet the bound alone, not together
    def skewed_project(m, iso):
        block, leak = project(m, iso)
        return block + sp.csr_matrix(([0.4e-12], ([0], [1])), shape=block.shape), leak

    monkeypatch.setattr(hamiltonian, "_project", skewed_project)
    pattern, data = hamiltonian._sector_blocks(sector_isometry(lat, ODD),
                                               [sp.identity(lat.n_sites, format="csr")])
    assert len(data) == 1
    pattern.symmetrized(data)  # one alone passes
    with pytest.raises(ValueError, match="not Hermitian"):
        FluxPencil(sector_isometry(lat, ODD), hop)


def test_assemble_keeps_its_hermiticity_check(monkeypatch):
    # the operator is Hermitian by construction; a hop off by 1e-9 must still be caught
    lat = build_lattice(6, 3, MOEBIUS)
    values = hamiltonian._link_values

    def skewed(*args):
        vals = values(*args)
        vals[lat.n_sites] += 1e-9  # the first +x link, not its conjugate
        return vals

    monkeypatch.setattr(hamiltonian, "_link_values", skewed)
    with pytest.raises(ValueError, match="not Hermitian"):
        assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams())
    n = lat.n_sites
    links = sp.coo_matrix((hamiltonian._link_values(lat, 4.0, -np.ones(n), None),
                           hamiltonian._link_coords(lat, False)), shape=(n, n))
    with pytest.raises(ValueError, match="not Hermitian"):
        SparseHermitian(links + sp.coo_matrix(([1e-9], ([1], [0])), shape=(n, n)))


def test_restrict_dimension_mismatch():
    lat = build_lattice(6, 5, MOEBIUS)
    other = build_lattice(8, 5, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams())
    with pytest.raises(ValueError):
        restrict(h, sector_isometry(other, ODD))


def test_spectrum_gauge_invariance():
    lat = build_lattice(6, 5, MOEBIUS)
    hop = HoppingParams()
    rng = np.random.default_rng(4)
    field = uniform_flux_field(lat, 0.62)
    base = dense_eigh(assemble(lat, field, hop)).values
    for _ in range(3):
        moved = apply_gauge_transform(field, random_gauge_transform(lat, rng))
        assert_allclose(dense_eigh(assemble(lat, moved, hop)).values, base, atol=1e-10)


@pytest.mark.parametrize("f", [0.0, 0.21, 0.5])
def test_flux_periodicity_and_reflection(f):
    lat = build_lattice(6, 5, MOEBIUS)
    hop = HoppingParams()

    def spectrum(x):
        return dense_eigh(assemble(lat, uniform_flux_field(lat, x), hop)).values

    assert_allclose(spectrum(f), spectrum(f + 1.0), atol=1e-10)
    assert_allclose(spectrum(f), spectrum(-f), atol=1e-10)


def test_sector_isometry_needs_center_row():
    with pytest.raises(LatticeError):
        sector_isometry(build_lattice(6, 4, MOEBIUS), ODD)
    with pytest.raises(LatticeError, match="odd sector"):
        sector_isometry(build_lattice(6, 1, MOEBIUS), ODD)
    assert sector_isometry(build_lattice(6, 1, MOEBIUS), EVEN).dim == 6
    with pytest.raises(ValueError):
        sector_isometry(build_lattice(6, 5, MOEBIUS), "left")


def _product_isometry(lat, sector):
    """The basis as the sparse product B W, mirror partners read off B^T (M B)."""
    if sector == FULL:
        b = sp.identity(lat.n_sites, format="csc")
    else:
        c = lat.center_row
        grid = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)
        below = grid[:, :c].reshape(-1)
        pairs = np.arange(below.size)
        sign = 1.0 if sector == EVEN else -1.0
        rows = [below, reflection_permutation(lat)[below]]
        cols = [pairs, pairs]
        vals = [np.full(below.size, 1.0 / np.sqrt(2.0)), np.full(below.size, sign / np.sqrt(2.0))]
        if sector == EVEN:
            rows.append(grid[:, c])
            cols.append(below.size + np.arange(lat.nx))
            vals.append(np.ones(lat.nx))
        b = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(lat.n_sites, pairs.size + (lat.nx if sector == EVEN else 0)))
    mirror = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[::-1].reshape(-1)
    partner = (b.T @ b[mirror]).tocsc().indices
    p = np.arange(b.shape[1])
    lo, fixed = p < partner, p == partner
    a, q = p[lo], partner[lo]
    s = np.full(a.size, 1.0 / np.sqrt(2.0))
    w = sp.csc_matrix(
        (np.concatenate([s, s, 1j * s, -1j * s, np.ones(np.count_nonzero(fixed))]),
         (np.concatenate([a, q, a, q, p[fixed]]), np.concatenate([a, a, q, q, p[fixed]]))),
        shape=(p.size, p.size))
    return b @ w


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("nx", [3, 4, 7, 8, 48])
@pytest.mark.parametrize("ny", [1, 2, 3, 5, 9])
def test_sector_isometry_is_the_sparse_product_bit_for_bit(topology, nx, ny):
    # the columns written by index arithmetic are the product's, rows in its order, down to
    # the sign of every zero part, so every projection through them sums the same way
    lat = build_lattice(nx, ny, topology)
    for sector in SECTORS:
        if sector != FULL and (ny % 2 == 0 or (sector == ODD and ny == 1)):
            with pytest.raises(LatticeError):
                sector_isometry(lat, sector)
            continue
        iso = sector_isometry(lat, sector)
        want = _product_isometry(lat, sector)
        assert iso.matrix.format == "csc" and iso.matrix.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, c = getattr(iso.matrix, name), getattr(want, name)
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes()
        assert np.array_equal(iso.csr.toarray(), want.toarray())
        assert np.array_equal(iso.adjoint.toarray(), want.conj().T.toarray())


def test_sparse_hermitian_is_real_only_when_every_imaginary_part_is_zero():
    assert SparseHermitian(np.array([[1.0, 2.0 + 0j], [2.0, 3.0]])).csr.dtype == np.float64
    tiny = SparseHermitian(np.array([[1.0, 2.0 + 1e-300j], [2.0 - 1e-300j, 3.0]]))
    assert tiny.csr.dtype == np.complex128


def one_store_cases():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = a + a.conj().T
    rows, cols = np.nonzero(a)
    # duplicates: every entry stored twice, as a quarter and three quarters of it
    duplicates = sp.coo_matrix((np.concatenate([0.25 * a[rows, cols], 0.75 * a[rows, cols]]),
                                (np.tile(rows, 2), np.tile(cols, 2))), shape=(5, 5))
    zeros = sp.csr_matrix(a)
    zeros.data[[1, 5]] = 0.0  # the slots (0, 1) and (1, 0), held as explicit zeros
    # a duplicate pair that sums to zero, and an off-diagonal pair (x, -x) that symmetrizes
    # to zero, x far inside the round-off bound
    cancel = sp.coo_matrix((np.array([1.0, 0.5, -0.5, 1e-14, -1e-14, 2.0, 3.0]),
                            ([0, 0, 0, 0, 1, 1, 2], [0, 2, 2, 1, 0, 1, 2])), shape=(3, 3))
    zero_diagonal = np.diag([1.0, 0.0, 2.0]) + np.eye(3, k=1) + np.eye(3, k=-1)
    real_in_complex = (np.diag([1.0, 2.0, 3.0]) + np.eye(3, k=2) + np.eye(3, k=-2)).astype(complex)
    return [duplicates, zeros, cancel, zero_diagonal, real_in_complex, a]


@pytest.mark.parametrize("m", one_store_cases())
def test_sparse_hermitian_stores_the_symmetrized_matrix_bit_for_bit(m):
    # one store for every input: the dense matrix is (M + M^H)/2, bit for bit; float64
    # exactly when every imaginary part is 0; a CSR pattern closed under transposition
    dense = m.toarray() if sp.issparse(m) else m
    dense = np.asarray(dense, dtype=complex)
    want = (dense + dense.conj().T) * 0.5
    h = SparseHermitian(m)
    got = h.toarray()
    assert got.dtype == (np.complex128 if np.any(want.imag) else np.float64)
    assert got.astype(complex).tobytes() == want.tobytes()
    csr = h.csr
    rows = np.repeat(np.arange(h.n), np.diff(csr.indptr))
    assert csr.has_canonical_format
    held = set(zip(rows.tolist(), csr.indices.tolist()))
    assert held == set(zip(csr.indices.tolist(), rows.tolist()))
    assert {(i, i) for i in range(h.n)} <= held  # every diagonal slot, a zero one too
    if sp.issparse(m):  # every slot of M and of its transpose is kept, explicit zeros too
        coo = m.tocoo()
        assert set(zip(coo.row.tolist(), coo.col.tolist())) <= held
        assert set(zip(coo.col.tolist(), coo.row.tolist())) <= held


def _holds_every_diagonal_slot(h):
    csr = h.csr
    rows = np.repeat(np.arange(h.n), np.diff(csr.indptr))
    return np.array_equal(np.unique(rows[csr.indices == rows]), np.arange(h.n))


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
def test_every_built_operator_holds_every_diagonal_slot(topology):
    # the store's diagonal rule, which the shift-and-invert factor relies on: a potential
    # of -(2 tx) zeroes every diagonal entry at ty = 0, and the slots stay
    lat = build_lattice(6, 5, topology)
    hop = HoppingParams(ty=0.0)
    h = assemble(lat, uniform_flux_field(lat, 0.3), hop, pot=np.full(lat.n_sites, -2.0))
    assert not np.any(h.csr.diagonal())
    assert _holds_every_diagonal_slot(h)
    for sector in (FULL, EVEN, ODD):
        iso = sector_isometry(lat, sector)
        assert _holds_every_diagonal_slot(restrict(h, iso))
        for ty in (0.0, 1.0):
            assert _holds_every_diagonal_slot(FluxPencil(iso, HoppingParams(ty=ty)).at(0.3))


def _old_pencil_pieces(lat, hop):
    """R, X and Y as three COO matrices, each holding only its own entries and the diagonal."""
    n = lat.n_sites
    ids = np.arange(n)
    below = ids.reshape(lat.nx, lat.ny)[:, :-1].reshape(-1)
    diag = np.full(n, 2.0 * hop.tx + 2.0 * hop.ty)
    if hop.ty != 0.0:
        r = sp.coo_matrix((np.concatenate([diag, np.full(2 * below.size, -hop.ty)]),
                           (np.concatenate([ids, below + 1, below]),
                            np.concatenate([ids, below, below + 1]))), shape=(n, n))
    else:
        r = sp.coo_matrix((diag, (ids, ids)), shape=(n, n))
    links = (np.concatenate([ids, lat.x_next, ids]), np.concatenate([ids, ids, lat.x_next]))
    tx = np.full(n, hop.tx)
    x = sp.coo_matrix((np.concatenate([np.zeros(n), -tx, -tx]), links), shape=(n, n))
    y_hop = -1j * tx
    y = sp.coo_matrix((np.concatenate([np.zeros(n), y_hop, y_hop.conj()]), links), shape=(n, n))
    return r, x, y


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("ty", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("ny", [1, 3, 9])
def test_flux_pencil_pieces_on_the_link_layout_are_the_per_piece_construction(topology, ty, ny):
    # the pieces laid on assemble's pattern, zeros on the links each does not hold, project
    # to the same blocks, bit for bit, as pieces that hold only their own entries; the pencil
    # keeps them symmetrized, (P + P^T)/2
    lat = build_lattice(8, ny, topology)
    hop = HoppingParams(ty=ty)
    for sector in SECTORS:
        try:
            iso = sector_isometry(lat, sector)
        except LatticeError:
            continue
        blocks = [hamiltonian._project(piece.tocsr(), iso)[0]
                  for piece in _old_pencil_pieces(lat, hop)]
        pattern, data = hamiltonian._Pattern.of_matrices(blocks, iso.dim)
        symmetrized = (data + data[:, pattern.transpose]) * 0.5
        pencil = FluxPencil(iso, hop)
        assert pencil._data.dtype == data.dtype and pencil._data.tobytes() == symmetrized.tobytes()
        got, want = pencil._pattern, pattern
        for a, c in ((got.template.indices, want.template.indices),
                     (got.template.indptr, want.template.indptr), (got.transpose, want.transpose)):
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes()
        # the blocks are stored as float64: the complex projection laid on the same pattern
        # has exactly these real parts, and every imaginary part is 0.0
        keys = (np.repeat(np.arange(iso.dim), np.diff(pattern.template.indptr)) * iso.dim
                + pattern.template.indices)
        projected = np.zeros((len(blocks), keys.size), dtype=complex)
        for row, block in zip(projected, blocks):
            coo = block.tocoo()
            row[np.searchsorted(keys, coo.row * iso.dim + coo.col)] = coo.data
        assert pencil._data.dtype == np.float64
        real = projected.real
        assert pencil._data.tobytes() == ((real + real[:, pattern.transpose]) * 0.5).tobytes()
        assert np.all(projected.imag == 0.0)


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("ty", [0.0, 0.01, 0.3, 1.0, 7.3])
def test_flux_pencil_points_are_the_per_point_rule_bit_for_bit(topology, ty):
    # the pieces are symmetrized once, not each point: every point's CSR arrays are those of
    # the unsymmetrized pieces combined, then checked and symmetrized as restrict's store does
    hop = HoppingParams(ty=ty)
    for nx in (3, 4, 7, 8, 48):
        for ny in (1, 2, 3, 5, 9):
            lat = build_lattice(nx, ny, topology)
            for sector in SECTORS:
                try:
                    iso = sector_isometry(lat, sector)
                except LatticeError:
                    continue
                blocks = [hamiltonian._project(piece.tocsr(), iso)[0]
                          for piece in _old_pencil_pieces(lat, hop)]
                pattern, (r, x, y) = hamiltonian._Pattern.of_matrices(blocks, iso.dim)
                pencil = FluxPencil(iso, hop)
                for f in (0.0, 0.25, 0.3, 0.5, -1.7, nx / 4, 12.345):
                    phi = uniform_flux_angle(lat, f)
                    want = pattern.hermitian(r + math.cos(phi) * x + math.sin(phi) * y).csr
                    got = pencil.at(f).csr
                    for name in ("data", "indices", "indptr"):
                        a, c = getattr(got, name), getattr(want, name)
                        assert a.dtype == c.dtype and a.tobytes() == c.tobytes()


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("ty", [0.0, 1.0])
@pytest.mark.parametrize("f", [0.0, 0.3])
def test_restrict_is_the_written_out_product_bit_for_bit(topology, ty, f):
    lat = build_lattice(8, 5, topology)
    pot = np.outer(np.ones(lat.nx), [0.5, -1.0, -2.0 - 2.0 * ty, -1.0, 0.5])  # a zero diagonal row
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams(ty=ty), pot=pot)
    for sector in SECTORS:
        iso = sector_isometry(lat, sector)
        b = iso.matrix
        got = restrict(h, iso).csr
        want = SparseHermitian(b.conj().T @ (h.csr @ b)).csr
        assert got.dtype == want.dtype
        for name in ("indptr", "indices", "data"):
            a, c = getattr(got, name), getattr(want, name)
            assert a.dtype == c.dtype and a.tobytes() == c.tobytes()


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("nx", [7, 8])
def test_real_basis_of_a_y_asymmetric_mirror_symmetric_operator(topology, nx):
    # a potential even under (i, j) -> (nx-1-i, j) but not under y -> -y:
    # no parity sector exists, yet the full operator is real in the mirror basis
    lat = build_lattice(nx, 5, topology)
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1.0, 1.0, lat.ny)
    along = rng.uniform(0.0, 1.0, lat.nx)
    pot = np.outer(along + along[::-1], rows)
    h = assemble(lat, uniform_flux_field(lat, 0.37), HoppingParams(ty=0.3), pot=pot)
    iso = sector_isometry(lat, FULL)
    hr = restrict(h, iso)
    assert hr.csr.dtype == np.float64
    with pytest.raises(SymmetryViolationError):
        restrict(h, sector_isometry(lat, EVEN))
    want = dense_eigh(h, 2)
    got = dense_eigh(hr, 2)
    assert want.values[1] - want.values[0] > 1e-3  # a unique ground state
    assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
    assert abs(nodal_amplitude(iso.embed(got.vectors[:, 0]), lat)
               - nodal_amplitude(want.vectors[:, 0], lat)) <= 1e-10


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_a_symmetry_breaking_field_is_refused_at_any_scale(scale):
    # the sector leak bound grows with the entries as round-off does, and no faster: a random
    # field's leak is of the order of the hopping itself
    from mobiusflux.gauge import GaugeField

    lat = build_lattice(8, 5, MOEBIUS)
    rng = np.random.default_rng(6)
    field = GaugeField(lat, rng.uniform(-np.pi, np.pi, (8, 5)), rng.uniform(-np.pi, np.pi, (8, 4)))
    h = assemble(lat, field, HoppingParams(tx=scale, ty=scale))
    for sector in (EVEN, ODD):
        with pytest.raises(SymmetryViolationError):
            restrict(h, sector_isometry(lat, sector))


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_sector_checks_scale_with_the_operator(scale):
    # at tx = 1e4 the leak of a symmetric operator (7e-12) once failed an absolute 1e-12 bound,
    # and at 1e6 its Hermiticity defect did; H scales with tx = ty, and so does its spectrum
    lat = build_lattice(8, 3, MOEBIUS)
    for sector in (EVEN, ODD):
        iso = sector_isometry(lat, sector)
        unit = dense_eigh(FluxPencil(iso, HoppingParams()).at(0.3)).values
        big = FluxPencil(iso, HoppingParams(tx=scale, ty=scale)).at(0.3)
        assert_allclose(dense_eigh(big).values, scale * unit, rtol=1e-12, atol=0)
        h = assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams(tx=scale, ty=scale))
        assert_allclose(dense_eigh(restrict(h, iso)).values, scale * unit, rtol=1e-12, atol=0)
