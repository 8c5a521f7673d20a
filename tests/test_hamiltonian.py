"""Operator assembly, the ring oracle, parity sectors and restriction."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from mobiusflux import hamiltonian
from mobiusflux.eigensolver import dense_eigh
from mobiusflux.gauge import apply_gauge_transform, uniform_flux_field
from mobiusflux.experiments import nodal_amplitude
from mobiusflux.hamiltonian import (
    EVEN,
    FULL,
    ODD,
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


def test_sparse_hermitian_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        SparseHermitian(bad)


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
    # every point is checked Hermitian: a defect in the cos(phi) piece shows at f = 0
    pencil = FluxPencil(sector_isometry(lat, ODD), hop)
    transpose = pencil._pattern.transpose
    off_diagonal = np.flatnonzero(transpose != np.arange(transpose.size))[0]
    pencil._data[1, off_diagonal] += 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        pencil.at(0.0)


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
    with pytest.raises(ValueError, match="not Hermitian"):
        SparseHermitian(hamiltonian._link_operator(lat, 4.0, -np.ones(lat.n_sites), None)
                        + sp.coo_matrix(([1e-9], ([1], [0])), shape=(lat.n_sites,) * 2))


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


def test_sparse_hermitian_is_real_only_when_every_imaginary_part_is_zero():
    assert SparseHermitian(np.array([[1.0, 2.0 + 0j], [2.0, 3.0]])).csr.dtype == np.float64
    tiny = SparseHermitian(np.array([[1.0, 2.0 + 1e-300j], [2.0 - 1e-300j, 3.0]]))
    assert tiny.csr.dtype == np.complex128


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
