"""Property tests: the array-built core against per-site definitions.

Each reference below walks the lattice site by site through ``neighbor``,
the one implementation of the seam rule, and must agree exactly with the
index-array code on random small lattices of both topologies, with the
seam flip on or off.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mobiusflux.gauge import GaugeField, GaugeTransform, apply_gauge_transform
from mobiusflux.hamiltonian import (
    EVEN,
    PARITIES,
    HoppingParams,
    assemble,
    reflection_permutation,
    sector_isometry,
)
from mobiusflux.lattice import DIR_PX, DIR_PY, TOPOLOGIES, StripLattice, neighbor

SMALL = settings(max_examples=60, deadline=None)

ANGLES = st.floats(-10.0, 10.0)


@st.composite
def lattices(draw, ny=st.integers(1, 7)):
    return StripLattice(
        nx=draw(st.integers(3, 9)),
        ny=draw(ny),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        seam_flip=draw(st.booleans()),
    )


@st.composite
def fields(draw):
    lat = draw(lattices())
    return GaugeField(
        lattice=lat,
        theta_x=draw(hnp.arrays(float, (lat.nx, lat.ny), elements=ANGLES)),
        theta_y=draw(hnp.arrays(float, (lat.nx, lat.ny - 1), elements=ANGLES)),
    )


@SMALL
@given(lattices())
def test_x_next_is_the_plus_x_neighbor(lat):
    for site in lat.sites():
        assert lat.x_next[lat.site_id(site)] == lat.site_id(neighbor(lat, site, DIR_PX))


@SMALL
@given(fields(), st.floats(0.1, 3.0), st.sampled_from((0.0, 0.01, 1.0, 2.5)), st.data())
def test_assemble_entries_are_the_peierls_link_values(field, tx, ty, data):
    lat = field.lattice
    pot = data.draw(hnp.arrays(float, lat.n_sites, elements=st.floats(-5.0, 5.0)))
    got = assemble(lat, field, HoppingParams(tx=tx, ty=ty), pot).toarray()
    want = np.zeros((lat.n_sites, lat.n_sites), dtype=complex)
    for site in lat.sites():
        u = lat.site_id(site)
        want[u, u] = 2.0 * tx + 2.0 * ty + pot[u]
        for direction, t, theta in ((DIR_PX, tx, field.theta_x), (DIR_PY, ty, field.theta_y)):
            nb = neighbor(lat, site, direction)
            if nb is not None:
                v = lat.site_id(nb)
                want[v, u] = -t * np.exp(1j * theta[site])
                want[u, v] = np.conj(want[v, u])
    assert np.array_equal(got, want)


@SMALL
@given(fields(), st.data())
def test_gauge_transform_shifts_each_link_by_the_chi_difference(field, data):
    lat = field.lattice
    chi = data.draw(hnp.arrays(float, (lat.nx, lat.ny), elements=ANGLES))
    got = apply_gauge_transform(field, GaugeTransform(lattice=lat, chi=chi))
    for site in lat.sites():
        v = neighbor(lat, site, DIR_PX)
        assert got.theta_x[site] == field.theta_x[site] + (chi[v] - chi[site])
        w = neighbor(lat, site, DIR_PY)
        if w is not None:
            assert got.theta_y[site] == field.theta_y[site] + (chi[w] - chi[site])


@SMALL
@given(lattices(ny=st.sampled_from((1, 3, 5, 7))), st.sampled_from(PARITIES))
def test_sector_isometry_is_an_orthonormal_reflection_eigenbasis(lat, parity):
    b = sector_isometry(lat, parity).matrix.toarray()
    assert np.allclose(b.T @ b, np.eye(b.shape[1]), rtol=0.0, atol=1e-15)
    sign = 1.0 if parity == EVEN else -1.0
    assert np.array_equal(b[reflection_permutation(lat)], sign * b)
