"""Property tests: the array-built core against per-site definitions.

Each reference below walks the lattice site by site through ``neighbor``,
the seam and wall rule written out per site here, independent of the
step table that is the library's one implementation of it, and must
agree exactly with the index-array code on random small lattices of both
topologies, with the seam flip on or off.  The curvature, a sum of four
rounded terms, agrees to round-off.  A loop built from its sites takes
the direction codes ``neighbor`` gives; loops are walked again through
``neighbor`` for their Wilson angle and seam crossings, and lifted to
the cut-open band.  The sector bases are checked against their defining
symmetries and against the plain operator's spectrum, the pair rule that
orders their columns on random involutions, and the sweep's flux pencil
against ``restrict`` of the assembled operator.  The decoupled two-row
ladder is held to the ring's closed form.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mobiusflux import hamiltonian
from mobiusflux.eigensolver import dense_eigh
from mobiusflux.experiments import uniform_spectrum
from mobiusflux.gauge import (
    GaugeField,
    GaugeTransform,
    apply_gauge_transform,
    face_curvature,
    lift_field,
    uniform_flux_field,
    wilson_loop,
)
from mobiusflux.hamiltonian import (
    EVEN,
    FULL,
    ODD,
    SECTORS,
    FluxPencil,
    HoppingParams,
    SparseHermitian,
    assemble,
    restrict,
    ring_spectrum_oracle,
    sector_isometry,
)
from mobiusflux.lattice import (
    ANNULUS,
    DIR_MX,
    DIR_MY,
    DIR_PX,
    DIR_PY,
    DIRECTIONS,
    MOEBIUS,
    TOPOLOGIES,
    LatticeError,
    LoopError,
    LoopPath,
    Site,
    StripLattice,
    cut_complement_of_center,
    homology_class,
    walk_loop,
)

SMALL = settings(max_examples=60, deadline=None)

ANGLES = st.floats(-10.0, 10.0)


_REVERSE = {DIR_PX: DIR_MX, DIR_MX: DIR_PX, DIR_PY: DIR_MY, DIR_MY: DIR_PY}


def neighbor(lat, site, direction):
    """One link on from ``site``, None at a wall: crossing the seam on a moebius
    lattice (seam flip on) lands on the mirrored row, j -> ny-1-j."""
    i, j = site
    if direction in (DIR_PY, DIR_MY):
        j += 1 if direction == DIR_PY else -1
        return Site(i, j) if 0 <= j < lat.ny else None
    i += 1 if direction == DIR_PX else -1
    if 0 <= i < lat.nx:
        return Site(i, j)
    return Site(i % lat.nx, lat.ny - 1 - j if lat.is_moebius and lat.seam_flip else j)


def sites(lat):
    """Every site, in site-id order."""
    return [Site(i, j) for i, j in itertools.product(range(lat.nx), range(lat.ny))]


def reflection(lat):
    """Site-id permutation of the reflection (i, j) -> (i, ny-1-j)."""
    return np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[:, ::-1].ravel()


@st.composite
def lattices(draw, ny=st.integers(1, 7), topology=st.sampled_from(TOPOLOGIES),
             seam_flip=st.booleans()):
    return StripLattice(
        nx=draw(st.integers(3, 9)),
        ny=draw(ny),
        topology=draw(topology),
        seam_flip=draw(seam_flip),
    )


@st.composite
def fields(draw, lats=lattices()):
    lat = draw(lats)
    return GaugeField(
        lattice=lat,
        theta_x=draw(hnp.arrays(float, (lat.nx, lat.ny), elements=ANGLES)),
        theta_y=draw(hnp.arrays(float, (lat.nx, lat.ny - 1), elements=ANGLES)),
    )


@SMALL
@given(lattices())
def test_x_next_is_the_plus_x_neighbor(lat):
    # and the step table's row for each direction is that neighbour, -1 at a wall
    assert lat.step_table.shape == (len(DIRECTIONS), lat.n_sites)
    assert not lat.step_table.flags.writeable
    for site in sites(lat):
        assert lat.x_next[lat.site_id(site)] == lat.site_id(neighbor(lat, site, DIR_PX))
        for code, direction in enumerate(DIRECTIONS):
            there = neighbor(lat, site, direction)
            want = -1 if there is None else lat.site_id(there)
            assert lat.step_table[code, lat.site_id(site)] == want


@SMALL
@given(fields(), st.floats(0.1, 3.0), st.sampled_from((0.0, 0.01, 1.0, 2.5)), st.data())
def test_assemble_entries_are_the_peierls_link_values(field, tx, ty, data):
    lat = field.lattice
    pot = data.draw(hnp.arrays(float, lat.n_sites, elements=st.floats(-5.0, 5.0)))
    got = assemble(lat, field, HoppingParams(tx=tx, ty=ty), pot).toarray()
    want = np.zeros((lat.n_sites, lat.n_sites), dtype=complex)
    for site in sites(lat):
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
@given(fields(), st.floats(0.1, 3.0), st.sampled_from((0.0, 0.01, 1.0, 2.5)), st.data())
def test_assemble_is_the_generic_hermitian_round_trip_bit_for_bit(field, tx, ty, data):
    # the CSR written straight from the link arrays against SparseHermitian of the same
    # entries; a potential of -(2 tx + 2 ty) zeroes a diagonal entry, which both keep as an
    # explicit zero, since both go through the one store
    lat = field.lattice
    diag = 2.0 * tx + 2.0 * ty
    pot = data.draw(st.none() | hnp.arrays(float, lat.n_sites,
                                           elements=st.floats(-5.0, 5.0) | st.just(-diag)))
    got = assemble(lat, field, HoppingParams(tx=tx, ty=ty), pot).csr
    x_hop = -tx * np.exp(1j * field.theta_x.reshape(-1))
    y_hop = -ty * np.exp(1j * field.theta_y.reshape(-1))
    v = np.zeros(lat.n_sites) if pot is None else pot
    n = lat.n_sites
    want = SparseHermitian(sp.coo_matrix(
        (hamiltonian._link_values(lat, diag + v, x_hop, y_hop),
         hamiltonian._link_coords(lat)), shape=(n, n))).csr
    assert got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@SMALL
@given(fields(), st.data())
def test_gauge_transform_shifts_each_link_by_the_chi_difference(field, data):
    lat = field.lattice
    chi = data.draw(hnp.arrays(float, (lat.nx, lat.ny), elements=ANGLES))
    got = apply_gauge_transform(field, GaugeTransform(lattice=lat, chi=chi))
    for site in sites(lat):
        v = neighbor(lat, site, DIR_PX)
        assert got.theta_x[site] == field.theta_x[site] + (chi[v] - chi[site])
        w = neighbor(lat, site, DIR_PY)
        if w is not None:
            assert got.theta_y[site] == field.theta_y[site] + (chi[w] - chi[site])


@SMALL
@given(lattices(ny=st.sampled_from((1, 3, 5, 7))), st.sampled_from(SECTORS))
def test_sector_isometry_is_an_orthonormal_reflection_eigenbasis(lat, sector):
    if sector == ODD and lat.ny == 1:  # the odd sector of one row is empty
        with pytest.raises(LatticeError):
            sector_isometry(lat, sector)
        return
    b = sector_isometry(lat, sector).matrix.toarray()
    assert np.allclose(b.conj().T @ b, np.eye(b.shape[1]), rtol=0.0, atol=1e-15)
    if sector != FULL:
        sign = 1.0 if sector == EVEN else -1.0
        assert np.array_equal(b[reflection(lat)], sign * b)


@st.composite
def involutions(draw):
    """An involution of 0..n-1, n <= 40: disjoint transpositions of shuffled points, whose
    orbits interleave as neither the reflection nor the mirror of a lattice makes them."""
    points = draw(st.permutations(range(draw(st.integers(0, 40)))))
    pairs = np.array(points[:2 * draw(st.integers(0, len(points) // 2))], dtype=np.intp)
    perm = np.arange(len(points))
    perm[pairs[0::2]], perm[pairs[1::2]] = pairs[1::2], pairs[0::2]
    return perm


@SMALL
@given(involutions())
def test_pairs_are_ordered_by_their_smaller_point_then_the_fixed_points(perm):
    # the order the sector bases' columns, and so their bytes, rest on
    lo, hi, fixed = hamiltonian._pairs(perm)
    points = np.arange(perm.size)
    assert np.array_equal(np.sort(np.concatenate([lo, hi, fixed])), points)
    assert np.all(np.diff(lo) > 0)
    assert np.array_equal(perm[lo], hi) and np.all(hi > lo)
    assert np.array_equal(fixed, points[perm == points])


def _sectors(lat):
    """The sectors lat has: parity needs a center row, and one row has no odd states."""
    if lat.ny % 2 == 0:
        return (FULL,)
    return (FULL, EVEN) if lat.ny == 1 else (FULL, EVEN, ODD)


# the flux values that matter most (0 and the half quanta) and large phases
FLUXES = st.one_of(st.sampled_from((0.0, 0.5, -0.5)), st.floats(-2.0, 2.0),
                   st.floats(-1e3, 1e3))


@SMALL
@given(lattices(), FLUXES, st.data())
def test_sector_isometry_makes_uniform_flux_real_with_the_same_spectrum(lat, f, data):
    hop = HoppingParams(ty=data.draw(st.sampled_from((0.0, 0.01, 1.0))))
    h = assemble(lat, uniform_flux_field(lat, f), hop)
    # a y-symmetric gauge transform keeps the parity sectors but breaks the mirror
    chi = data.draw(hnp.arrays(float, (lat.nx, lat.ny), elements=ANGLES))
    g = GaugeTransform(lattice=lat, chi=chi + chi[:, ::-1])
    moved = assemble(lat, apply_gauge_transform(uniform_flux_field(lat, f), g), hop)
    mirror = np.arange(lat.n_sites).reshape(lat.nx, lat.ny)[::-1].reshape(-1)
    # the reference is the plain operator's spectrum in the site basis: the
    # full sector must equal it, and so must sort(even + odd) where they exist
    plain = [dense_eigh(op).values for op in (h, moved)]
    parity_parts = ([], [])
    for sector in _sectors(lat):
        iso = sector_isometry(lat, sector)
        assert iso.parity == sector
        u = iso.matrix.toarray()
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), rtol=0.0, atol=1e-15)
        assert np.array_equal(u.conj()[mirror], u)  # every column is fixed by M K
        if sector != FULL:
            sign = 1.0 if sector == EVEN else -1.0
            assert np.array_equal(u[reflection(lat)], sign * u)
        hr = restrict(h, iso)
        assert hr.csr.dtype == np.float64
        # the sweep's pencil: the same real operator, exactly symmetric
        at_f = FluxPencil(iso, hop).at(f)
        assert at_f.csr.dtype == np.float64
        assert np.array_equal(at_f.toarray(), at_f.toarray().T)
        assert np.max(np.abs(dense_eigh(at_f).values - dense_eigh(hr).values)) <= 1e-12
        for in_basis, want, parts in zip((hr, restrict(moved, iso)), plain, parity_parts):
            got = dense_eigh(in_basis).values
            if sector == FULL:
                assert np.max(np.abs(got - want)) <= 1e-12
            else:
                parts.append(got)
    for want, parts in zip(plain, parity_parts):
        if parts:
            assert np.max(np.abs(np.sort(np.concatenate(parts)) - want)) <= 1e-12


@SMALL
@given(st.integers(3, 24), st.floats(-2.0, 2.0))
def test_the_decoupled_ladder_is_rings_of_its_rows(nx, f):
    # at ty = 0 the seam chains the moebius ladder's two rows into one ring of 2 nx
    # sites that winds twice, so it sees flux 2f; the annulus keeps two rings of nx
    hop = HoppingParams(ty=0.0)
    np.testing.assert_allclose(uniform_spectrum(StripLattice(nx, 2, MOEBIUS), f, hop),
                               ring_spectrum_oracle(2 * nx, 2 * f), rtol=0, atol=1e-12)
    np.testing.assert_allclose(uniform_spectrum(StripLattice(nx, 2, ANNULUS), f, hop),
                               np.repeat(ring_spectrum_oracle(nx, f), 2), rtol=0, atol=1e-12)


def _link_angle(field, site, d):
    """Signed angle of one directed link; a reverse link negates the canonical one."""
    i, j = site
    if d == DIR_PX:
        return float(field.theta_x[i, j])
    if d == DIR_MX:
        u = neighbor(field.lattice, site, DIR_MX)
        return -float(field.theta_x[u])
    if d == DIR_PY:
        return float(field.theta_y[i, j])
    return -float(field.theta_y[i, j - 1])


def _face_boundary_angle(field, corner):
    """Angle around one face, walked counterclockwise in the face's own chart.

    After a column step that reverses the rows (the moebius seam) the
    chart's y axis points against the lattice's, so in-chart y steps are
    lattice steps the other way until the walk crosses back.
    """
    lat, pos, flipped, angles = field.lattice, Site(*corner), False, []
    for chart_dir in (DIR_PX, DIR_PY, DIR_MX, DIR_MY):
        d = _REVERSE[chart_dir] if flipped and chart_dir in (DIR_PY, DIR_MY) else chart_dir
        angles.append(_link_angle(field, pos, d))
        if d in (DIR_PX, DIR_MX) and neighbor(lat, Site(pos.i, 0), d).j != 0:
            flipped = not flipped
        pos = neighbor(lat, pos, d)
    assert pos == Site(*corner)
    return math.fsum(angles)


@SMALL
@given(fields())
def test_face_curvature_is_each_face_boundary_angle(field):
    lat = field.lattice
    got = face_curvature(field)
    assert got.shape == field.theta_y.shape
    for i in range(lat.nx):
        for j in range(lat.ny - 1):
            assert abs(got[i, j] - _face_boundary_angle(field, (i, j))) <= 1e-12


@st.composite
def loops(draw, lat):
    """A closed walk: a random path with backtracks, 1-2 circuits of +x, the path reversed."""
    pos = Site(draw(st.integers(0, lat.nx - 1)), draw(st.integers(0, lat.ny - 1)))
    path = []
    for d in draw(st.lists(st.sampled_from(DIRECTIONS), max_size=30)):
        nxt = neighbor(lat, pos, d)
        if nxt is not None:
            path.append((pos, d))
            pos = nxt
    circuit = []
    for _ in range(draw(st.integers(1, 2))):
        here = pos
        while True:
            circuit.append((here, DIR_PX))
            here = neighbor(lat, here, DIR_PX)
            if here == pos:
                break
    back = [(neighbor(lat, site, d), _REVERSE[d]) for site, d in reversed(path)]
    steps = path + circuit + back
    k = draw(st.integers(0, len(steps) - 1))  # start the loop anywhere along it
    steps = steps[k:] + steps[:k]
    return walk_loop(lat, steps[0][0], [d for _, d in steps])


def _walked(loop):
    """The loop's (site, direction) steps, walked from its start through ``neighbor``."""
    lat = loop.lattice
    pos, out = Site(*divmod(int(loop.sites[0]), lat.ny)), []
    for code, site_id in zip(loop.steps.tolist(), loop.sites[1:].tolist()):
        out.append((pos, DIRECTIONS[code]))
        pos = neighbor(lat, pos, DIRECTIONS[code])
        assert lat.site_id(pos) == site_id
    return out


@SMALL
@given(fields(), st.data())
def test_wilson_loop_is_the_per_step_sum_bit_for_bit(field, data):
    loop = data.draw(loops(field.lattice))
    want = math.fsum(_link_angle(field, site, d) for site, d in _walked(loop))
    assert wilson_loop(field, loop).angle == want


@SMALL
@given(lattices(), st.data())
def test_homology_class_is_the_signed_count_of_seam_crossings(lat, data):
    loop = data.draw(loops(lat))
    crossings = 0
    for site, d in _walked(loop):
        if d in (DIR_PX, DIR_MX) and abs(neighbor(lat, site, d).i - site.i) > 1:
            crossings += 1 if d == DIR_PX else -1
    assert homology_class(lat, loop) == crossings


@SMALL
@given(fields(), st.data())
def test_a_loop_is_its_sites(field, data):
    # each step's code is the one direction whose neighbour is the next site
    lat = field.lattice
    loop = data.draw(loops(lat))
    ids = loop.sites.tolist()
    walk = []
    for here, there in zip(ids, ids[1:]):
        site = Site(*divmod(here, lat.ny))
        hits = [d for d in DIRECTIONS if neighbor(lat, site, d) is not None
                and lat.site_id(neighbor(lat, site, d)) == there]
        assert len(hits) == 1
        walk.append((site, hits[0]))
    again = LoopPath(lat, ids)
    assert again.steps.tolist() == [DIRECTIONS.index(d) for _, d in walk]
    assert all(np.array_equal(a, b) for a, b in zip(again.links, loop.links))
    assert homology_class(lat, again) == homology_class(lat, loop)
    angle = wilson_loop(field, again).angle
    assert angle == wilson_loop(field, loop).angle
    assert angle == math.fsum(_link_angle(field, site, d) for site, d in walk)


CUT_BANDS = lattices(ny=st.sampled_from((3, 5, 7)), topology=st.just(MOEBIUS),
                     seam_flip=st.just(True))


@SMALL
@given(fields(CUT_BANDS), st.data())
def test_lift_halves_the_class_and_keeps_the_wilson_angle(field, data):
    band = field.lattice
    loop = data.draw(loops(band))
    corr = cut_complement_of_center(band)
    if any(site.j == band.center_row for site, _ in _walked(loop)):
        with pytest.raises(LoopError):
            corr.lift_loop(loop)
        return
    lifted = corr.lift_loop(loop)
    assert 2 * homology_class(corr.cut, lifted) == homology_class(band, loop)
    assert wilson_loop(lift_field(corr, field), lifted).angle == wilson_loop(field, loop).angle


@SMALL
@given(CUT_BANDS, st.data())
def test_a_lifted_step_is_the_band_step_with_y_flipped_below_the_center(band, data):
    # cut rows below the center run against the band rows, so a y step there turns round
    loop = data.draw(loops(band))
    walk = _walked(loop)
    if any(site.j == band.center_row for site, _ in walk):
        return
    lifted = cut_complement_of_center(band).lift_loop(loop)
    want = [_REVERSE[d] if site.j < band.center_row and d in (DIR_PY, DIR_MY) else d
            for site, d in walk]
    assert [DIRECTIONS[code] for code in lifted.steps.tolist()] == want
