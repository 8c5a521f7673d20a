"""Gauge field behavior: flatness, holonomy, gauge moves, Stokes identity."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mobiusflux.eigensolver import dense_eigh
from mobiusflux.gauge import (
    GaugeError,
    GaugeField,
    GaugeTransform,
    add_face_flux,
    apply_gauge_transform,
    face_curvature,
    lift_field,
    reduce_angle,
    stokes_defect,
    uniform_flux_field,
    wilson_loop,
)
from mobiusflux.hamiltonian import HoppingParams, assemble
from mobiusflux.lattice import (
    ANNULUS,
    MOEBIUS,
    LatticeError,
    LoopError,
    Site,
    StripLattice,
    build_lattice,
    center_loop,
    cut_complement_of_center,
    homology_class,
    offset_loop,
    walk_loop,
)
from mobiusflux.verify import _column_walk, random_class2_loop, random_gauge_transform

TAU = 2 * math.pi


def test_reduce_angle_branch():
    assert reduce_angle(math.pi) == pytest.approx(math.pi)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi)  # (-pi, pi], closed at +pi
    assert reduce_angle(3 * math.pi) == pytest.approx(math.pi)
    assert abs(reduce_angle(TAU)) < 1e-15
    assert reduce_angle(0.3 - TAU) == pytest.approx(0.3)


def test_uniform_field_angles():
    lat = build_lattice(8, 5, MOEBIUS)
    assert np.all(uniform_flux_field(lat, 0.0).theta_x == 0.0)
    f1 = uniform_flux_field(lat, 1.0)
    assert_allclose(f1.theta_x, math.pi / 4)
    assert np.all(f1.theta_y == 0.0)
    lat10 = build_lattice(10, 3, ANNULUS)
    assert_allclose(uniform_flux_field(lat10, 0.5).theta_x, math.pi / 10)


def test_wilson_center_and_offset_values():
    lat = build_lattice(8, 5, MOEBIUS)
    cl, ol = center_loop(lat), offset_loop(lat, 0)
    res = wilson_loop(uniform_flux_field(lat, 1.0), cl)
    assert res.angle == pytest.approx(TAU, abs=1e-12)
    assert res.holonomy == pytest.approx(1.0, abs=1e-12)
    res = wilson_loop(uniform_flux_field(lat, 0.5), cl)
    assert res.angle == pytest.approx(math.pi, abs=1e-12)
    assert res.holonomy == pytest.approx(-1.0, abs=1e-12)
    # going around twice doubles the angle: half flux is invisible on the offset loop
    res = wilson_loop(uniform_flux_field(lat, 0.5), ol)
    assert res.angle == pytest.approx(TAU, abs=1e-12)
    assert res.holonomy == pytest.approx(1.0, abs=1e-12)


def test_offset_angle_is_exactly_twice_center_angle():
    lat = build_lattice(8, 5, MOEBIUS)
    cl, ol = center_loop(lat), offset_loop(lat, 0)
    rng = np.random.default_rng(11)
    for f in rng.uniform(-3, 3, 20):
        field = uniform_flux_field(lat, float(f))
        assert wilson_loop(field, ol).angle == 2.0 * wilson_loop(field, cl).angle


def test_holonomy_modulus_is_one():
    lat = build_lattice(8, 5, MOEBIUS)
    rng = np.random.default_rng(3)
    field = apply_gauge_transform(
        uniform_flux_field(lat, 0.7), random_gauge_transform(lat, rng)
    )
    for loop in (center_loop(lat), offset_loop(lat, 1), random_class2_loop(lat, rng)):
        assert abs(wilson_loop(field, loop).holonomy) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("topo", [ANNULUS, MOEBIUS])
def test_uniform_field_is_flat_everywhere(topo):
    lat = build_lattice(8, 5, topo)
    for f in (0.0, 0.5, 1.7, -2.3):
        curvature = face_curvature(uniform_flux_field(lat, f))
        assert curvature.shape == (8, 4)
        assert np.all(curvature == 0.0)  # exact cancellation


def test_add_face_flux_localizes_curvature():
    lat = build_lattice(6, 5, MOEBIUS)
    base = uniform_flux_field(lat, 0.37)
    for target in (Site(2, 1), Site(5, 3), Site(0, 0)):  # interior, seam, wall
        expected = np.zeros((6, 4))
        expected[target] = 0.3
        assert_allclose(face_curvature(add_face_flux(base, target, 0.3)), expected, atol=1e-12)


def test_add_face_flux_inverse_and_zero():
    lat = build_lattice(6, 5, ANNULUS)
    base = uniform_flux_field(lat, 0.2)
    face = Site(3, 2)
    assert np.array_equal(add_face_flux(base, face, 0.0).theta_x, base.theta_x)
    back = add_face_flux(add_face_flux(base, face, 0.3), face, -0.3)
    assert_allclose(back.theta_x, base.theta_x, atol=1e-15)


def test_add_face_flux_shifts_boundary_wilson_angle():
    lat = build_lattice(6, 5, MOEBIUS)
    base = uniform_flux_field(lat, 0.11)
    face = Site(4, 2)
    loop = walk_loop(lat, face, ["+x", "+y", "-x", "-y"])
    before = wilson_loop(base, loop).angle
    after = wilson_loop(add_face_flux(base, face, 0.3), loop).angle
    assert after - before == pytest.approx(0.3, abs=1e-12)


def test_add_face_flux_rejects_bad_face():
    lat = build_lattice(6, 5, MOEBIUS)
    with pytest.raises(GaugeError):
        add_face_flux(uniform_flux_field(lat, 0.0), Site(0, 4), 0.1)  # top row has no face


def test_gauge_transform_constant_chi_is_identity():
    lat = build_lattice(6, 5, MOEBIUS)
    field = uniform_flux_field(lat, 0.4)
    g = GaugeTransform(lattice=lat, chi=np.full((6, 5), 1.234))
    out = apply_gauge_transform(field, g)
    assert np.array_equal(out.theta_x, field.theta_x)
    assert np.array_equal(out.theta_y, field.theta_y)


def test_gauge_transform_preserves_wilson_and_curvature():
    lat = build_lattice(6, 5, MOEBIUS)
    rng = np.random.default_rng(5)
    field = uniform_flux_field(lat, 0.81)
    for _ in range(5):
        g = random_gauge_transform(lat, rng)
        out = apply_gauge_transform(field, g)
        for loop in (center_loop(lat), offset_loop(lat, 0), random_class2_loop(lat, rng)):
            d = reduce_angle(wilson_loop(out, loop).angle - wilson_loop(field, loop).angle)
            assert abs(d) < 1e-12
        assert np.all(np.abs(face_curvature(out)) < 1e-12)


def test_large_gauge_transform_shifts_flux_by_one():
    # chi(i, j) = 2*pi*i/nx turns flux f into f+1 away from the seam column
    lat = build_lattice(6, 3, MOEBIUS)
    f = 0.23
    chi = np.tile((TAU * np.arange(6) / 6)[:, None], (1, 3))
    shifted = apply_gauge_transform(uniform_flux_field(lat, f), GaugeTransform(lat, chi))
    plus_one = uniform_flux_field(lat, f + 1.0)
    assert_allclose(shifted.theta_x[:-1, :], plus_one.theta_x[:-1, :], atol=1e-12)
    assert_allclose(shifted.theta_x[-1, :], plus_one.theta_x[-1, :] - TAU, atol=1e-12)
    hop = HoppingParams()
    e_shifted = dense_eigh(assemble(lat, shifted, hop)).values
    e_plus = dense_eigh(assemble(lat, plus_one, hop)).values
    assert_allclose(e_shifted, e_plus, atol=1e-10)


def test_gauge_transform_lattice_mismatch():
    lat = build_lattice(6, 5, MOEBIUS)
    other = build_lattice(6, 5, ANNULUS)
    g = GaugeTransform(lattice=other, chi=np.zeros((6, 5)))
    with pytest.raises(GaugeError):
        apply_gauge_transform(uniform_flux_field(lat, 0.0), g)


def test_lift_field_preserves_loop_angles_and_flatness():
    lat = build_lattice(6, 5, MOEBIUS)
    corr = cut_complement_of_center(lat)
    rng = np.random.default_rng(9)
    field = apply_gauge_transform(
        uniform_flux_field(lat, 0.61), random_gauge_transform(lat, rng)
    )
    lifted = lift_field(corr, field)
    for loop in (offset_loop(lat, 0), random_class2_loop(lat, rng)):
        assert wilson_loop(lifted, corr.lift_loop(loop)).angle == wilson_loop(field, loop).angle
    assert face_curvature(lifted).shape == (12, 1)
    assert np.all(np.abs(face_curvature(lifted)) < 1e-12)


def test_stokes_defect_trivial_pair():
    lat = build_lattice(6, 5, ANNULUS)
    field = uniform_flux_field(lat, 0.7)
    loop = offset_loop(lat, 1)
    assert stokes_defect(field, loop, loop) == pytest.approx(0.0, abs=1e-13)


def test_stokes_defect_moebius_offset_pair():
    lat = build_lattice(6, 5, MOEBIUS)
    field = uniform_flux_field(lat, 0.43)
    assert abs(stokes_defect(field, offset_loop(lat, 0), offset_loop(lat, 1))) < 1e-12


def test_stokes_defect_with_injected_curvature():
    # brute-force setup on nx=6, ny=5: one unit of curvature beta sits between
    # the two offset loops, so their Wilson angles split by exactly beta while
    # the defect stays zero
    lat = build_lattice(6, 5, MOEBIUS)
    base = uniform_flux_field(lat, 0.19)
    field = add_face_flux(base, Site(2, 0), 0.3)  # face between rows 0 and 1
    l0, l1 = offset_loop(lat, 0), offset_loop(lat, 1)
    split = wilson_loop(field, l0).angle - wilson_loop(field, l1).angle
    assert split == pytest.approx(0.3, abs=1e-12)
    assert abs(stokes_defect(field, l0, l1)) < 1e-12


def test_stokes_defect_random_fields_and_loops():
    lat = build_lattice(6, 5, MOEBIUS)
    rng = np.random.default_rng(17)
    for _ in range(8):
        field = apply_gauge_transform(
            uniform_flux_field(lat, float(rng.uniform(-2, 2))),
            random_gauge_transform(lat, rng),
        )
        field = add_face_flux(
            field, Site(int(rng.integers(0, 6)), int(rng.integers(0, 4))), float(rng.normal())
        )
        l1, l2 = random_class2_loop(lat, rng), random_class2_loop(lat, rng)
        assert abs(stokes_defect(field, l1, l2)) < 1e-12


def test_the_center_cut_is_built_once_per_lattice():
    # stokes_defect reuses the lattice's cut, and its value does not change with that
    lat = build_lattice(6, 5, MOEBIUS)
    cut = cut_complement_of_center(lat)
    assert cut_complement_of_center(lat) is cut
    rng = np.random.default_rng(5)
    field = add_face_flux(uniform_flux_field(lat, 0.37), Site(1, 0), 0.2)
    l1, l2 = random_class2_loop(lat, rng), random_class2_loop(lat, rng)
    first = stokes_defect(field, l1, l2)
    assert stokes_defect(field, l1, l2) == first and abs(first) < 1e-12
    assert cut_complement_of_center(lat) is cut
    annulus = build_lattice(6, 5, ANNULUS)
    for _ in range(2):  # a failed build is not cached: it raises every time
        with pytest.raises(LatticeError):
            cut_complement_of_center(annulus)


def test_random_class2_loop_refuses_a_broken_seam():
    # without the flip the seam keeps the walk in the lower half, where the
    # second circuit would have to cross the center row
    lat = StripLattice(6, 5, MOEBIUS, seam_flip=False)
    rng = np.random.default_rng(12345)
    with pytest.raises(LoopError, match="the seam keeps row"):
        random_class2_loop(lat, rng)


def test_stokes_defect_rejects_non_homologous():
    lat = build_lattice(6, 5, MOEBIUS)
    field = uniform_flux_field(lat, 0.0)
    with pytest.raises(GaugeError):
        stokes_defect(field, center_loop(lat), offset_loop(lat, 0))


def test_stokes_defect_rejects_center_touching_loop():
    lat = build_lattice(6, 5, MOEBIUS)
    field = uniform_flux_field(lat, 0.0)
    # class-2 loop that wanders through the center row
    through = walk_loop(
        lat, Site(0, 0), ["+x"] * 6 + ["-y"] * 4 + ["+x"] * 6 + ["-y"] * 4
    )
    assert homology_class(lat, through) == 2
    with pytest.raises(GaugeError):
        stokes_defect(field, through, offset_loop(lat, 0))


def random_annulus_loop(lat, rng, wraps):
    """Random class-``wraps`` walk on an annulus, wandering over all rows."""
    r0 = int(rng.integers(0, lat.ny))
    r, rows = r0, []
    for _ in range(wraps * lat.nx):
        target = int(rng.integers(0, lat.ny))
        rows.append((r, target))
        r = target
    return _column_walk(lat, rows + [(r, r0)])


def test_annulus_stokes_with_wandering_loops():
    lat = build_lattice(7, 4, ANNULUS)
    rng = np.random.default_rng(23)
    for _ in range(6):
        field = apply_gauge_transform(
            uniform_flux_field(lat, float(rng.uniform(-1, 1))),
            random_gauge_transform(lat, rng),
        )
        l1 = random_annulus_loop(lat, rng, wraps=2)
        l2 = random_annulus_loop(lat, rng, wraps=2)
        assert abs(stokes_defect(field, l1, l2)) < 1e-12


def test_loop_angle_sums_past_the_double_range_are_refused():
    # every link angle is finite, their sum along the loop is not: fsum once raised
    # OverflowError
    lat = build_lattice(8, 5, MOEBIUS)
    field = uniform_flux_field(lat, 2e307)
    assert math.isfinite(wilson_loop(field, center_loop(lat)).angle)
    with pytest.raises(GaugeError, match="not a finite double"):
        wilson_loop(field, offset_loop(lat, 0))
    # stokes_defect's enclosed curvature: row 0's x links give nx terms of 1e308
    annulus = build_lattice(8, 5, ANNULUS)
    theta_x = np.zeros((8, 5))
    theta_x[:, 0] = 1e308
    field = GaugeField(lattice=annulus, theta_x=theta_x, theta_y=np.zeros((8, 4)))
    with pytest.raises(GaugeError, match="not a finite double"):
        stokes_defect(field, offset_loop(annulus, 0), offset_loop(annulus, 1))


def test_wilson_loop_lattice_mismatch():
    lat = build_lattice(6, 5, MOEBIUS)
    other = build_lattice(6, 5, ANNULUS)
    with pytest.raises(GaugeError):
        wilson_loop(uniform_flux_field(lat, 0.1), center_loop(other))
