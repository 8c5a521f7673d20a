"""Sweeps, minima detection, nodal amplitude, currents, ladder, equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mobiusflux import experiments
from mobiusflux.eigensolver import SolverConfig, dense_eigh
from mobiusflux.experiments import (
    EVEN,
    FULL,
    ODD,
    SweepConfig,
    SweepRecord,
    annulus_equivalence_check,
    detect_minima,
    flux_sweep,
    ladder_periodicity_test,
    nodal_amplitude,
    persistent_current,
)
from mobiusflux.gauge import uniform_flux_field
from mobiusflux.hamiltonian import (
    FluxPencil,
    HoppingParams,
    assemble,
    restrict,
    sector_isometry,
)
from mobiusflux.lattice import ANNULUS, MOEBIUS, build_lattice


LADDER = build_lattice(12, 2, MOEBIUS)
BAND_6X5 = build_lattice(6, 5, MOEBIUS)


def small_sweep(nx=12, ny=5, topology=MOEBIUS, tx=1.0, ty=1.0, **overrides):
    base = dict(
        f_min=-0.25, f_max=1.25, f_steps=31,
        solver=SolverConfig(k=4, method="dense"),
    )
    base.update(overrides)
    return SweepConfig(build_lattice(nx, ny, topology), HoppingParams(tx, ty), **base)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        small_sweep(f_min=1.0, f_max=0.0)
    with pytest.raises(ValueError):
        small_sweep(f_steps=1)
    with pytest.raises(ValueError):
        small_sweep(sectors=("full", "left"))
    with pytest.raises(ValueError):
        small_sweep(ny=4, sectors=(FULL, ODD))
    with pytest.raises(ValueError):
        small_sweep(sectors=())
    # a non-finite end or span is refused before the grid holds nan or inf
    with pytest.raises(ValueError, match="finite"):
        small_sweep(f_max=math.inf)
    with pytest.raises(ValueError, match="finite"):
        small_sweep(f_min=-1e308, f_max=1e308)


@pytest.mark.parametrize("sectors", [(FULL, EVEN, ODD), (ODD, EVEN, ODD), (EVEN,)])
def test_sweep_builds_each_sector_basis_once(monkeypatch, sectors):
    calls = []

    def counting(lat, sector):
        calls.append(sector)
        return sector_isometry(lat, sector)

    monkeypatch.setattr(experiments, "sector_isometry", counting)
    records = flux_sweep(small_sweep(f_steps=5, sectors=sectors))
    assert len(records) == 5
    assert sorted(calls) == sorted(set(sectors))


def test_sweep_config_rejects_empty_odd_sector():
    # a one-row strip's odd sector has no states
    with pytest.raises(ValueError, match="odd sector"):
        small_sweep(ny=1, sectors=(FULL, ODD))
    records = flux_sweep(small_sweep(ny=1, sectors=(FULL, EVEN), f_steps=3))
    assert all(rec.status == "ok" for rec in records)


def test_annulus_sweep_minima_at_integer_flux():
    cfg = SweepConfig(
        build_lattice(24, 5, ANNULUS), HoppingParams(), f_min=0.0, f_max=1.0, f_steps=51,
        solver=SolverConfig(k=2, method="dense"), sectors=(FULL,),
    )
    records = flux_sweep(cfg)
    assert len(records) == 51
    e0 = np.array([rec.e0_full for rec in records])
    assert np.argmax(e0) in (24, 25, 26)
    assert e0[0] == pytest.approx(np.min(e0), abs=1e-12)
    assert e0[-1] == pytest.approx(np.min(e0), abs=1e-12)


def test_moebius_sweep_odd_sector_dips_at_half_flux():
    ring = build_lattice(24, 2, ANNULUS)
    hop = HoppingParams()
    # both solvers take the sweep's sector operators; Lanczos certifies its own
    for method in ("dense", "lanczos"):
        cfg = SweepConfig(
            build_lattice(24, 5, MOEBIUS), hop, f_min=0.0, f_max=1.0, f_steps=51,
            solver=SolverConfig(k=2, method=method), sectors=(ODD,),
        )
        records = flux_sweep(cfg)
        e_odd = np.array([rec.e0_odd for rec in records])
        assert np.argmin(e_odd) == 25  # f = 0.5
        # the odd column reproduces the half-width annulus shifted by 1/2
        for rec in records[::10]:
            expected = dense_eigh(
                assemble(ring, uniform_flux_field(ring, rec.f + 0.5), hop)
            ).values[0]
            assert rec.e0_odd == pytest.approx(expected, abs=1e-10)


def test_sweep_records_periodic_in_flux():
    records = flux_sweep(small_sweep(f_steps=31))
    by_f = {round(rec.f, 10): rec for rec in records}
    for f in (-0.25, -0.15, 0.05, 0.25):
        a, b = by_f[round(f, 10)], by_f[round(f + 1.0, 10)]
        assert a.e0_full == pytest.approx(b.e0_full, abs=1e-9)
        assert a.e0_even == pytest.approx(b.e0_even, abs=1e-9)
        assert a.e0_odd == pytest.approx(b.e0_odd, abs=1e-9)


def test_sweep_sector_consistency_invariants():
    for rec in flux_sweep(small_sweep(f_steps=16)):
        assert rec.e0_even >= rec.e0_full - 1e-10
        assert rec.e0_odd >= rec.e0_full - 1e-10
        assert min(rec.e0_even, rec.e0_odd) == pytest.approx(rec.e0_full, abs=1e-10)
        assert rec.gap >= -1e-12


def test_detect_minima_on_sector_columns():
    records = flux_sweep(small_sweep(f_steps=76, nx=24))
    even = detect_minima(records, "e0_even", mode="integer")
    assert len(even.minima_f) == 2
    for fm, dist in zip(even.minima_f, even.distances):
        assert dist <= 0.01
    assert_allclose(even.nearest_allowed, [0.0, 1.0])
    odd = detect_minima(records, "e0_odd", mode="half-integer")
    assert len(odd.minima_f) == 1
    assert odd.minima_f[0] == pytest.approx(0.5, abs=0.01)
    assert odd.nearest_allowed[0] == 0.5


def test_detect_minima_constant_column_is_empty():
    records = [SweepRecord(f=0.1 * i, e0_full=3.0) for i in range(10)]
    report = detect_minima(records, "e0_full", mode="integer")
    assert report.minima_f == ()


def test_detect_minima_plateau_midpoint():
    values = [3.0, 1.0, 1.0 + 5e-13, 1.0, 3.0]
    records = [SweepRecord(f=float(i), e0_full=v) for i, v in enumerate(values)]
    report = detect_minima(records, "e0_full", mode="integer")
    assert report.minima_f == (2.0,)


def test_detect_minima_input_validation():
    records = [SweepRecord(f=0.0, e0_full=1.0), SweepRecord(f=0.1, e0_full=2.0)]
    with pytest.raises(ValueError):
        detect_minima(records, "e0_full")
    records = [SweepRecord(f=0.1 * i, e0_full=1.0) for i in range(5)]
    with pytest.raises(ValueError):
        detect_minima(records, "e0_odd")  # column never filled
    with pytest.raises(ValueError):
        detect_minima(records, "e0_full", mode="thirds")


def test_nodal_amplitude_of_embedded_odd_state_is_zero():
    lat = build_lattice(8, 5, MOEBIUS)
    iso = sector_isometry(lat, ODD)
    rng = np.random.default_rng(1)
    state = iso.embed(rng.standard_normal(iso.dim))
    assert nodal_amplitude(state, lat) == 0.0


def test_nodal_amplitude_annulus_ground_state_nowhere_zero():
    lat = build_lattice(8, 5, ANNULUS)
    h = assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams())
    ground = dense_eigh(h).vectors[:, 0]
    assert nodal_amplitude(ground, lat) > 1e-3
    assert np.min(np.abs(ground)) > 1e-4  # strictly positive up to phase


def test_nodal_ground_state_in_weak_coupling_at_half_flux():
    # rungs weak enough that the nodal sector wins at f = 1/2
    lat = build_lattice(24, 5, MOEBIUS)
    hop = HoppingParams(tx=1.0, ty=0.01)
    h = assemble(lat, uniform_flux_field(lat, 0.5), hop)
    e_even = dense_eigh(restrict(h, sector_isometry(lat, EVEN))).values[0]
    e_odd = dense_eigh(restrict(h, sector_isometry(lat, ODD))).values[0]
    assert e_odd < e_even - 1e-6
    ground = dense_eigh(h).vectors[:, 0]
    assert nodal_amplitude(ground, lat) <= 1e-8


def test_node_amp_is_empty_where_the_ground_state_is_degenerate():
    # 48 x 9 annulus at f = 1/2, ty = 0.01: the full-sector gap is 0, so the center-row
    # amplitude would be that of whichever ground vector LAPACK returns
    cfg = small_sweep(nx=48, ny=9, topology=ANNULUS, ty=0.01, f_min=0.4, f_max=0.5, f_steps=2,
                      sectors=(FULL,))
    generic, half = flux_sweep(cfg)
    assert generic.gap > 1e-8 and generic.node_amp is not None
    assert half.gap <= 1e-8 and half.node_amp is None
    # with k = 1 the gap is unknown, so no amplitude is reported either
    lone = flux_sweep(dataclasses.replace(cfg, solver=SolverConfig(k=1, method="dense")))
    assert [(rec.gap, rec.node_amp) for rec in lone] == [(None, None)] * 2


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
def test_full_sector_asks_for_two_pairs_whatever_k(topology):
    # the full sector's columns read only e0, the gap and the ground vector: a k = 6 sweep
    # solves it for two pairs, and agrees with the six-pair solve it once made
    cfg = small_sweep(nx=48, ny=9, topology=topology, ty=0.01, f_min=0.3, f_max=0.6, f_steps=7)
    six, two, one = (flux_sweep(dataclasses.replace(cfg, solver=SolverConfig(k=k, method="dense")))
                     for k in (6, 2, 1))
    iso = cfg._isometries[FULL]
    pencil = FluxPencil(iso, cfg.hop)
    both = 0
    for a, b, c in zip(six, two, one):
        assert (a.e0_full, a.gap, a.node_amp) == (b.e0_full, b.gap, b.node_amp)
        ref = dense_eigh(pencil.at(a.f), 6)
        assert abs(a.e0_full - ref.values[0]) <= 1e-12
        assert abs(a.gap - (ref.values[1] - ref.values[0])) <= 1e-12
        if a.node_amp is not None:
            amp = nodal_amplitude(iso.embed(ref.vectors[:, 0]), iso.lattice)
            assert abs(a.node_amp - amp) <= 1e-10
            both += 1
        # with one pair the gap is unknown, and so is whether node_amp means anything
        assert c.e0_full is not None and (c.gap, c.node_amp) == (None, None)
    assert both >= 5


def test_nodal_amplitude_dimension_mismatch():
    lat = build_lattice(8, 5, MOEBIUS)
    with pytest.raises(ValueError):
        nodal_amplitude(np.zeros(7), lat)


def test_persistent_current_antisymmetric():
    cfg = small_sweep(f_min=-0.3, f_max=0.3, f_steps=13, sectors=(FULL,))
    records = flux_sweep(cfg)
    currents = [rec.current for rec in records]
    assert currents[0] is None and currents[-1] is None
    for i in range(1, len(records) - 1):
        assert currents[i] == pytest.approx(-currents[len(records) - 1 - i], abs=1e-8)


def test_persistent_current_changes_sign_at_minimum():
    cfg = small_sweep(f_min=0.6, f_max=1.4, f_steps=25, sectors=(FULL,))
    records = flux_sweep(cfg)
    report = detect_minima(records, "e0_full", mode="integer")
    assert len(report.minima_f) == 1
    idx = int(np.argmin([abs(rec.f - report.minima_f[0]) for rec in records]))
    # -dE/df is positive approaching the minimum and negative past it
    assert records[idx - 1].current > 0 > records[idx + 1].current


def test_persistent_current_zero_for_constant_energy():
    records = [SweepRecord(f=0.05 * i, e0_full=1.5) for i in range(9)]
    currents = persistent_current(records)
    assert all(c == 0.0 for c in currents[1:-1])


def test_persistent_current_rejects_nonuniform_grid():
    records = [SweepRecord(f=f, e0_full=f * f) for f in (0.0, 0.1, 0.3)]
    with pytest.raises(ValueError):
        persistent_current(records)


def test_ladder_periodicity_decoupled_half_period():
    result = ladder_periodicity_test(LADDER, np.linspace(0.0, 1.0, 7), ty=0.0)
    assert result.max_dev_half_period <= 1e-10
    assert result.period == 0.5


def test_ladder_periodicity_coupled_breaks_half_period():
    result = ladder_periodicity_test(LADDER, (0.0,), ty=1.0)
    assert result.max_dev_half_period > 0.01
    assert result.max_dev_full_period <= 1e-10
    assert result.period == 1.0


def test_annulus_equivalence_check_small_grids():
    assert annulus_equivalence_check(BAND_6X5, (0.0, 0.3, 0.5)) <= 1e-10
    assert annulus_equivalence_check(build_lattice(6, 3, MOEBIUS), (0.0, 0.25, 0.8)) <= 1e-10
    # shifting the grid by a full quantum changes nothing
    d0 = annulus_equivalence_check(BAND_6X5, (0.2,))
    d1 = annulus_equivalence_check(BAND_6X5, (1.2,))
    assert abs(d0 - d1) <= 1e-10


def test_annulus_equivalence_check_rejects_even_width():
    with pytest.raises(ValueError):
        annulus_equivalence_check(build_lattice(6, 4, MOEBIUS), (0.0,))


def test_annulus_equivalence_check_rejects_an_annulus():
    with pytest.raises(ValueError, match="moebius"):
        annulus_equivalence_check(build_lattice(6, 5, ANNULUS), (0.0,))


@pytest.mark.parametrize("ty", [-1.0, float("nan")])
def test_ladder_periodicity_rejects_invalid_rung_hopping(ty):
    # these once ran silently as ty = 0 and reported period 0.5
    with pytest.raises(ValueError, match="ty"):
        ladder_periodicity_test(LADDER, (0.0,), ty=ty)


@pytest.mark.parametrize("lat", [
    build_lattice(12, 1, MOEBIUS),
    build_lattice(12, 3, MOEBIUS),
    build_lattice(12, 2, ANNULUS),
])
def test_ladder_periodicity_needs_a_two_row_moebius_ladder(lat):
    with pytest.raises(ValueError, match="ladder"):
        ladder_periodicity_test(lat, (0.0,))


def test_sweep_marks_failed_records_and_continues():
    cfg = small_sweep(
        f_steps=5,
        solver=SolverConfig(method="lanczos", tol=1e-15, max_iter=3),
        sectors=(FULL,),
    )
    records = flux_sweep(cfg)
    assert len(records) == 5
    assert all(rec.status == "failed" for rec in records)
    assert all(rec.e0_full is None for rec in records)


def test_detect_minima_skips_failed_records():
    failing = SolverConfig(method="lanczos", tol=1e-15, max_iter=3)
    good = flux_sweep(small_sweep(sectors=(FULL,)))
    failed = flux_sweep(small_sweep(solver=failing, sectors=(FULL,)))
    # every fourth point fails, f = 0 and f = 1 among them
    mixed = [bad if i % 4 == 1 else ok for i, (ok, bad) in enumerate(zip(good, failed))]
    assert {rec.status for rec in mixed} == {"ok", "failed"}
    report = detect_minima(mixed, "e0_full", mode="integer")
    assert report.nearest_allowed == (0.0, 1.0)
    assert max(report.distances) <= 0.005
    assert report.skipped == tuple(rec.f for rec in mixed if rec.status == "failed")
    assert len(report.skipped) == 8
    assert detect_minima(good, "e0_full").skipped == ()


def test_detect_minima_refines_across_a_skipped_point():
    records = [SweepRecord(f=f, e0_even=(f - 0.33) ** 2) for f in np.linspace(0.0, 1.0, 11)]
    records[4] = SweepRecord(f=0.4, status="failed")
    # the parabola through f = 0.2, 0.3, 0.5 has its vertex at 0.33
    assert detect_minima(records, "e0_even").minima_f == pytest.approx((0.33,), abs=1e-12)


def test_sweep_without_full_sector_has_no_current():
    records = flux_sweep(small_sweep(f_steps=7, sectors=(EVEN, ODD)))
    assert all(rec.e0_full is None for rec in records)
    assert all(rec.current is None for rec in records)
    assert all(rec.node_amp is None for rec in records)
