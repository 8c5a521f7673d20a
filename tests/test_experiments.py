"""Sweeps, minima detection, nodal amplitude, currents, ladder, equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mobiusflux import eigensolver, experiments
from mobiusflux.eigensolver import SolverConfig, dense_eigh, solve
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
    max_deviation,
    nodal_amplitude,
    persistent_current,
    uniform_spectrum,
)
from mobiusflux.gauge import uniform_flux_field
from mobiusflux.hamiltonian import (
    FluxPencil,
    HoppingParams,
    assemble,
    restrict,
    sector_isometry,
    sector_pencil,
)
from mobiusflux.lattice import ANNULUS, MOEBIUS, LatticeError, build_lattice


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
    # linspace rounds some of these grids' points onto one double, and the current's
    # central difference then divided by a zero step: -inf, or nan
    for f_min, f_max in ((1.0, 1.0000000000000002), (0.0, 5e-324)):
        with pytest.raises(ValueError, match="fewer than f_steps = 3 distinct doubles"):
            small_sweep(f_min=f_min, f_max=f_max, f_steps=3)
    # three adjacent doubles are a grid
    assert len(set(small_sweep(f_min=1.0, f_max=1.0000000000000004, f_steps=3).f_values())) == 3


@pytest.mark.parametrize("sectors", [(FULL, EVEN, ODD), (ODD, EVEN, ODD), (EVEN,), (FULL, EVEN)])
def test_sweep_builds_each_sector_basis_once(sectors):
    # each (lattice, sector) basis and pencil is built at most once per process: counted
    # as the caches' misses over two sweeps of one band.  Beside both parity sectors the
    # full sector's pencil is never built, its columns read off theirs; its basis is, by
    # the config's sector check
    sector_isometry.cache_clear()
    sector_pencil.cache_clear()
    for _ in range(2):
        records = flux_sweep(small_sweep(f_steps=5, sectors=sectors))
        assert len(records) == 5
    pencils = set(sectors) - {FULL} if {FULL, EVEN, ODD} <= set(sectors) else set(sectors)
    assert sector_isometry.cache_info().misses == len(set(sectors))
    assert sector_pencil.cache_info().misses == len(pencils)


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


def test_detect_minima_out_of_flux_order_keeps_the_middle_point():
    # records out of flux order, which no sweep writes: the parabola through (0, 3), (2, 1)
    # and (1, 2) is a line, with no vertex to refine to, so the minimum stays at f = 2
    records = [SweepRecord(f=f, e0_full=y) for f, y in ((0.0, 3.0), (2.0, 1.0), (1.0, 2.0))]
    report = detect_minima(records, "e0_full", mode="integer")
    assert report == experiments.QuantizationReport(
        minima_f=(2.0,), nearest_allowed=(2.0,), distances=(0.0,), skipped=())


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


def merged_full_columns(cfg, f):
    """(e0_full, gap, node_amp) read off both parity sectors' solves at the sweep's k: the
    lowest value, the next one up and the center-row amplitude of the ground sector's
    ground vector, embedded by that sector's isometry."""
    lat = cfg.lattice
    solved = {sector: solve(sector_pencil(lat, sector, cfg.hop).at(f), cfg.solver)
              for sector in (EVEN, ODD)}
    values = np.sort(np.concatenate([res.values for res in solved.values()]))
    e0, gap = float(values[0]), float(values[1] - values[0])
    if cfg.solver.k == 1:
        return e0, None, None
    if gap <= 1e-8:
        return e0, gap, None
    ground = min(solved, key=lambda sector: solved[sector].values[0])
    state = sector_isometry(lat, ground).embed(solved[ground].vectors[:, 0])
    return e0, gap, nodal_amplitude(state, lat)


@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
def test_full_sector_asks_for_two_pairs_whatever_k(topology):
    # the full columns read only e0, the gap and the ground vector; beside both parity
    # sectors they are the merge of the parity solves at the sweep's own k, and agree with
    # the six-pair solve of the full pencil the sweep once made
    cfg = small_sweep(nx=48, ny=9, topology=topology, ty=0.01, f_min=0.3, f_max=0.6, f_steps=7)
    iso = sector_isometry(cfg.lattice, FULL)
    pencil = FluxPencil(iso, cfg.hop)
    both = 0
    for k in (6, 2, 1):
        at_k = dataclasses.replace(cfg, solver=SolverConfig(k=k, method="dense"))
        for rec in flux_sweep(at_k):
            assert (rec.e0_full, rec.gap, rec.node_amp) == merged_full_columns(at_k, rec.f)
            ref = dense_eigh(pencil.at(rec.f), 6)
            assert abs(rec.e0_full - ref.values[0]) <= 1e-12
            if k == 1:
                # with one value a sector the gap is unknown, and so is whether node_amp
                # means anything
                assert (rec.gap, rec.node_amp) == (None, None)
                continue
            assert abs(rec.gap - (ref.values[1] - ref.values[0])) <= 1e-12
            if rec.node_amp is not None:
                amp = nodal_amplitude(iso.embed(ref.vectors[:, 0]), iso.lattice)
                assert abs(rec.node_amp - amp) <= 1e-10
                both += 1
    assert both >= 10


# the acceptance band at k = 1, 2 and 6, and the 3 x 3 band, whose sectors (odd 3, even 6)
# k = 6 reaches, where LAPACK's driver takes other routes
MERGE_BANDS = [(48, 9, 0.01, 1), (48, 9, 0.01, 2), (48, 9, 0.01, 6), (3, 3, 1.0, 6)]


@pytest.mark.parametrize("method", ["dense", "lanczos"])
@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
@pytest.mark.parametrize("nx, ny, ty, k", MERGE_BANDS)
def test_the_full_columns_are_the_parity_solves_merged(method, topology, nx, ny, ty, k):
    # at uniform flux the full spectrum is exactly the even one's and the odd one's: a sweep
    # of all three sectors builds no full pencil, and its parity columns keep the bits of a
    # sweep of the parity sectors alone
    cfg = small_sweep(nx=nx, ny=ny, topology=topology, ty=ty, f_min=0.3, f_max=0.6, f_steps=7,
                      solver=SolverConfig(k=k, method=method))
    sector_pencil.cache_clear()
    records = flux_sweep(cfg)
    assert sector_pencil.cache_info().misses == 2
    parity = flux_sweep(dataclasses.replace(cfg, sectors=(EVEN, ODD)))
    full = sector_pencil(cfg.lattice, FULL, cfg.hop)
    for rec, alone in zip(records, parity):
        assert rec.status == "ok"
        assert (rec.e0_even, rec.e0_odd) == (alone.e0_even, alone.e0_odd)
        assert rec.e0_full == min(rec.e0_even, rec.e0_odd)
        assert (rec.e0_full, rec.gap, rec.node_amp) == merged_full_columns(cfg, rec.f)
        ref = dense_eigh(full.at(rec.f), 2)
        assert abs(rec.e0_full - ref.values[0]) <= 1e-12
        if k == 1:
            assert (rec.gap, rec.node_amp) == (None, None)
            continue
        assert abs(rec.gap - (ref.values[1] - ref.values[0])) <= 1e-12
        if rec.node_amp is not None:
            amp = nodal_amplitude(full.iso.embed(ref.vectors[:, 0]), cfg.lattice)
            assert abs(rec.node_amp - amp) <= 1e-10
            # an odd ground state vanishes on the center row, exactly
            assert rec.e0_even < rec.e0_odd or rec.node_amp == 0.0


def test_an_odd_ground_state_has_exactly_zero_nodal_amplitude():
    # near f = 1/2 the nodal sector holds the acceptance band's ground state
    cfg = small_sweep(nx=48, ny=9, ty=0.01, f_min=0.45, f_max=0.55, f_steps=5,
                      solver=SolverConfig(k=2, method="dense"))
    odd = [rec for rec in flux_sweep(cfg) if rec.e0_odd < rec.e0_even]
    assert odd and all(rec.node_amp == 0.0 for rec in odd)


@pytest.mark.parametrize("method", ["dense", "lanczos"])
@pytest.mark.parametrize("sectors", [(FULL,), (FULL, EVEN), (FULL, ODD)])
def test_the_full_sector_without_both_parity_sectors_is_solved_as_before(sectors, method):
    # the full sector alone or beside one parity sector is solved on its own pencil for
    # min(k, 2) pairs, whatever k, and the parity sector for k pairs; the sweep's records
    # are those solves' bits, so its CSV keeps its bytes
    cfg = small_sweep(nx=48, ny=9, ty=0.01, f_min=0.3, f_max=0.6, f_steps=7, sectors=sectors,
                      solver=SolverConfig(k=6, method=method))
    lat, hop = cfg.lattice, cfg.hop
    pairs = SolverConfig(k=2, method=method)
    nodal = 0
    for rec in flux_sweep(cfg):
        res = solve(sector_pencil(lat, FULL, hop).at(rec.f), pairs)
        want = {"e0_full": float(res.values[0]), "gap": float(res.values[1] - res.values[0])}
        if want["gap"] > 1e-8:
            want["node_amp"] = nodal_amplitude(sector_isometry(lat, FULL).embed(res.vectors[:, 0]), lat)
            nodal += 1
        for sector in sectors[1:]:
            parity = solve(sector_pencil(lat, sector, hop).at(rec.f), cfg.solver)
            want[f"e0_{sector}"] = float(parity.values[0])
        assert dataclasses.replace(rec, current=None) == SweepRecord(f=rec.f, **want)
    assert nodal >= 5


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


@pytest.mark.parametrize("n", [0, 1, 2])
def test_persistent_current_needs_three_records(n):
    records = [SweepRecord(f=0.1 * i, e0_full=1.0) for i in range(n)]
    with pytest.raises(ValueError, match="need at least 3 records for a central difference"):
        persistent_current(records)


def test_detect_minima_refuses_an_unknown_column():
    records = [SweepRecord(f=0.1 * i, e0_full=1.0) for i in range(5)]
    for column in ("e0", "current", "node_amp", "status"):
        with pytest.raises(ValueError, match="column must be one of"):
            detect_minima(records, column)


def test_persistent_current_rejects_nonuniform_grid():
    records = [SweepRecord(f=f, e0_full=f * f) for f in (0.0, 0.1, 0.3)]
    with pytest.raises(ValueError):
        persistent_current(records)


def test_ladder_periodicity_decoupled_half_period():
    assert ladder_periodicity_test(LADDER, np.linspace(0.0, 1.0, 7), ty=0.0) <= 1e-10


def test_ladder_periodicity_coupled_breaks_half_period():
    assert ladder_periodicity_test(LADDER, (0.0,), ty=1.0) > 0.01
    # the full period survives the rung coupling
    hop = HoppingParams(ty=1.0)
    assert max_deviation(uniform_spectrum(LADDER, 1.0, hop),
                         uniform_spectrum(LADDER, 0.0, hop)) <= 1e-10


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
    with pytest.raises(LatticeError, match="no center row"):  # with no flux to solve, too
        annulus_equivalence_check(build_lattice(6, 4, MOEBIUS), ())


@pytest.mark.parametrize("ty", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("f", [0.0, 0.5, 0.13, -0.37])
@pytest.mark.parametrize("topology", [MOEBIUS, ANNULUS])
def test_uniform_spectrum_is_the_restricted_site_operator_by_sector_name(topology, f, ty):
    # the pencil's block against B^dagger H B of the site-basis operator, solved by numpy
    hop = HoppingParams(ty=ty)
    for nx, ny in ((6, 3), (5, 4), (4, 1), (3, 5)):
        lat = build_lattice(nx, ny, topology)
        sectors = [FULL] + [EVEN] * (ny % 2) + [ODD] * (ny % 2 and ny > 1)  # the ones that exist
        h = assemble(lat, uniform_flux_field(lat, f), hop)
        for sector in sectors:
            want = np.linalg.eigvalsh(restrict(h, sector_isometry(lat, sector)).csr.toarray())
            assert_allclose(uniform_spectrum(lat, f, hop, sector), want, rtol=0, atol=1e-12)
        assert_allclose(uniform_spectrum(lat, f, hop), np.linalg.eigvalsh(h.csr.toarray()),
                        rtol=0, atol=1e-12)


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


def test_sweep_marks_failed_records_and_continues(monkeypatch):
    cfg = small_sweep(
        f_steps=5,
        solver=SolverConfig(method="lanczos", tol=1e-15),
        sectors=(FULL,),
    )
    monkeypatch.setattr(eigensolver, "_budget", lambda n: 3)
    records = flux_sweep(cfg)
    assert len(records) == 5
    assert all(rec.status == "failed" for rec in records)
    assert all(rec.e0_full is None for rec in records)


def test_detect_minima_skips_failed_records(monkeypatch):
    failing = SolverConfig(method="lanczos", tol=1e-15)
    good = flux_sweep(small_sweep(sectors=(FULL,)))
    monkeypatch.setattr(eigensolver, "_budget", lambda n: 3)
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
