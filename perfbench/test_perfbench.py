"""Tests of the benchmark's own code: the closed-form reference and the metric names.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mobiusflux import (ANNULUS, MOEBIUS, HoppingParams, StripLattice, assemble, dense_eigh,
                        nodal_amplitude, restrict, sector_isometry, uniform_flux_field)
from reference import exact_spectrum, ground_node_amplitude, matches, sound

PINNED = 1e-13


@pytest.mark.parametrize("topology", [ANNULUS, MOEBIUS])
@pytest.mark.parametrize("nx,ny", [(12, 1), (12, 2), (7, 3), (12, 5), (10, 9)])
@pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("ty", [0.0, 0.01, 1.0])
def test_full_spectrum_matches_dense(topology, nx, ny, f, ty):
    lat = StripLattice(nx, ny, topology)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams(1.0, ty))
    exact = exact_spectrum(nx, ny, topology == MOEBIUS, f, 1.0, ty)
    assert np.max(np.abs(dense_eigh(h).values - exact)) <= PINNED


@pytest.mark.parametrize("nx,ny", [(12, 3), (12, 5), (48, 9)])
@pytest.mark.parametrize("f", [0.0, 0.25, 0.5])
def test_sector_spectra_match_dense(nx, ny, f):
    lat = StripLattice(nx, ny, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, f), HoppingParams(1.0, 0.01))
    for sector in ("even", "odd"):
        got = dense_eigh(restrict(h, sector_isometry(lat, sector))).values
        assert np.max(np.abs(got - exact_spectrum(nx, ny, True, f, 1.0, 0.01, sector))) <= PINNED


def test_broken_seam_is_an_annulus():
    lat = StripLattice(8, 5, MOEBIUS, seam_flip=False)
    h = assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams())
    assert np.max(np.abs(dense_eigh(h).values - exact_spectrum(8, 5, False, 0.3))) <= PINNED


@pytest.mark.parametrize("f", [0.0, 0.2, 0.5, 0.8])
def test_ground_node_amplitude_matches_dense(f):
    lat = StripLattice(48, 9, MOEBIUS)
    res = dense_eigh(assemble(lat, uniform_flux_field(lat, f), HoppingParams(1.0, 0.01)))
    assert res.values[1] - res.values[0] > 1e-8
    want = ground_node_amplitude(48, 9, True, f, 1.0, 0.01)
    assert abs(nodal_amplitude(res.vectors[:, 0], lat) - want) <= 1e-12


def test_incomplete_list_is_sound_but_does_not_match():
    exact = exact_spectrum(48, 25, True, 0.0)
    skipped = np.delete(exact, 2)[:6]  # drops one copy of a degenerate pair
    assert exact[1] == pytest.approx(exact[2], abs=1e-12)
    assert sound(skipped, exact, 1e-8) and not matches(skipped, exact, 1e-8)
    assert not sound(skipped + 1e-6, exact, 1e-8)


def test_sound_respects_multiplicity_and_order():
    exact = exact_spectrum(48, 25, True, 0.0)
    assert exact[0] < exact[1] == exact[2] < exact[3]  # one single level, then a pair
    assert sound(exact[:6], exact, 1e-8) and sound([exact[1], exact[1]], exact, 1e-8)
    assert not sound([exact[0], exact[0], exact[1]], exact, 1e-8)  # a ghost copy
    assert not sound([exact[1]] * 3, exact, 1e-8)  # the pair has only two copies
    assert not sound(exact[:6][::-1], exact, 1e-8)


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    suite = workloads.VerifySuite(seed=1)
    total = workloads.Outcome(0)
    for i in range(4):
        tracer.begin_op(i)
        total += suite.check(i, suite.call(i))
    assert total == workloads.Outcome(4)
    tracer.begin_op(tracing.BASELINE)
    checked = []
    ops = sum(1 for _ in workloads.baseline_pass(tmp_path, checked))
    baseline = sum(checked, workloads.Outcome(0))
    assert baseline.spectra > 0 and baseline.failed == 0
    metrics = tracing.per_layer_metrics(tracer, total, baseline, ops)
    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    units.pop("trace.overhead_ratio")  # computed by run.py from two workers
    assert {name: m["unit"] for name, m in metrics.items()} == units
    assert metrics["eigensolver.complete_ratio"]["value"] == 1.0
    assert all(metrics[f"eigensolver.solve.{s}.ms_p50"]["value"] > 0 for s in ("full", "even", "odd"))
    assert metrics["hamiltonian.sector_isometry.calls_per_restrict"]["value"] == 1.0


def test_fixed_plan_length_is_the_workloads():
    import run
    import workloads

    per_pass, _ = run.FIXED_PLANS["iterative_spectrum"]
    assert len(workloads.IterativeSpectrum(seed=3).plan) == per_pass
    assert run._plan_calls("iterative_spectrum", 50) == 3 * per_pass
    assert run._plan_calls("acceptance_sweep", 50) is None


def test_end_to_end_metrics_are_the_declared_ones_rescaled_by_the_probe():
    import run

    worker = {"setup_s": 0.5, "probes_s": [0.12, 0.06], "probe_ref_s": 0.06, "attempted": 2,
              "failed": 0, "busy_s": 2.0, "busy_ref_s": 1.0, "latencies_ms": [1000.0] * 2,
              "latencies_ref_ms": [500.0] * 2, "peak_rss_mb": 80.0}
    metrics, _ = run._end_to_end([worker] * 3)
    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m: unit for m, (_, unit, _) in metrics.items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert metrics["setup_s"][0] == 0.25  # half speed at set-up: half the raw time
    assert metrics["ops_per_s_at_ref"][0] == 2.0 and metrics["op_ms_tail_at_ref"][0] == 500.0
