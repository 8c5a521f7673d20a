"""mobiusflux benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each run drives the workload in fresh
worker processes (perfbench/worker.py) with the program imported from
src/ and BLAS pinned to one thread.  It prints a run header, one line
per metric, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 splits --seconds into six stretches, each in a fresh worker
that takes up the workload's ops where the one before stopped, and
reports the end-to-end metrics:

    setup_s            median of the six workers' set-ups, each from
                       spawning the worker to its first timed op (imports
                       plus the workload's inputs), rescaled to the
                       reference host speed by the probe that follows it;
                       spread over the run, so that one slow spell of a
                       shared host does not set them all
    ops_per_s_at_ref   ops attempted per second of timed calls, with each
                       call's time rescaled to the reference host speed
    op_ms_tail_at_ref  rescaled latency at the highest percentile with at
                       least ten samples above it (the median below 21)
    peak_rss_mb        peak resident memory of the largest worker

A time at the reference speed is the raw time scaled by the worker's
HostProbe, a fixed eigensolve and Krylov loop timed before the first
call and after each one (worker.py says how).  A shared host's speed
drifts by 10-30% over minutes: over five 50-s runs of acceptance_sweep
on a shared 2-core VM the raw rate spread 25% (IQR over median) and the
rescaled one 3%; set-up, 33% raw.  The raw figures are printed too, as
setup_s_raw, ops_per_s and op_ms_tail, but kept out of the JSON
metrics, which carry only what a bound can gate.  So are op_ms_p50, the raw median latency, the probe's
median time, and failed_ratio, failed over attempted, which is zero
wherever nothing fails; the JSON carries its counts as "failed" and
"attempted".  For acceptance_sweep an op is one flux point inside a
sweep command, so its latency samples are per-point means of whole
commands.

iterative_spectrum runs a fixed number of commands instead of running
until time is up: whole passes of its 20-command plan, one pass per
17 s of --seconds (a pass takes 16-19 s, probes included, on a shared
2-core host).  Each
command's outcome is fixed by its input, and Moebius f = 0 fails every
time, so a fixed count keeps "failed" the same in every run; a count
set by the clock would not.

--trace 1 spends half of --seconds untraced and half traced, then runs
a fixed-size baseline pass, and reports the per-layer metrics from the
traced half plus the tracing overhead between the halves' rates at the
reference speed.  For iterative_spectrum both halves make the same
commands, the first half of the untraced run's.  The baseline pass also runs one small sweep and one run_verification
(6 x 5 lattices), so the verify layer and the small-array cost of
gauge, lattice and hamiltonian are measured in every traced run.  Spans go to
perfbench/.work/spans-<workload>.csv.

"correct" is false when any output is wrong, or when the sweep's CSV
differs between the run's workers; the header prints its sha256 as
output_sha256.  "failed" counts every op that missed its reference,
including sound but incomplete eigenvalue lists (the known defect of
the Krylov solver at degenerate flux) and failures the program
reported itself.

The benchmark exits non-zero, printing no result, when src/mobiusflux
is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("acceptance_sweep", "iterative_spectrum")
STRETCHES = 6  # workers per untraced run, each giving one set-up sample
DEADLINE_S = 170.0  # the run must end within 180 s, even when the program hangs
BLAS_THREADS = "1"
# Workloads that run whole passes of a fixed plan: (commands per pass,
# nominal seconds per pass).  The pass length is IterativeSpectrum.plan's.
FIXED_PLANS = {"iterative_spectrum": (20, 17.0)}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"


class WorkerError(RuntimeError):
    pass


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _plan_calls(workload: str, seconds: float):
    """Commands a run of a fixed-plan workload makes, or None for a timed workload."""
    if workload not in FIXED_PLANS:
        return None
    per_pass, pass_s = FIXED_PLANS[workload]
    return per_pass * max(1, round(seconds / pass_s))


def _run_worker(args, seconds: float, trace: int, deadline: float, first_op=0, calls=0) -> dict:
    remaining = deadline - _monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--first-op", str(first_op), "--calls", str(calls), "--src", str(SRC),
           "--workdir", str(WORKDIR), "--spawned", repr(_monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _header(args, env: dict, output_sha256) -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **env,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "output_sha256": output_sha256,
    }


def _tail(samples: list) -> tuple:
    """Latency at the highest percentile with at least ten samples above it.

    Below 21 samples no order statistic above the median has ten beyond
    it, so the tail is then the median itself.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _end_to_end(runs: list) -> tuple:
    setups = [r["setup_s"] for r in runs]
    setups_ref = [r["setup_s"] * r["probe_ref_s"] / r["probes_s"][0] for r in runs]
    samples = [ms for r in runs for ms in r["latencies_ms"]]
    samples_ref = [ms for r in runs for ms in r["latencies_ref_ms"]]
    probes = [s for r in runs for s in r["probes_s"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    busy = sum(r["busy_s"] for r in runs)
    busy_ref = sum(r["busy_ref_s"] for r in runs)
    tail, pct = _tail(samples)
    tail_ref, _ = _tail(samples_ref)
    metrics = {
        "setup_s": (statistics.median(setups_ref), "s",
                    f"median of {len(setups)} set-ups at the reference speed"),
        "ops_per_s_at_ref": (attempted / busy_ref, "1/s",
                             f"{attempted} ops in {busy_ref:.2f} s of calls at the reference speed"),
        "op_ms_tail_at_ref": (tail_ref, "ms", f"p{pct:.1f}, n={len(samples_ref)}"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB", "largest worker"),
    }
    printed_only = {
        "setup_s_raw": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (attempted / busy, "1/s", f"{attempted} ops in {busy:.2f} s of calls"),
        "op_ms_tail": (tail, "ms", f"p{pct:.1f}, n={len(samples)}"),
        "op_ms_p50": (statistics.median(samples), "ms", f"n={len(samples)}"),
        "probe_ms": (statistics.median(probes) * 1e3, "ms",
                     f"median of {len(probes)} probes; the reference speed's is "
                     f"{runs[0]['probe_ref_s'] * 1e3:.0f}"),
        "failed_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} ops failed"),
    }
    return metrics, printed_only


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mobiusflux" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'mobiusflux'} is missing", file=sys.stderr)
        return 1
    if not 0 <= args.seed < 2**63 or args.seconds <= 0:
        print("need 0 <= seed < 2**63 and seconds > 0", file=sys.stderr)
        return 2
    deadline = _monotonic() + DEADLINE_S
    WORKDIR.mkdir(exist_ok=True)

    try:
        planned = _plan_calls(args.workload, args.seconds)
        if args.trace:
            half = planned // 2 if planned else 0  # the same commands, untraced then traced
            plain = _run_worker(args, args.seconds / 2, 0, deadline, calls=half)
            run = _run_worker(args, args.seconds / 2, 1, deadline, calls=half)
            traced_rate = run["attempted"] / run["busy_ref_s"]
            plain_rate = plain["attempted"] / plain["busy_ref_s"]
            shown = {name: (m["value"], m["unit"], "") for name, m in run["per_layer"].items()}
            shown["trace.overhead_ratio"] = (plain_rate / traced_rate - 1.0, "ratio",
                                             f"untraced {plain_rate:.4g} vs traced "
                                             f"{traced_rate:.4g} ops/s")
            runs, extra = [plain, run], {}
        else:
            runs = []
            for stretch in range(1, STRETCHES + 1):  # each ends on the run's own clock
                budget = stretch * args.seconds / STRETCHES - sum(r["timed_s"] for r in runs)
                done = sum(r["calls"] for r in runs)
                calls = round(stretch * planned / STRETCHES) - done if planned else 0
                runs.append(_run_worker(args, budget, 0, deadline, first_op=done, calls=calls))
            shown, extra = _end_to_end(runs)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in runs}  # all None, or the sweep's one CSV
    digest = next(iter(digests)) if len(digests) == 1 else sorted(map(str, digests))
    print("header " + json.dumps(_header(args, runs[-1]["env"], digest), sort_keys=True))
    for name, (value, unit, note) in {**shown, **extra}.items():
        print(f"{name:48s} {value:14.6g} {unit:6s} {note}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(r["wrong"] for r in runs)
    print(f"{'ops':48s} {attempted:14d} attempted, {failed} failed, {wrong} wrong")
    print(json.dumps({
        "correct": wrong == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
