"""One stretch of a workload in one fresh process; started by run.py, never by hand.

Sets the workload up, then runs its ops from ``--first-op`` on: exactly
``--calls`` of them when that is set, else at least one, until
``--seconds`` have passed.  Prints one JSON object on
its last stdout line: set-up time (from the parent's spawn timestamp to
the first timed op), the summed ``Outcome``, the calls made, latency
samples, raw and rescaled by the ``HostProbe`` timed around each call,
peak memory, the sweep's CSV digest and, when traced, the per-layer
figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy.sparse

import mobiusflux
import workloads


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


class HostProbe:
    """A fixed piece of work, timed before the first op and after each one.

    A shared host's speed drifts by 10-30% over tens of seconds, and the
    program's calls slow down with it.  The probe does the same kinds of
    work as the workloads (one dense Hermitian eigensolve, then Krylov
    steps: a sparse matvec and a projection against an 80-vector basis at
    n = 1200) on inputs that never change, so its time tracks the host's
    speed alone.  A call's time rescaled to the reference speed is its
    raw time times ``REF_S`` over the mean of the probes on either side.
    """

    REF_S = 0.060  # the probe's typical time on a shared 2-core Xeon VM, one BLAS thread
    N, STEPS = 1200, 80

    def __init__(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.dense = dense + dense.conj().T
        sparse = scipy.sparse.random(self.N, self.N, density=4 / self.N, random_state=rng,
                                     format="csr")
        self.sparse = (sparse + sparse.T).astype(complex).tocsr()
        basis = rng.standard_normal((self.N, self.STEPS)) + 1j * rng.standard_normal((self.N, self.STEPS))
        self.basis = np.linalg.qr(basis)[0]
        self.start = rng.standard_normal(self.N) + 0j

    def run(self) -> float:
        t0 = time.perf_counter()
        np.linalg.eigh(self.dense)
        v = self.start
        for _ in range(self.STEPS):
            u = self.sparse @ v
            u -= self.basis @ (self.basis.conj().T @ u)
            v = u / np.linalg.norm(u)
        return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="parent's CLOCK_MONOTONIC")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--calls", type=int, default=0, help="fixed call count; 0 = timed")
    args = parser.parse_args()

    if Path(mobiusflux.__file__).resolve().parent.parent != Path(args.src).resolve():
        raise SystemExit(f"mobiusflux imported from {mobiusflux.__file__}, not {args.src}")

    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        setup_s = _monotonic() - args.spawned
        result = {"setup_s": setup_s, "env": _environment(),
                  **_measure(workload, args, Path(workdir)),
                  "digest": getattr(workload, "digest", None)}
    finally:
        for leftover in Path(workdir).iterdir():
            leftover.unlink()
        os.rmdir(workdir)
    print(json.dumps(result))
    return 0


def _measure(workload, args, workdir: Path) -> dict:
    tracer = None
    if args.trace:
        import tracing  # the untraced run never loads the wrappers

        tracer = tracing.Tracer()
        tracer.install()
    total = workloads.Outcome(0)
    latencies_ms, latencies_ref_ms = [], []
    busy = busy_ref = 0.0
    probe = HostProbe()
    probes_s = [probe.run()]
    i = args.first_op
    start = time.perf_counter()
    while (i - args.first_op < args.calls if args.calls
           else i == args.first_op or time.perf_counter() - start < args.seconds):
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        n = workload.ops_per_call
        try:
            output = workload.call(i)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            elapsed = time.perf_counter() - t0
            print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            outcome = workloads.Outcome(n, n, n)
        else:
            elapsed = time.perf_counter() - t0
            try:
                outcome = workload.check(i, output)
            except Exception as exc:  # output the check cannot read is wrong output
                print(f"op {i} output unreadable: {type(exc).__name__}: {exc}", file=sys.stderr)
                outcome = workloads.Outcome(n, n, n)
        probes_s.append(probe.run())
        at_ref = elapsed * HostProbe.REF_S / ((probes_s[-2] + probes_s[-1]) / 2)
        busy += elapsed
        busy_ref += at_ref
        total += outcome
        latencies_ms.append(elapsed * 1e3 / n)
        latencies_ref_ms.append(at_ref * 1e3 / n)
        i += 1
    result = {
        **dataclasses.asdict(total),
        "calls": i - args.first_op,
        "busy_s": busy,
        "busy_ref_s": busy_ref,
        "timed_s": time.perf_counter() - start,
        "latencies_ms": latencies_ms,
        "latencies_ref_ms": latencies_ref_ms,
        "probes_s": probes_s,
        "probe_ref_s": HostProbe.REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        baseline_ops = 0
        checked = []
        tracer.begin_op(tracing.BASELINE)  # the pass's own set-up runs before its first yield
        for _ in workloads.baseline_pass(workdir, checked):
            tracer.begin_op(tracing.BASELINE)
            baseline_ops += 1
        tracer.write_spans(Path(args.workdir) / f"spans-{args.workload}.csv")
        result["per_layer"] = tracing.per_layer_metrics(
            tracer, total, sum(checked, workloads.Outcome(0)), baseline_ops)
    return result


if __name__ == "__main__":
    sys.exit(main())
