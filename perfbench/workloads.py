"""The benchmark's workloads: inputs from a seed, the timed call, the check.

Each workload builds all of its inputs in its constructor (that is
set-up), then repeats ``call(i)`` for op ``i`` until the run's time is
up.  Only ``call`` is timed.  ``check(i, output)`` compares the output
with a closed-form or known reference and returns an ``Outcome``:

* ``attempted`` ops in the call (flux points for a sweep, else one);
* ``failed`` ops that did not deliver their reference result: a raise,
  a reported failure, or an output that misses its reference;
* ``wrong`` failed ops whose output is unsound, that is not a reported
  failure and not a sound but incomplete eigenvalue list (true
  eigenvalues with one below the last missed).  Any wrong op makes the
  run incorrect;
* ``spectra`` eigensolver results compared with the closed form (one
  per sector of a sweep point, one per spectrum command), ``complete``
  those that match it, and ``nonconverged`` those the program reported
  as failed.

The program is driven only through its public entry points, looked up
on the module at call time so the traced run's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from mobiusflux import cli, eigensolver, experiments, gauge, hamiltonian, lattice, verify
from reference import (ORACLE_TOL, SOLVER_TOL, exact_spectrum, ground_node_amplitude,
                       matches, sound)


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int = 0
    wrong: int = 0
    spectra: int = 0
    complete: int = 0
    nonconverged: int = 0

    def __add__(self, other: "Outcome") -> "Outcome":
        return Outcome(*(a + b for a, b in zip(dataclasses.astuple(self),
                                                dataclasses.astuple(other))))


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


class AcceptanceSweep:
    """``mobiusflux sweep``: the paper's headline nodal sweep, dense solver.

    48 x 9 Moebius band, ty = 0.01, sectors full/even/odd, k = 6.  The
    151-point grid (-0.25..1.25 by 0.01) is thinned to every tenth
    point; the seed picks how far the grid reaches past 0 and 1.  Every
    command has the same config, so every CSV must be the same bytes:
    ``digest`` holds the sha256 of the first one, which the run compares
    across its worker processes and prints, so that runs with the same
    seed can be compared too.
    """

    SECTORS = ("full", "even", "odd")

    def __init__(self, seed: int, workdir, nx=48, ny=9, step=0.1):
        rng = np.random.default_rng(seed)
        below, above = (int(v) for v in rng.integers(1, 3, size=2))
        f_min, f_max = -below * step, 1.0 + above * step
        steps = below + above + round(1.0 / step) + 1
        self.nx, self.ny, self.ty = nx, ny, 0.01
        self.grid = np.linspace(f_min, f_max, steps)
        self.ops_per_call = steps
        self.out = workdir / f"sweep-{nx}x{ny}-{seed}.csv"
        self.argv = ["sweep", "--topology", lattice.MOEBIUS, "--nx", nx, "--ny", ny,
                     "--tx", 1.0, "--ty", self.ty, "--sectors", ",".join(self.SECTORS),
                     "--solver", "dense", "--k", 6, "--f-min", repr(f_min),
                     "--f-max", repr(f_max), "--f-steps", steps,
                     "--seed", int(rng.integers(0, 2**31)), "--out", self.out]
        self.digest = None

    def call(self, i):
        rc, _ = _cli(self.argv)
        text = self.out.read_text(encoding="utf-8")
        records = [experiments.SweepRecord(**row) for row in cli.parse_sweep_csv(text)]
        even = experiments.detect_minima(records, "e0_even", mode="integer")
        odd = experiments.detect_minima(records, "e0_odd", mode="half-integer")
        return rc, text, records, even, odd

    def check(self, i, output) -> Outcome:
        rc, text, records, even, odd = output
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
        steps = len(self.grid)
        whole = (rc == 0 and digest == self.digest and len(records) == steps
                 and sorted(round(f) for f in even.minima_f) == [0, 1]
                 and max(even.distances) <= 0.005
                 and len(odd.minima_f) == 1 and abs(odd.minima_f[0] - 0.5) <= 0.005)
        if not whole:
            return Outcome(steps, steps, steps)
        total = Outcome(steps)
        for idx, rec in enumerate(records):
            if rec.status != "ok":
                total += Outcome(0, 1, spectra=len(self.SECTORS), nonconverged=1)
                continue
            row_ok, complete = self._check_row(idx, rec)
            bad = int(not row_ok)
            total += Outcome(0, bad, bad, spectra=len(self.SECTORS), complete=complete)
        return total

    def _energies(self, f, sector):
        return exact_spectrum(self.nx, self.ny, True, f, 1.0, self.ty, sector)

    def _check_row(self, idx: int, rec) -> tuple:
        """(whether the row matches its reference, how many sector spectra do)."""
        f = self.grid[idx]
        full = self._energies(f, "full")
        by_sector = {
            "full": {"e0_full": full[0], "gap": full[1] - full[0]},
            "even": {"e0_even": self._energies(f, "even")[0]},
            "odd": {"e0_odd": self._energies(f, "odd")[0]},
        }
        if full[1] - full[0] > 1e-8:  # the ground state is unique
            by_sector["full"]["node_amp"] = ground_node_amplitude(self.nx, self.ny, True, f,
                                                                  1.0, self.ty)
        complete = sum(_columns_match(rec, want) for want in by_sector.values())
        if 0 < idx < len(self.grid) - 1:
            df = self.grid[1] - self.grid[0]
            current = -(self._energies(self.grid[idx + 1], "full")[0]
                        - self._energies(self.grid[idx - 1], "full")[0]) / (2.0 * df)
            current_ok = _columns_match(rec, {"current": current})
        else:
            current_ok = rec.current is None
        row_ok = (abs(rec.f - f) <= 1e-12 and current_ok
                  and complete == len(self.SECTORS))
        return row_ok, complete


def _columns_match(rec, want: dict) -> bool:
    return all(getattr(rec, col) is not None and abs(getattr(rec, col) - value) <= ORACLE_TOL
               for col, value in want.items())


class IterativeSpectrum:
    """``mobiusflux spectrum`` at 48 x 25 (n = 1200): the iterative solver.

    ``solver=auto`` sends n > 1024 to the Krylov path.  The plan is four
    blocks of five commands.  Each block holds one degenerate case (f = 0
    or 1/2 on one topology) and two generic fluxes, one from each half of
    the period, on both topologies.  The eight generic fluxes are drawn
    from the seed, one per eighth of the period, so every seed and every
    prefix of the plan mixes cheap and dear solves alike.  The solver
    keeps the CLI's default seed, so the degenerate cases, whose cost and
    outcome hang on the Krylov start vector, repeat exactly across runs.
    """

    ops_per_call = 1
    K = 6

    def __init__(self, seed: int, workdir=None, nx=48, ny=25):
        rng = np.random.default_rng(seed)
        generic = [(j + float(rng.uniform(0.2, 0.8))) / 8 for j in range(8)]
        moebius, annulus = lattice.MOEBIUS, lattice.ANNULUS
        degenerate = [(moebius, 0.0), (annulus, 0.5), (annulus, 0.0), (moebius, 0.5)]
        self.plan = []
        for j, case in enumerate(degenerate):
            low, high = generic[j], generic[j + 4]
            self.plan += [case, (moebius, low), (annulus, high), (annulus, low), (moebius, high)]
        self.nx, self.ny = nx, ny

    def _case(self, i):
        return self.plan[i % len(self.plan)]

    def call(self, i):
        topology, f = self._case(i)
        return _cli(["spectrum", "--topology", topology, "--nx", self.nx, "--ny", self.ny,
                     "--tx", 1.0, "--ty", 1.0, "--f", repr(f), "--k", self.K,
                     "--solver", "auto"])

    def check(self, i, output) -> Outcome:
        rc, text = output
        if rc != 0:  # exit code 1 is the program's own report of a failed solve
            reported = rc == 1
            return Outcome(1, 1, int(not reported), spectra=1, nonconverged=int(reported))
        topology, f = self._case(i)
        values = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
        exact = exact_spectrum(self.nx, self.ny, topology == lattice.MOEBIUS, f)
        if len(values) == self.K and matches(values, exact, SOLVER_TOL):
            return Outcome(1, spectra=1, complete=1)
        unsound = len(values) != self.K or not sound(values, exact, SOLVER_TOL)
        return Outcome(1, 1, int(unsound), spectra=1)


class VerifySuite:
    """``run_verification`` over seeds drawn from a seed: the baseline pass's
    verify op, and the tests'.  It is no workload of its own, because its
    interpreted-Python ops swing too far with a shared host's speed.

    Every fourth run breaks the seam.  A normal run must pass all eleven
    checks; a broken one must fail exactly the five seam-sensitive ones.
    """

    ops_per_call = 1
    BROKEN_FAILS = frozenset({"gauge_invariance", "homology_invariance", "annulus_equivalence",
                              "ladder_periodicity", "stokes_defect"})

    def __init__(self, seed: int, workdir=None):
        rng = np.random.default_rng(seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**31, size=256)]

    @staticmethod
    def _broken(i: int) -> bool:
        return i % 4 == 3

    def call(self, i):
        return verify.run_verification(seed=self.seeds[i % len(self.seeds)],
                                       broken_seam=self._broken(i))

    def check(self, i, output) -> Outcome:
        failing = {r.name for r in output if not r.passed}
        ok = len(output) == 11 and failing == (self.BROKEN_FAILS if self._broken(i) else set())
        return Outcome(1, int(not ok), int(not ok))


WORKLOADS = {
    "acceptance_sweep": AcceptanceSweep,
    "iterative_spectrum": IterativeSpectrum,
}


def baseline_pass(workdir, outcomes: list):
    """Fixed-size calls behind the ROADMAP baseline table, plus one small op per workload.

    Yields once per op so the caller can tag spans, and appends the
    small ops' outcomes to ``outcomes``.  The table rows run
    on the 48 x 9 Moebius band (n = 432; sectors 240 and 192) at
    ty = 0.01 and f = 0.3, three times each; Lanczos runs there at
    ty = 1, and once more at 48 x 25 (n = 1200).  Nothing depends on the
    workload seed, so the rows compare across workloads and runs.
    """
    band = lattice.build_lattice(48, 9, lattice.MOEBIUS)
    isometries = [hamiltonian.sector_isometry(band, p) for p in (hamiltonian.EVEN, hamiltonian.ODD)]
    lanczos = eigensolver.SolverConfig(k=6, method="lanczos")
    for _ in range(3):
        yield
        h = hamiltonian.assemble(band, gauge.uniform_flux_field(band, 0.3),
                                 hamiltonian.HoppingParams(1.0, 0.01))
        for part in [h] + [hamiltonian.restrict(h, iso) for iso in isometries]:
            eigensolver.dense_eigh(part)
        yield
        eigensolver.lanczos_lowest(hamiltonian.assemble(band, gauge.uniform_flux_field(band, 0.3),
                                                        hamiltonian.HoppingParams()), lanczos)
    yield
    wide = lattice.build_lattice(48, 25, lattice.MOEBIUS)
    eigensolver.lanczos_lowest(hamiltonian.assemble(wide, gauge.uniform_flux_field(wide, 0.3),
                                                    hamiltonian.HoppingParams()), lanczos)
    for small in (AcceptanceSweep(0, workdir, nx=12, ny=5, step=0.25), VerifySuite(0)):
        yield
        outcomes.append(small.check(0, small.call(0)))
