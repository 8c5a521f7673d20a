"""One-shot invariant suite run by the CLI and the acceptance tests.

Every check is self-contained on a fixed small lattice, draws any
randomness from an explicit generator, and returns a pass/fail verdict
with the measured worst deviation.  The suite accepts a deliberately
broken seam rule (lattice hook) so its own sensitivity can be tested:
with the seam flip disabled the gauge-invariance, homology, equivalence,
ladder and Stokes checks must fail.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .eigensolver import SolverConfig, dense_eigh, lanczos_lowest
from .experiments import (
    annulus_equivalence_check,
    ladder_periodicity_test,
    max_deviation,
    uniform_spectrum,
)
from .gauge import (
    GaugeField,
    GaugeTransform,
    add_face_flux,
    apply_gauge_transform,
    face_curvature,
    reduce_angle,
    stokes_defect,
    uniform_flux_field,
    wilson_loop,
)
from .hamiltonian import (
    EVEN,
    ODD,
    HoppingParams,
    assemble,
    ring_spectrum_oracle,
)
from .lattice import (
    ANNULUS,
    MOEBIUS,
    LoopError,
    LoopPath,
    Site,
    StripLattice,
    build_lattice,
    center_loop,
    homology_class,
    offset_loop,
)

ANGLE_TOL = 1e-12
SPECTRUM_TOL = 1e-10
CROSS_VALIDATION_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _moebius(nx: int, ny: int, broken_seam: bool) -> StripLattice:
    return StripLattice(nx=nx, ny=ny, topology=MOEBIUS, seam_flip=not broken_seam)


def _column_walk(lat: StripLattice, rows: list) -> LoopPath:
    """The walk through column k % nx from row a to row b for the k-th (a, b) of
    ``rows``, stepping +x between columns."""
    sites = []
    for k, (a, b) in enumerate(rows):
        step, base = (1 if b >= a else -1), k % lat.nx * lat.ny
        sites += range(base + a, base + b + step, step)
    return LoopPath(lat, sites)


def random_class2_loop(lat: StripLattice, rng: np.random.Generator):
    """Random closed walk of homology class 2 avoiding the center row.

    Wanders through the lower half, crosses the seam, wanders through the
    upper half, crosses back and closes; the two halves swap at each seam
    crossing, so the walk never needs the center row.  A seam that does not
    swap them (a broken seam rule) raises LoopError.
    """
    c = lat.center_row
    if c < 1:
        raise ValueError("need ny >= 3 for center-avoiding loops")
    r0 = int(rng.integers(0, c))
    r, rows = r0, []
    for half_lo, half_hi in ((0, c), (c + 1, lat.ny)):
        if not half_lo <= r < half_hi:
            raise LoopError(f"the seam keeps row {r} in its half; "
                            "the walk would cross the center row")
        targets = rng.integers(half_lo, half_hi, size=lat.nx).tolist()
        rows += zip([r, *targets], targets)
        r = int(lat.x_next[lat.site_id((lat.nx - 1, targets[-1]))]) % lat.ny
    return _column_walk(lat, rows + [(r, r0)])


def random_gauge_transform(lat: StripLattice, rng: np.random.Generator) -> GaugeTransform:
    return GaugeTransform(lattice=lat, chi=rng.uniform(-math.pi, math.pi, (lat.nx, lat.ny)))


def _random_flat_field(lat: StripLattice, rng: np.random.Generator) -> GaugeField:
    """A uniform field of random flux in [-2, 2) under a random gauge transform."""
    return apply_gauge_transform(uniform_flux_field(lat, float(rng.uniform(-2, 2))),
                                 random_gauge_transform(lat, rng))


def _verdict(what: str, worst: float, tol: float) -> tuple:
    """A check's verdict and detail: its worst deviation against its tolerance."""
    return worst <= tol, f"{what} = {worst:.2e} (tol {tol:g})"


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_flatness(rng, broken_seam) -> tuple:
    lat = _moebius(6, 5, broken_seam)
    worst = 0.0
    for _ in range(20):
        curvature = face_curvature(_random_flat_field(lat, rng))
        worst = max([worst, *(abs(reduce_angle(a)) for a in curvature.flat)])
    return _verdict("max |curvature|", worst, ANGLE_TOL)


def check_gauge_invariance(rng, broken_seam) -> tuple:
    lat = _moebius(6, 5, broken_seam)
    worst = 0.0
    for _ in range(20):
        field = uniform_flux_field(lat, float(rng.uniform(-2, 2)))
        transformed = apply_gauge_transform(field, random_gauge_transform(lat, rng))
        for loop in (center_loop(lat), offset_loop(lat, 0), random_class2_loop(lat, rng)):
            worst = max(worst, abs(reduce_angle(wilson_loop(field, loop).angle
                                                - wilson_loop(transformed, loop).angle)))
    return _verdict("max angle shift mod 2pi", worst, ANGLE_TOL)


def check_homology_invariance(rng, broken_seam) -> tuple:
    lat = _moebius(6, 5, broken_seam)
    worst = 0.0
    for _ in range(10):
        field = _random_flat_field(lat, rng)
        l1 = random_class2_loop(lat, rng)
        l2 = random_class2_loop(lat, rng)
        if homology_class(lat, l1) != homology_class(lat, l2):
            return False, "generated loops disagree in homology class"
        dev = abs(reduce_angle(wilson_loop(field, l1).angle - wilson_loop(field, l2).angle))
        worst = max(worst, dev)
    return _verdict("max homologous angle gap", worst, ANGLE_TOL)


def check_loop_doubling(rng, broken_seam) -> tuple:
    lat = _moebius(6, 5, broken_seam)
    cloop, oloop = center_loop(lat), offset_loop(lat, 0)
    exact = 0
    for _ in range(20):
        field = uniform_flux_field(lat, float(rng.uniform(-3, 3)))
        if wilson_loop(field, oloop).angle == 2.0 * wilson_loop(field, cloop).angle:
            exact += 1
    return exact == 20, f"bit-exact doubling in {exact}/20 random fluxes"


def check_flux_periodicity(rng, broken_seam) -> tuple:
    lat, hop = _moebius(6, 5, broken_seam), HoppingParams()
    worst = max(max_deviation(uniform_spectrum(lat, f, hop), uniform_spectrum(lat, f + 1.0, hop))
                for f in (float(rng.uniform(-1, 1)), 0.0, 0.3))
    return _verdict("max |E(f)-E(f+1)|", worst, SPECTRUM_TOL)


def check_reflection_symmetry(rng, broken_seam) -> tuple:
    lat, hop = _moebius(6, 5, broken_seam), HoppingParams()
    worst = max(max_deviation(uniform_spectrum(lat, f, hop), uniform_spectrum(lat, -f, hop))
                for f in (float(rng.uniform(0, 1)), 0.25))
    return _verdict("max |E(f)-E(-f)|", worst, SPECTRUM_TOL)


def check_sector_completeness(rng, broken_seam) -> tuple:
    lat, hop = _moebius(6, 5, broken_seam), HoppingParams()
    worst = 0.0
    for f in (0.0, float(rng.uniform(0, 1))):
        parts = [uniform_spectrum(lat, f, hop, p) for p in (EVEN, ODD)]
        worst = max(worst, max_deviation(np.sort(np.concatenate(parts)),
                                         uniform_spectrum(lat, f, hop)))
    return _verdict("max |sort(even+odd) - full|", worst, SPECTRUM_TOL)


def check_annulus_equivalence(rng, broken_seam) -> tuple:
    worst = annulus_equivalence_check(_moebius(6, 5, broken_seam), (0.0, 0.3, 0.5))
    return _verdict("max odd-vs-annulus deviation", worst, SPECTRUM_TOL)


def check_ladder_periodicity(rng, broken_seam) -> tuple:
    lat = _moebius(12, 2, broken_seam)
    decoupled = ladder_periodicity_test(lat, np.linspace(0.0, 1.0, 5), ty=0.0)
    coupled = ladder_periodicity_test(lat, (0.0,), ty=1.0)
    ok = decoupled <= SPECTRUM_TOL and coupled > 0.01
    return ok, (
        f"ty=0 half-period dev = {decoupled:.2e}, "
        f"ty=1 half-period dev = {coupled:.2e}"
    )


def check_stokes_defect(rng, broken_seam) -> tuple:
    lat = _moebius(6, 5, broken_seam)
    worst = 0.0
    for _ in range(10):
        flat = _random_flat_field(lat, rng)
        face = Site(int(rng.integers(0, lat.nx)), int(rng.integers(0, lat.ny - 1)))
        curved = add_face_flux(flat, face, 0.3)
        l1 = random_class2_loop(lat, rng)
        l2 = random_class2_loop(lat, rng)
        for field in (flat, curved):
            worst = max(worst, abs(stokes_defect(field, l1, l2)))
    return _verdict("max |defect|", worst, ANGLE_TOL)


def check_solver_cross_validation(rng, broken_seam) -> tuple:
    # the site basis on purpose: the only complex operator solved (zheevr, ARPACK's complex driver)
    lat = _moebius(12, 5, broken_seam)
    h = assemble(lat, uniform_flux_field(lat, 0.25), HoppingParams())
    reference = dense_eigh(h, 6).values
    iterative = lanczos_lowest(h, SolverConfig(k=6, tol=1e-12, seed=7, method="lanczos")).values
    worst = max_deviation(iterative, reference)
    for nx in (3, 4, 8, 16):
        ring = build_lattice(nx, 1, ANNULUS)
        for f in (0.0, 0.25, 0.5):
            worst = max(worst, max_deviation(uniform_spectrum(ring, f, HoppingParams(ty=0.0)),
                                             ring_spectrum_oracle(nx, f)))
    return _verdict("max solver/oracle deviation", worst, CROSS_VALIDATION_TOL)


CHECKS = tuple((check.__name__.removeprefix("check_"), check) for check in (
    check_flatness, check_gauge_invariance, check_homology_invariance, check_loop_doubling,
    check_flux_periodicity, check_reflection_symmetry, check_sector_completeness,
    check_annulus_equivalence, check_ladder_periodicity, check_stokes_defect,
    check_solver_cross_validation,
))


def run_verification(seed: int = 12345, broken_seam: bool = False) -> list:
    """Run every check; exceptions count as failures, never abort the suite."""
    results = []
    for name, func in CHECKS:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            passed, detail = func(rng, broken_seam)
        except Exception as exc:  # a raising check is a failing check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name=name, passed=passed, detail=detail,
                        seconds=time.perf_counter() - start)
        )
    return results
