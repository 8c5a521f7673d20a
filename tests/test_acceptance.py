"""Acceptance suite: one test per headline criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they print.  Criteria 2 and 3 share one dense sweep of the
48 x 9 moebius band; that sweep uses weak rung coupling (ty = 0.01) so
the decoupled-chain regime realizes the nodal ground state at half flux,
which is the regime where half-integer quantization is visible in the
full ground state and not only in the odd-sector column.
"""

import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from mobiusflux.eigensolver import SolverConfig, dense_eigh, lanczos_lowest
from mobiusflux.experiments import (
    SweepConfig,
    annulus_equivalence_check,
    detect_minima,
    flux_sweep,
    ladder_periodicity_test,
)
from mobiusflux.gauge import (
    add_face_flux,
    apply_gauge_transform,
    face_curvature,
    reduce_angle,
    stokes_defect,
    uniform_flux_field,
    wilson_loop,
)
from mobiusflux.hamiltonian import (
    EVEN,
    FULL,
    ODD,
    HoppingParams,
    assemble,
    restrict,
    ring_spectrum_oracle,
    sector_isometry,
)
from mobiusflux.lattice import (
    ANNULUS,
    MOEBIUS,
    Site,
    build_lattice,
    center_loop,
    homology_class,
    offset_loop,
)
from mobiusflux.verify import random_class2_loop, random_gauge_transform


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


# ---------------------------------------------------------------------------
# shared sweeps (module scoped: computed once)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nodal_sweep():
    """48 x 9 moebius sweep in the weak-rung regime, with wall-clock time."""
    cfg = SweepConfig(
        build_lattice(48, 9, MOEBIUS), HoppingParams(tx=1.0, ty=0.01),
        f_min=-0.25, f_max=1.25, f_steps=151,
        solver=SolverConfig(k=6, method="dense"),
    )
    start = time.perf_counter()
    records = flux_sweep(cfg)
    elapsed = time.perf_counter() - start
    return records, elapsed


@pytest.fixture(scope="module")
def default_spectra():
    """Full/even/odd dense spectra of the default 48 x 9 band at tx=ty=1."""
    lat = build_lattice(48, 9, MOEBIUS)
    hop = HoppingParams(tx=1.0, ty=1.0)
    isos = {p: sector_isometry(lat, p) for p in (EVEN, ODD)}
    f_values = np.linspace(-0.25, 1.25, 151)
    full, even, odd = [], [], []
    for f in f_values:
        h = assemble(lat, uniform_flux_field(lat, float(f)), hop)
        # criterion 9 reads eigenvalues only, so LAPACK computes no vectors
        full.append(eigvalsh(h.toarray()))
        even.append(eigvalsh(restrict(h, isos[EVEN]).toarray()))
        odd.append(eigvalsh(restrict(h, isos[ODD]).toarray()))
    return f_values, np.array(full), np.array(even), np.array(odd)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_flat_gauge_homology_suite():
    start = time.perf_counter()
    lat = build_lattice(6, 5, MOEBIUS)
    rng = np.random.default_rng(20240101)
    worst_curv = worst_gauge = worst_homology = 0.0
    for _ in range(20):
        base = uniform_flux_field(lat, float(rng.uniform(-2, 2)))
        moved = apply_gauge_transform(base, random_gauge_transform(lat, rng))
        worst_curv = max([worst_curv, *(abs(reduce_angle(a)) for a in face_curvature(moved).flat)])
        for loop in (center_loop(lat), offset_loop(lat, 0)):
            shift = reduce_angle(wilson_loop(moved, loop).angle - wilson_loop(base, loop).angle)
            worst_gauge = max(worst_gauge, abs(shift))
    for _ in range(10):
        field = apply_gauge_transform(
            uniform_flux_field(lat, float(rng.uniform(-2, 2))),
            random_gauge_transform(lat, rng),
        )
        l1, l2 = random_class2_loop(lat, rng), random_class2_loop(lat, rng)
        assert homology_class(lat, l1) == homology_class(lat, l2)
        gap = reduce_angle(wilson_loop(field, l1).angle - wilson_loop(field, l2).angle)
        worst_homology = max(worst_homology, abs(gap))
    elapsed = time.perf_counter() - start
    ok = worst_curv <= 1e-12 and worst_gauge <= 1e-12 and worst_homology <= 1e-12 and elapsed < 1.0
    _verdict(
        1, "flatness + gauge + homology invariance at 1e-12", ok,
        f"(curv {worst_curv:.1e}, gauge {worst_gauge:.1e}, "
        f"homology {worst_homology:.1e}, {elapsed:.2f}s)",
    )


def test_criterion_2_integer_quantization(nodal_sweep):
    records, elapsed = nodal_sweep
    report = detect_minima(records, "e0_even", mode="integer")
    near_zero = [fm for fm in report.minima_f if abs(fm - 0.0) <= 0.005]
    near_one = [fm for fm in report.minima_f if abs(fm - 1.0) <= 0.005]
    ok = len(report.minima_f) == 2 and len(near_zero) == 1 and len(near_one) == 1 and elapsed < 60.0
    _verdict(
        2, "even-sector minima at integer flux (within 0.005)", ok,
        f"(minima at {tuple(round(fm, 6) for fm in report.minima_f)}, sweep {elapsed:.1f}s)",
    )


def test_criterion_3_half_integer_quantization(nodal_sweep):
    records, _ = nodal_sweep
    report = detect_minima(records, "e0_odd", mode="half-integer")
    ok_locus = len(report.minima_f) == 1 and abs(report.minima_f[0] - 0.5) <= 0.005
    at_half = min(records, key=lambda rec: abs(rec.f - 0.5))
    ok_nodal = at_half.node_amp is not None and at_half.node_amp <= 1e-8
    ok = ok_locus and ok_nodal
    _verdict(
        3, "odd-sector minimum at half flux and nodal ground state", ok,
        f"(minimum at {report.minima_f[0]:.6f}, node amplitude {at_half.node_amp:.1e})",
    )


def moebius_levels(nx: int, ny: int, hop: HoppingParams, f: float, sector: str) -> np.ndarray:
    """The levels of a sector of the uniform-flux Moebius band, no potential, Dirichlet walls.

    A wall mode sin(pi n j / (ny + 1)) is even under the reflection for odd
    n and odd for even n; the seam's twist keeps the even modes periodic,
    q = 2 pi (k + f) / nx, and makes the odd ones antiperiodic,
    q = 2 pi (k + f + 1/2) / nx, and the full sector holds both:
    E = 4 tx sin^2(q/2) + 4 ty sin^2(pi n / (2 (ny + 1))), ascending.  The
    sin^2 form has no cancellation, so each level is good to a few ulps.
    """
    n = np.arange(1, ny + 1)
    n = n[{FULL: n > 0, EVEN: n % 2 == 1, ODD: n % 2 == 0}[sector]]
    q = 2.0 * np.pi * (np.arange(nx)[:, None] + f + 0.5 * (n % 2 == 0)) / nx
    return np.sort((4.0 * hop.tx * np.sin(q / 2) ** 2
                    + 4.0 * hop.ty * np.sin(np.pi * n / (2 * (ny + 1))) ** 2).ravel())


def test_the_nodal_sweep_lies_within_4_eps_norm_of_its_closed_form(nodal_sweep):
    """Every energy the sweep prints is the closed form's to 4 eps ||H||, on any BLAS.

    A backward-stable symmetric eigensolver returns each eigenvalue within
    a small multiple of eps ||H|| of the exact one; ||H|| <= 4 tx + 4 ty =
    4.04 by Gershgorin, so eps ||H|| = 8.97e-16 and the bound is 3.59e-15
    for e0_full, e0_even, e0_odd and the gap (measured worst 0.89, 0.96,
    0.73 and 1.43 eps ||H|| on one OpenBLAS thread, 0.87, 1.04, 1.07 and
    1.39 on two).  The current -(E0(f + df) - E0(f - df)) / (2 df) then
    lies within 4 eps ||H|| / df of the closed form's central difference
    (two errors of 4 eps ||H|| over 2 df; measured worst 0.77 and 0.76
    eps ||H|| / df).  The bytes themselves are pinned only by the golden
    digest, which skips on another BLAS build; this bound holds on every
    one.
    """
    records, _ = nodal_sweep
    hop = HoppingParams(tx=1.0, ty=0.01)  # the fixture's 48 x 9 band
    eps_norm = np.finfo(float).eps * (4.0 * hop.tx + 4.0 * hop.ty)
    df = records[1].f - records[0].f
    exact = {sector: np.array([moebius_levels(48, 9, hop, rec.f, sector)[:2]
                               for rec in records]) for sector in (FULL, EVEN, ODD)}
    columns = {"e0_full": exact[FULL][:, 0], "e0_even": exact[EVEN][:, 0],
               "e0_odd": exact[ODD][:, 0], "gap": exact[FULL][:, 1] - exact[FULL][:, 0]}
    for column, want in columns.items():
        got = np.array([getattr(rec, column) for rec in records], dtype=float)
        worst = np.max(np.abs(got - want)) / eps_norm
        assert worst <= 4.0, f"{column} lies {worst:.2f} eps ||H|| from the closed form"
    e0 = columns["e0_full"]
    got = np.array([rec.current for rec in records[1:-1]], dtype=float)
    worst = np.max(np.abs(got + (e0[2:] - e0[:-2]) / (2.0 * df))) * df / eps_norm
    assert worst <= 4.0, f"current lies {worst:.2f} eps ||H|| / df from the closed form"


def test_criterion_4_offset_loop_doubling():
    lat = build_lattice(48, 9, MOEBIUS)
    cloop, oloop = center_loop(lat), offset_loop(lat, 0)
    rng = np.random.default_rng(4)
    exact = 0
    for _ in range(20):
        field = uniform_flux_field(lat, float(rng.uniform(-3, 3)))
        if wilson_loop(field, oloop).angle == 2.0 * wilson_loop(field, cloop).angle:
            exact += 1
    _verdict(4, "offset Wilson angle doubles the center angle bit-exactly",
             exact == 20, f"({exact}/20 fluxes exact)")


def test_criterion_5_complement_equivalence():
    band = build_lattice(6, 5, MOEBIUS)
    dev = annulus_equivalence_check(band, np.round(np.arange(0.0, 1.01, 0.1), 10))
    _verdict(5, "odd moebius spectrum = half-width annulus at f+1/2",
             dev <= 1e-10, f"(max deviation {dev:.2e})")


def test_criterion_6_ladder_limit():
    ladder = build_lattice(12, 2, MOEBIUS)
    decoupled = ladder_periodicity_test(ladder, np.linspace(0.0, 1.0, 5), ty=0.0)
    coupled = ladder_periodicity_test(ladder, (0.0,), ty=1.0)
    _verdict(
        6, "decoupled ladder has period 1/2, coupled ladder does not",
        decoupled <= 1e-10 and coupled > 0.01,
        f"(ty=0 dev {decoupled:.2e}, ty=1 dev {coupled:.2e})",
    )


def test_criterion_7_stokes_identity():
    lat = build_lattice(6, 5, MOEBIUS)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        flat = apply_gauge_transform(
            uniform_flux_field(lat, float(rng.uniform(-2, 2))),
            random_gauge_transform(lat, rng),
        )
        face = Site(int(rng.integers(0, lat.nx)), int(rng.integers(0, lat.ny - 1)))
        curved = add_face_flux(flat, face, 0.3)
        l1, l2 = random_class2_loop(lat, rng), random_class2_loop(lat, rng)
        for field in (flat, curved):
            worst = max(worst, abs(stokes_defect(field, l1, l2)))
    _verdict(7, "Stokes defect vanishes for flat and curvature-injected fields",
             worst <= 1e-12, f"(max |defect| {worst:.2e})")


def test_criterion_8_solver_validity():
    lat = build_lattice(48, 9, MOEBIUS)
    h = assemble(lat, uniform_flux_field(lat, 0.25), HoppingParams())
    lanczos = lanczos_lowest(h, SolverConfig(k=6, tol=1e-11, seed=2024, method="lanczos"))
    dense = dense_eigh(h)
    dev_solver = float(np.max(np.abs(lanczos.values - dense.values[:6])))
    dev_oracle = 0.0
    for nx in (3, 4, 8, 16):
        ring = build_lattice(nx, 1, ANNULUS)
        for f in (0.0, 0.25, 0.5):
            got = dense_eigh(
                assemble(ring, uniform_flux_field(ring, f), HoppingParams(ty=0.0))
            ).values
            dev_oracle = max(dev_oracle, float(np.max(np.abs(got - ring_spectrum_oracle(nx, f)))))
    ok = dev_solver <= 1e-8 and dev_oracle <= 1e-10
    _verdict(8, "Lanczos matches dense on n=432 and both match the ring oracle",
             ok, f"(solver dev {dev_solver:.2e}, oracle dev {dev_oracle:.2e})")


def test_criterion_9_global_invariants(default_spectra):
    f_values, full, even, odd = default_spectra
    step = f_values[1] - f_values[0]
    pairs = int(round(1.0 / step))  # index offset realizing f -> f + 1
    dev_period = float(np.max(np.abs(full[pairs:] - full[:-pairs])))
    center = 25  # index of f = 0
    reach = min(center, len(f_values) - 1 - center)
    dev_reflect = 0.0
    for d in range(1, reach + 1):
        dev_reflect = max(
            dev_reflect, float(np.max(np.abs(full[center + d] - full[center - d])))
        )
    dev_complete = 0.0
    for row_full, row_even, row_odd in zip(full, even, odd):
        merged = np.sort(np.concatenate([row_even, row_odd]))
        dev_complete = max(dev_complete, float(np.max(np.abs(merged - row_full))))
    ok = dev_period <= 1e-9 and dev_reflect <= 1e-9 and dev_complete <= 1e-9
    _verdict(
        9, "periodicity, reflection and sector completeness at 1e-9", ok,
        f"(period {dev_period:.2e}, reflection {dev_reflect:.2e}, "
        f"completeness {dev_complete:.2e})",
    )
