"""Flux-sweep experiments: quantization minima, nodal states, currents.

``flux_sweep`` solves each requested sector's ``sector_pencil`` on a
flux grid and records ground energies, the gap, the ground state's
amplitude on the center row and the persistent current -dE0/df.
``detect_minima`` locates the quantization values: the even sector dips
at integers, the odd (nodal) sector at half-odd integers.
``annulus_equivalence_check`` and ``ladder_periodicity_test`` hold them
against exact identities; each returns its worst spectral deviation.
Period 1 in f, which every strip has, is ``verify``'s ``flux_periodicity``
check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .eigensolver import NoConvergenceError, SolverConfig, dense_eigh, solve
from .hamiltonian import (
    EVEN,
    FULL,
    ODD,
    HoppingParams,
    sector_isometry,
    sector_pencil,
)
from .lattice import ANNULUS, StripLattice, build_lattice


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's inputs; the lattice, hopping and solver come built, so checked."""

    lattice: StripLattice
    hop: HoppingParams
    f_min: float = -0.25
    f_max: float = 1.25
    f_steps: int = 151
    solver: SolverConfig = dataclasses.field(default_factory=SolverConfig)
    sectors: tuple = (FULL, EVEN, ODD)

    def __post_init__(self):
        # a non-finite end or span would put nan and inf in f_values
        if not (self.f_min < self.f_max and math.isfinite(float(self.f_max) - float(self.f_min))):
            raise ValueError(f"need finite f_min < f_max, got [{self.f_min}, {self.f_max}]")
        if self.f_steps < 2:
            raise ValueError(f"need f_steps >= 2, got {self.f_steps}")
        if not np.all(np.diff(self.f_values()) > 0):  # linspace rounds a narrow range's points
            raise ValueError(f"[{self.f_min}, {self.f_max}] holds fewer than "
                             f"f_steps = {self.f_steps} distinct doubles")
        if not self.sectors:
            raise ValueError("at least one sector must be requested")
        for sector in self.sectors:  # raises on unknown or nonexistent sectors
            sector_isometry(self.lattice, sector)

    def f_values(self) -> np.ndarray:
        return np.linspace(self.f_min, self.f_max, self.f_steps)


@dataclass(frozen=True)
class SweepRecord:
    """One flux point; None marks fields not requested or not computable."""

    f: float
    e0_full: Optional[float] = None
    e0_even: Optional[float] = None
    e0_odd: Optional[float] = None
    gap: Optional[float] = None
    node_amp: Optional[float] = None
    current: Optional[float] = None
    status: str = "ok"


def nodal_amplitude(state: np.ndarray, lat: StripLattice) -> float:
    """Max |psi| over the center-row sites of a full-lattice state."""
    state = np.asarray(state).reshape(-1)
    if state.shape != (lat.n_sites,):
        raise ValueError(f"state has {state.size} entries, lattice has {lat.n_sites} sites")
    return float(np.max(np.abs(state.reshape(lat.nx, lat.ny)[:, lat.center_row])))


# a full-sector gap at most this small counts as a degenerate ground state
_UNIQUE_GAP = 1e-8


def flux_sweep(cfg: SweepConfig) -> list:
    """Run the sweep; solver failures mark the record failed and continue.

    Each sector's pencil is ``sector_pencil``'s, cached per process, so a
    sweep builds none that an earlier sweep of the band and hopping built:
    a repeated sweep pays only for ``at(f)`` and the solves.
    The full sector asks the solver for min(k, 2) pairs, all that its
    columns read (e0, the gap and the ground vector); a parity sector asks
    for k values and no vectors, so that its e0 is bit for bit the one
    ``spectrum`` prints: the dense driver's bisection finds the same values
    with or without vectors, but its lowest value depends on how many it is
    asked for (see ``dense_eigh``).
    ``node_amp`` is left empty unless the full-sector gap shows a unique
    ground state: a degenerate one has no basis-free center-row amplitude,
    only whatever vector LAPACK returns, and with k = 1 the gap is unknown.
    """
    lat = cfg.lattice
    pencils = {sector: sector_pencil(lat, sector, cfg.hop) for sector in dict.fromkeys(cfg.sectors)}
    full_solver = dataclasses.replace(cfg.solver, k=min(cfg.solver.k, 2))
    records = []
    for f in cfg.f_values():
        f = float(f)
        try:
            fields = {}
            for sector, pencil in pencils.items():
                res = solve(pencil.at(f), full_solver if sector == FULL else cfg.solver,
                            values_only=sector != FULL)
                fields[f"e0_{sector}"] = float(res.values[0])
                if sector == FULL and res.k >= 2:
                    fields["gap"] = float(res.values[1] - res.values[0])
                    if lat.ny % 2 == 1 and fields["gap"] > _UNIQUE_GAP:
                        fields["node_amp"] = nodal_amplitude(
                            pencil.iso.embed(res.vectors[:, 0]), lat)
            records.append(SweepRecord(f=f, **fields))
        except NoConvergenceError:
            records.append(SweepRecord(f=f, status="failed"))
    currents = persistent_current(records) if len(records) >= 3 and FULL in cfg.sectors else None
    if currents is not None:
        records = [
            dataclasses.replace(rec, current=cur) for rec, cur in zip(records, currents)
        ]
    return records


def persistent_current(records: Sequence[SweepRecord]) -> list:
    """Central-difference -dE0_full/df; None at the grid ends.

    Requires a uniform flux grid; zero crossings of the current bracket
    the energy minima.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records for a central difference")
    f = np.array([rec.f for rec in records])
    df = np.diff(f)
    if np.max(np.abs(df - df[0])) > 1e-9 * max(1.0, abs(float(f[-1] - f[0]))):
        raise ValueError("flux grid is not uniform")
    out: list = [None] * len(records)
    for i in range(1, len(records) - 1):
        left, right = records[i - 1].e0_full, records[i + 1].e0_full
        if left is None or right is None:
            continue
        out[i] = -(right - left) / (2.0 * df[0])
    return out


@dataclass(frozen=True)
class QuantizationReport:
    """Refined minima locations and their distance to the allowed lattice.

    ``skipped`` holds the f values of the failed records left out.
    """

    minima_f: tuple
    nearest_allowed: tuple
    distances: tuple
    skipped: tuple


_PLATEAU_TOL = 1e-12
_MIN_COLUMNS = ("e0_full", "e0_even", "e0_odd", "gap")


def _parabolic_refine(f0, f1, f2, y0, y1, y2) -> float:
    # vertex of the parabola through three points, spaced evenly or not
    slope01 = (y1 - y0) / (f1 - f0)
    curvature = ((y2 - y1) / (f2 - f1) - slope01) / (f2 - f0)
    if curvature <= 0:
        return f1
    return 0.5 * (f0 + f1) - 0.5 * slope01 / curvature


def detect_minima(records: Sequence[SweepRecord], column: str,
                  mode: str = "integer") -> QuantizationReport:
    """Strict interior local minima of an energy column, refined.

    Failed records are skipped, and their f values reported.  A run of
    values equal within 1e-12 counts as a single minimum at its midpoint
    (grids can straddle symmetric points exactly); isolated minima are
    refined by a 3-point parabola.  Each minimum is reported with the nearest multiple of 1
    (integer mode) or 1/2 (half-integer mode) and the distance to it.
    """
    if mode not in ("integer", "half-integer"):
        raise ValueError(f"mode must be 'integer' or 'half-integer', got {mode!r}")
    if column not in _MIN_COLUMNS:
        raise ValueError(f"column must be one of {_MIN_COLUMNS}, got {column!r}")
    skipped = tuple(rec.f for rec in records if rec.status == "failed")
    records = [rec for rec in records if rec.status != "failed"]
    if len(records) < 3:
        raise ValueError("need at least 3 records to detect interior minima")
    f = [rec.f for rec in records]
    y = [getattr(rec, column) for rec in records]
    if any(v is None for v in y):
        raise ValueError(f"column {column!r} is not filled on every record")

    minima = []
    a = 0
    n = len(y)
    while a < n:
        b = a
        while b + 1 < n and abs(y[b + 1] - y[a]) <= _PLATEAU_TOL:
            b += 1
        if a > 0 and b < n - 1 and y[a - 1] > y[a] + _PLATEAU_TOL and y[b + 1] > y[b] + _PLATEAU_TOL:
            if a == b:
                minima.append(_parabolic_refine(f[a - 1], f[a], f[a + 1], y[a - 1], y[a], y[a + 1]))
            else:
                minima.append(0.5 * (f[a] + f[b]))
        a = b + 1

    unit = 1.0 if mode == "integer" else 0.5
    nearest = [unit * round(fm / unit) for fm in minima]
    dists = [abs(fm - nf) for fm, nf in zip(minima, nearest)]
    return QuantizationReport(
        minima_f=tuple(minima),
        nearest_allowed=tuple(nearest),
        distances=tuple(dists),
        skipped=skipped,
    )


def uniform_spectrum(lat: StripLattice, f: float, hop: HoppingParams, sector=FULL) -> np.ndarray:
    """Every eigenvalue, dense, of the uniform-flux operator at f on one sector: the block
    ``flux_sweep`` and ``spectrum`` solve, read off the cached ``sector_pencil``."""
    return dense_eigh(sector_pencil(lat, sector, hop).at(f)).values


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """The worst entrywise gap between two spectra."""
    return float(np.max(np.abs(a - b)))


def ladder_periodicity_test(lat: StripLattice, f_values: Sequence[float],
                            ty: float = 0.0) -> float:
    """Max deviation of the ny=2 moebius ladder spectrum under f -> f+1/2, at tx = 1.

    With ty = 0 the two rows chain into one ring of twice the length, so
    the spectrum has period 1/2 in f and the deviation is round-off; any
    rung coupling breaks the half period.  Period 1 is ``verify``'s
    ``flux_periodicity`` check.
    """
    if not lat.is_moebius or lat.ny != 2:
        raise ValueError(f"need a two-row moebius ladder, got ny={lat.ny} {lat.topology}")
    hop = HoppingParams(ty=ty)
    return max((max_deviation(uniform_spectrum(lat, f + 0.5, hop), uniform_spectrum(lat, f, hop))
                for f in map(float, f_values)), default=0.0)


def annulus_equivalence_check(band: StripLattice, f_values: Sequence[float]) -> float:
    """Max deviation of E_odd(moebius) from E(half-width annulus at f+1/2), at tx = ty = 1.

    Cutting the band open along the center circle doubles the homology
    generator, which shifts the effective flux seen by the nodal sector
    by half a quantum; entrywise the two dense spectra must agree.
    """
    if not band.is_moebius:
        raise ValueError(f"need a moebius band, got {band.topology}")
    sector_isometry(band, ODD)  # raises unless ny is odd and >= 3, whatever f_values holds
    ring = build_lattice(band.nx, (band.ny - 1) // 2, ANNULUS)
    hop = HoppingParams()
    return max((max_deviation(uniform_spectrum(band, f, hop, ODD),
                              uniform_spectrum(ring, f + 0.5, hop)) for f in map(float, f_values)),
               default=0.0)
