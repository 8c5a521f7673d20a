"""Command-line front end: spectrum, sweep, holonomy and verify commands.

Configuration is a flat key=value file (# comments) mirrored one-to-one
by command-line flags; flags override file values and unknown keys are
rejected.  All floating-point output uses 17 significant digits so the
CSV round-trips the underlying doubles exactly, and every random choice
funnels through the single ``seed`` key.  Each key is checked once, by
the library type that reads it: ``build_config`` builds the lattice,
hopping and solver config at load, for every command, and the commands
pass them on as built; ``sector_isometry`` checks the sector names a
command solves, ``SweepConfig`` the flux grid.  ``main`` maps
errors to exit codes in one place: 0 success; 1 ``NoConvergenceError``
or ``LinAlgError``, a failed ``verify`` check, or failed sweep points
under ``--strict``; 2 any other ``ValueError`` (an invalid key, flag or
output path, or an operator the keys make non-finite or too large), as
``config error:``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .eigensolver import METHODS, NoConvergenceError, SolverConfig, solve
from .experiments import SweepConfig, flux_sweep
from .gauge import uniform_flux_field, wilson_loop
from .hamiltonian import (
    FULL,
    SECTORS,
    FluxPencil,
    HoppingParams,
    assemble,
    sector_isometry,
)
from .lattice import (
    TOPOLOGIES,
    StripLattice,
    build_lattice,
    center_loop,
    homology_class,
    offset_loop,
)
from .svgplot import render_sweep_svg
from .verify import run_verification

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    topology: str = "moebius"
    nx: int = 48
    ny: int = 9
    tx: float = 1.0
    ty: float = 1.0
    f: float = 0.0
    f_min: float = -0.25
    f_max: float = 1.25
    f_steps: int = 151
    k: int = 6
    solver: str = "auto"
    tol: float = 1e-10
    seed: int = 12345
    sectors: str = "full,even,odd"
    out: Optional[str] = None
    plot: Optional[str] = None
    strict: bool = False

    def sector_list(self) -> tuple:
        """The names in key 'sectors', unchecked: the library checks each where it is used."""
        return tuple(s.strip() for s in self.sectors.split(",") if s.strip())


class Run(NamedTuple):
    """A loaded config and the library objects its shared keys build."""

    config: RunConfig
    lattice: StripLattice
    hop: HoppingParams
    solver: SolverConfig


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_INT_KEYS = ("nx", "ny", "f_steps", "k", "seed")
_FLOAT_KEYS = ("tx", "ty", "f", "f_min", "f_max", "tol")
_BOOL_KEYS = ("strict",)


def _parse_value(key: str, text: str):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _BOOL_KEYS:
            low = text.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return text.strip()
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {exc}") from exc


def load_config_file(path: str) -> dict:
    """Parse a key = value config file; unknown keys are an error."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        values[key] = _parse_value(key, text)
    return values


def build_config(args: argparse.Namespace) -> Run:
    """Merge file and flags, then build (and so validate) the shared objects once."""
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    config = RunConfig(**values)
    return Run(
        config=config,
        lattice=build_lattice(config.nx, config.ny, config.topology),
        hop=HoppingParams(config.tx, config.ty),
        solver=SolverConfig(k=config.k, tol=config.tol, seed=config.seed, method=config.solver),
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(run: Run, stdout) -> int:
    sectors = run.config.sector_list()  # one name, which sector_isometry checks, or several
    if len(sectors) != 1 and (FULL not in sectors or not set(sectors) <= set(SECTORS)):
        raise ConfigError(f"spectrum needs a single sector, or 'full' among {SECTORS}, "
                          f"got {run.config.sectors!r}")
    sector = sectors[0] if len(sectors) == 1 else FULL
    # the full sector stays in the site basis: at n = 1200, Lanczos on the mirror-basis
    # block (8,252 nonzeros against 5,904, plus the restrict) ran 2-12% slower a solve
    if sector == FULL:
        h = assemble(run.lattice, uniform_flux_field(run.lattice, run.config.f), run.hop)
    else:  # the sweep's operator, so both print the same e0
        h = FluxPencil(sector_isometry(run.lattice, sector), run.hop).at(run.config.f)
    result = solve(h, run.solver)
    stdout.write("index,eigenvalue,residual\n")
    for idx, (val, res) in enumerate(zip(result.values, result.residuals)):
        stdout.write(f"{idx},{_fmt(float(val))},{_fmt(float(res))}\n")
    return EXIT_OK


_CSV_COLUMNS = ("f", "e0_full", "e0_even", "e0_odd", "gap", "node_amp", "current", "status")


def render_sweep_csv(records) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, col)) for col in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_sweep_csv(text: str) -> list:
    """Parse sweep CSV back into row dicts (floats, None for empty)."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    if header != list(_CSV_COLUMNS):
        raise ConfigError(f"unexpected CSV header {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"CSV line {lineno}: {len(cells)} cells, header has {len(header)}")
        row = {}
        for col, cell in zip(header, cells):
            if col == "status":
                row[col] = cell
            else:
                row[col] = float(cell) if cell else None
        rows.append(row)
    return rows


def _claim_output(path: str) -> bool:
    """Check that path is writable, leaving an existing file as it is; True if this created it."""
    try:
        try:
            open(path, "x", encoding="utf-8").close()
            return True
        except FileExistsError:
            open(path, "a", encoding="utf-8").close()
            return False
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_sweep(run: Run, stdout) -> int:
    config = run.config
    sweep_cfg = SweepConfig(
        lattice=run.lattice,
        hop=run.hop,
        f_min=config.f_min,
        f_max=config.f_max,
        f_steps=config.f_steps,
        solver=run.solver,
        sectors=config.sector_list(),
    )
    created = []
    try:
        for path in (config.out, config.plot):
            if path and _claim_output(path):  # an unwritable path fails here, not after the sweep
                created.append(path)
        records = flux_sweep(sweep_cfg)
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise
    csv_text = render_sweep_csv(records)
    if config.out:
        Path(config.out).write_text(csv_text, encoding="utf-8", newline="\n")
    else:
        stdout.write(csv_text)
    if config.plot:
        Path(config.plot).write_text(render_sweep_svg(records), encoding="utf-8", newline="\n")
    failed = sum(1 for rec in records if rec.status != "ok")
    if failed and config.strict:
        print(f"{failed} of {len(records)} sweep points failed to converge", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def cmd_holonomy(run: Run, loop_spec: str, stdout) -> int:
    lat = run.lattice
    if loop_spec == "center":
        loop = center_loop(lat)
    elif loop_spec.startswith("offset="):
        try:
            row = int(loop_spec.split("=", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad loop selector {loop_spec!r}") from exc
        loop = offset_loop(lat, row)
    else:
        raise ConfigError(f"loop selector must be 'center' or 'offset=<j>', got {loop_spec!r}")
    result = wilson_loop(uniform_flux_field(lat, run.config.f), loop)
    cls = homology_class(lat, loop)
    stdout.write(f"homology_class {cls}\n")
    stdout.write(f"wilson_angle {_fmt(result.angle)}\n")
    stdout.write(f"holonomy_re {_fmt(result.holonomy.real)}\n")
    stdout.write(f"holonomy_im {_fmt(result.holonomy.imag)}\n")
    return EXIT_OK


def cmd_verify(run: Run, broken_seam: bool, stdout) -> int:
    results = run_verification(seed=run.config.seed, broken_seam=broken_seam)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        stdout.write(f"{status} {res.name}: {res.detail} [{res.seconds:.2f}s]\n")
    stdout.write(f"{'all checks passed' if all_passed else 'SUITE FAILED'}\n")
    return EXIT_OK if all_passed else EXIT_COMPUTE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    parser.add_argument("--topology", metavar="|".join(TOPOLOGIES))
    for key in _INT_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in _FLOAT_KEYS:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    parser.add_argument("--solver", metavar="|".join(METHODS))
    parser.add_argument("--sectors", help="comma list from full,even,odd")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--plot", help="SVG output path")
    parser.add_argument("--strict", action="store_const", const=True, default=None,
                        help="exit 1 if any sweep point fails to converge")


@functools.cache  # built on first use, then shared by every main() call of the process
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiusflux",
        description="Flux quantization experiments on annulus and Moebius lattice rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="k lowest eigenvalues at one flux (CSV to stdout)")
    _add_config_flags(p)

    p = sub.add_parser("sweep", help="flux sweep to CSV, optional SVG plot")
    _add_config_flags(p)

    p = sub.add_parser("holonomy", help="homology class and Wilson loop of a canonical loop")
    _add_config_flags(p)
    p.add_argument("--loop", default="center", metavar="center|offset=<j>",
                   help="loop selector (default: center)")

    p = sub.add_parser("verify", help="run the invariant suite, exit 0 iff all checks pass")
    _add_config_flags(p)
    p.add_argument("--broken-seam", action="store_true", help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    stdout = sys.stdout
    try:
        run = build_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(run, stdout)
        if args.command == "sweep":
            return cmd_sweep(run, stdout)
        if args.command == "holonomy":
            return cmd_holonomy(run, args.loop, stdout)
        if args.command == "verify":
            return cmd_verify(run, args.broken_seam, stdout)
        raise ConfigError(f"unknown command {args.command!r}")
    except (NoConvergenceError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
