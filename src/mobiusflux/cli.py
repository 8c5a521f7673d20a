"""Command-line front end: spectrum, sweep, holonomy and verify commands.

``_COMMANDS`` gives each command its handler, help line and the keys it
reads.  A command takes those keys as flags or from a flat key = value
file (# comments), flags overriding the file; any other key is refused,
as a flag by argparse's usage error and in the file as ``config error``.
All floating-point output uses 17 significant digits so the CSV
round-trips the underlying doubles exactly, and every random choice
funnels through the single ``seed`` key.  Each key is checked once, by
the library type that reads it: ``build_config`` builds the lattice,
hopping and solver config at load, for every command (from the defaults
where it reads none of their keys), and the commands pass them on as
built; ``sector_isometry`` checks the sector names a command solves,
``SweepConfig`` the flux grid.  ``main`` maps
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
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .eigensolver import METHODS, NoConvergenceError, SolverConfig, solve
from .experiments import SweepConfig, SweepRecord, flux_sweep
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
    """Every key, in flag order; its default's type (str where None) is the key's type."""

    topology: str = "moebius"
    nx: int = 48
    ny: int = 9
    f_steps: int = 151
    k: int = 6
    seed: int = 12345
    tx: float = 1.0
    ty: float = 1.0
    f: float = 0.0
    f_min: float = -0.25
    f_max: float = 1.25
    tol: float = 1e-10
    solver: str = "auto"
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


_TYPES = {f.name: str if f.default is None else type(f.default)
          for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, text: str):
    kind = _TYPES[key]
    try:
        if kind is bool:
            low = text.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return text.strip() if kind is str else kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {exc}") from exc


def load_config_file(path: str, command: str, keys: tuple) -> dict:
    """Parse a key = value config file; a key outside the command's keys is an error."""
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
        if key not in keys:
            raise ConfigError(f"{command} reads no config key {key!r}")
        values[key] = _parse_value(key, text)
    return values


def build_config(args: argparse.Namespace) -> Run:
    """Merge file and flags, then build (and so validate) the shared objects once."""
    keys = _COMMANDS[args.command].keys
    values = load_config_file(args.config, args.command, keys) if args.config else {}
    for key in keys:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
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

def cmd_spectrum(run: Run, args: argparse.Namespace, stdout) -> int:
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


_CSV_COLUMNS = tuple(field.name for field in dataclasses.fields(SweepRecord))


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


def cmd_sweep(run: Run, args: argparse.Namespace, stdout) -> int:
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
    paths = {"config": args.config, "out": config.out, "plot": config.plot}
    for (key_a, path_a), (key_b, path_b) in itertools.combinations(paths.items(), 2):
        if path_a and path_b and Path(path_a).resolve() == Path(path_b).resolve():
            raise ConfigError(f"{key_a} and {key_b} name the same file: {path_a!r}, {path_b!r}")
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


def cmd_holonomy(run: Run, args: argparse.Namespace, stdout) -> int:
    lat, loop_spec = run.lattice, args.loop
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


def cmd_verify(run: Run, args: argparse.Namespace, stdout) -> int:
    results = run_verification(seed=run.config.seed, broken_seam=args.broken_seam)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_passed &= res.passed
        stdout.write(f"{status} {res.name}: {res.detail} [{res.seconds:.2f}s]\n")
    stdout.write(f"{'all checks passed' if all_passed else 'SUITE FAILED'}\n")
    return EXIT_OK if all_passed else EXIT_COMPUTE


# handler(run, args, stdout) -> exit code; keys: the keys the command reads, in flag order
Command = NamedTuple("Command", [("handler", object), ("help", str), ("keys", tuple)])


_COMMANDS = {
    "spectrum": Command(cmd_spectrum, "k lowest eigenvalues at one flux (CSV to stdout)",
                        ("topology", "nx", "ny", "k", "seed", "tx", "ty", "f", "tol", "solver",
                         "sectors")),
    "sweep": Command(cmd_sweep, "flux sweep to CSV, optional SVG plot",
                     ("topology", "nx", "ny", "f_steps", "k", "seed", "tx", "ty", "f_min",
                      "f_max", "tol", "solver", "sectors", "out", "plot", "strict")),
    "holonomy": Command(cmd_holonomy, "homology class and Wilson loop of a canonical loop",
                        ("topology", "nx", "ny", "f")),
    "verify": Command(cmd_verify, "run the invariant suite, exit 0 iff all checks pass",
                      ("seed",)),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_FLAG_TEXT = {
    "topology": {"metavar": "|".join(TOPOLOGIES)},
    "solver": {"metavar": "|".join(METHODS)},
    "sectors": {"help": "comma list from full,even,odd"},
    "out": {"help": "CSV output path, not the --config file (default: stdout)"},
    "plot": {"help": "SVG output path, not the --config or --out file"},
    "strict": {"help": "exit 1 if any sweep point fails to converge"},
}


def _add_config_flags(parser: argparse.ArgumentParser, keys: tuple) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for key in keys:
        how = ({"action": "store_const", "const": True, "default": None} if _TYPES[key] is bool
               else {"type": _TYPES[key]})
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, **how,
                            **_FLAG_TEXT.get(key, {}))


@functools.cache  # built on first use, then shared by every main() call of the process
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobiusflux",
        description="Flux quantization experiments on annulus and Moebius lattice rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_config_flags(sub.add_parser(name, help=command.help), command.keys)
    sub.choices["holonomy"].add_argument("--loop", default="center", metavar="center|offset=<j>",
                                         help="loop selector (default: center)")
    sub.choices["verify"].add_argument("--broken-seam", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    stdout = sys.stdout
    try:
        return _COMMANDS[args.command].handler(build_config(args), args, stdout)
    except (NoConvergenceError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
