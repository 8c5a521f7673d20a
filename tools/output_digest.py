"""Print one sha256 per CLI command run against a checkout, to diff two checkouts' outputs.

    python tools/output_digest.py ROOT > digest.txt

Imports ``mobiusflux`` from ``ROOT/src`` and runs a fixed command set
in-process, with one BLAS thread, in a temporary directory that holds
the config files and the existing CSV file the set reads (``FILES``).
Each line is the sha256 of a command's exit code, stdout and stderr,
with ``verify``'s ``[...s]`` timings stripped, and of the SVG file a
``--plot`` command writes and the CSV file a sweep's ``--out`` names,
then the command; the last line is the sha256 of the default acceptance
sweep's CSV.  Two checkouts give the same outputs when their digests
match line for line.  As one process runs all 2,652 commands, on
interleaved lattices, sectors and hoppings, the run also checks that the
per-process caches of sector bases and flux pencils (``sector_isometry``,
``sector_pencil``) leave every output as a fresh process would print it.
``main(ROOT, filter(golden, commands()))`` prints the lines of the
subset that ``tests/golden_digest.txt`` pins and ``tests/test_cli.py``
checks.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the thread count moves the last digits

import contextlib
import hashlib
import io
import itertools
import re
import sys
import tempfile
from pathlib import Path

TOPOLOGIES = ("moebius", "annulus")
TYS = ("0", "0.01", "0.3", "1")
LATTICES = ((8, 3), (6, 5), (12, 1), (48, 9), (10, 2), (7, 7))
FLUXES = ("0", "0.5", "0.13", "-0.37")
ACCEPTANCE = ("sweep", "--ty", "0.01", "--solver", "dense")
PLOT = "p.svg"
# the Lanczos spectra whose band count at a cut is not trusted (on the eigenvalue 3 at 6 x 5),
# each certified at the retried cut
RETRIED = {("spectrum", "--topology", "moebius", "--nx", nx, "--ny", ny, "--ty", ty, "--f", "0",
            "--solver", "lanczos", "--sectors", "full", "--k", k)
           for nx, ny, ty, k in (("6", "5", "1", "4"), ("7", "7", "0", "1"), ("7", "7", "0", "4"))}
FILES = {
    "bom.cfg": "\ufeffnx = 8\nny = 3\nf_steps = 5\n",  # a config file saved with a BOM
    "strict.cfg": ("# every point fails\nnx = 8\nny = 3\nf_steps = 5\nsolver = lanczos\n"
                   "tol = 1e-300\n\nstrict = yes\n"),
    "old.csv": "an existing file\n",  # a sweep's --out overwrites it
    "noeq.cfg": "nx 8\n",
    "badval.cfg": "nx = eight\n",
    "foreign.cfg": "f_min = 0\n",  # a key spectrum does not read
    "bool.cfg": "nx = 8\nny = 3\nf_steps = 3\nstrict = maybe\n",
    "nostrict.cfg": ("# every point fails\nnx = 8\nny = 3\nf_steps = 5\nsolver = lanczos\n"
                     "tol = 1e-300\n\nstrict = no\n"),
}


def commands():
    """The command set: 2,304 spectra, 96 sweeps, 8 spectra at n = 1200, one Lanczos spectrum
    at 64 x 64 (n = 4,096, a band too wide for the banded factor), the acceptance sweep,
    11 verify runs (seeds 1 to 8 put more random walks, lifts and Stokes pairs through the
    loop layer), 144 holonomy runs, four commands given a key they do not read, three
    negative float values in exponent form, a config file with a byte-order mark, 38 plot
    sweeps (the acceptance sweep and one whose every point fails among them), two flux
    grids too narrow for their f_steps, an abbreviated float flag with a negative value,
    negative values for a key the command does not read and for an int key, and the exit
    paths no other command reaches: unconverged solves (exit 1, a sweep's under ``--strict``,
    by flag and by config file), sweeps to a new and to an existing ``--out`` file, and the
    refusals of clashing and unwritable paths, of bad loop selectors, of several sectors
    without the full one, and of config files that are malformed, hold a bad value or a key
    the command does not read, or are missing; then 16 values each refused by the library's
    own check (exit 2), a refused sweep that removes the ``--out`` file it created, a config
    file's bad and false ``strict``, a k above n, which the solver caps, and the acceptance
    band's sweeps of parity sectors beside at most one other sector."""
    for ty, top, (nx, ny), f, solver, sector, k in itertools.product(
            TYS, TOPOLOGIES, LATTICES, FLUXES, ("dense", "lanczos"),
            ("full", "even", "odd"), ("1", "4")):
        yield ("spectrum", "--topology", top, "--nx", str(nx), "--ny", str(ny), "--ty", ty,
               "--f", f, "--solver", solver, "--sectors", sector, "--k", k)
    for ty, top, (nx, ny), solver in itertools.product(TYS, TOPOLOGIES, LATTICES,
                                                       ("dense", "lanczos")):
        yield ("sweep", "--topology", top, "--nx", str(nx), "--ny", str(ny), "--ty", ty,
               "--solver", solver, "--f-steps", "13")
    for top, ty, f in itertools.product(TOPOLOGIES, ("0", "1"), ("0", "0.5")):
        yield ("spectrum", "--topology", top, "--nx", "48", "--ny", "25", "--ty", ty, "--f", f)
    # a band wider than the banded Cholesky takes: Lanczos on SuperLU's factor
    yield ("spectrum", "--nx", "64", "--ny", "64", "--sectors", "full", "--k", "4",
           "--solver", "lanczos")
    yield ACCEPTANCE
    yield ("verify",)
    yield ("verify", "--broken-seam")
    for seed in range(1, 9):
        yield ("verify", "--seed", str(seed))
    yield ("verify", "--broken-seam", "--seed", "7")
    for top, (nx, ny), f, loop in itertools.product(TOPOLOGIES, LATTICES, FLUXES,
                                                    ("center", "offset=0", "offset=1")):
        yield ("holonomy", "--topology", top, "--nx", str(nx), "--ny", str(ny), "--f", f,
               "--loop", loop)
    yield ("spectrum", "--out", "x.csv")
    yield ("spectrum", "--f-steps", "3")
    yield ("holonomy", "--tx", "2")
    yield ("verify", "--nx", "4")
    yield ("spectrum", "--f", "-2e-1")
    yield ("sweep", "--nx", "8", "--ny", "3", "--f-min", "-1e-05", "--f-max", "0.5",
           "--f-steps", "5")
    yield ("spectrum", "--f", "-inf")
    yield ("sweep", "--config", "bom.cfg")
    for top, (nx, ny), sectors, ty in itertools.product(
            TOPOLOGIES, ((8, 3), (48, 9)), ("full,even,odd", "full", "odd"), ("0", "0.01", "1")):
        yield ("sweep", "--topology", top, "--nx", str(nx), "--ny", str(ny), "--ty", ty,
               "--sectors", sectors, "--f-steps", "13", "--plot", PLOT)
    yield (*ACCEPTANCE, "--plot", PLOT)
    yield ("sweep", "--nx", "8", "--ny", "3", "--f-steps", "5", "--solver", "lanczos",
           "--tol", "1e-300", "--plot", PLOT)
    for f_min, f_max in (("1", "1.0000000000000002"), ("0", "5e-324")):
        yield ("sweep", "--nx", "6", "--ny", "3", "--f-min", f_min, "--f-max", f_max,
               "--f-steps", "3")
    yield ("sweep", "--nx", "6", "--ny", "3", "--f-steps", "3", "--f-mi", "-1e-05")
    yield ("holonomy", "--tx", "-2e-1")
    yield ("sweep", "--nx", "-1e5")
    yield ("spectrum", "--nx", "8", "--ny", "3", "--solver", "lanczos", "--tol", "1e-300")
    yield ("sweep", "--nx", "8", "--ny", "3", "--f-steps", "5", "--solver", "lanczos", "--tol",
           "1e-300", "--strict")
    yield ("sweep", "--config", "strict.cfg")
    for out in ("new.csv", "old.csv"):
        yield ("sweep", "--nx", "8", "--ny", "3", "--f-steps", "3", "--out", out)
    yield ("sweep", "--out", "a.csv", "--plot", "./a.csv")
    yield ("sweep", "--out", "missing/x.csv")
    yield ("holonomy", "--loop", "diag")
    yield ("holonomy", "--loop", "offset=x")
    yield ("spectrum", "--sectors", "even,odd")
    for config in ("noeq.cfg", "badval.cfg", "foreign.cfg", "missing.cfg"):
        yield ("spectrum", "--config", config)
    for flags in (("--k", "0"), ("--tol", "0"), ("--solver", "fast"), ("--seed", "-1"),
                  ("--tx", "0"), ("--ty", "-1"), ("--tx", "1e200"),
                  ("--topology", "torus", "--nx", "8", "--ny", "3"), ("--nx", "2"), ("--ny", "0"),
                  ("--sectors", "left"), ("--nx", "100", "--ny", "41", "--solver", "dense")):
        yield ("spectrum", *flags)
    for flags in (("--f-min", "1", "--f-max", "0"), ("--f-steps", "1"), ("--sectors", ",")):
        yield ("sweep", *flags)
    yield ("holonomy", "--f", "2e307", "--loop", "offset=0")
    yield ("sweep", "--nx", "8", "--ny", "3", "--tx", "1e200", "--out", "gone.csv")
    for config in ("bool.cfg", "nostrict.cfg"):
        yield ("sweep", "--config", config)
    yield ("spectrum", "--nx", "3", "--ny", "1", "--k", "6")
    for sectors in ("even,odd", "full,odd"):
        yield (*ACCEPTANCE, "--sectors", sectors, "--f-steps", "13")


def golden(argv) -> bool:
    """Whether the golden digest pins this command: every one on the default topology (the
    acceptance sweep, the 64 x 64 spectrum, every verify run and every edge, refused input and
    exit path), the 8 x 3 spectra, holonomies and plot sweeps, the spectra at n = 1200
    (48 x 25), and the three spectra whose band count is not trusted at a cut and is retried
    at a higher one (``RETRIED``)."""
    if "--topology" not in argv or argv in RETRIED:
        return True
    band = argv[argv.index("--nx") + 1], argv[argv.index("--ny") + 1]
    return band == ("48", "25") or band == ("8", "3") and (argv[0] != "sweep" or PLOT in argv)


def run(main, argv) -> tuple:
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(root: str, argvs) -> None:
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from mobiusflux.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in FILES.items():
            Path(name).write_text(text, encoding="utf-8")
        for argv in argvs:
            Path(PLOT).unlink(missing_ok=True)
            code, out, err = run(cli_main, argv)
            if argv[0] == "verify":
                out = re.sub(r"\[[0-9.]+s\]", "[s]", out)
            text = f"{code}\n{out}\n{err}"
            written = {PLOT: "no plot file"} if PLOT in argv else {}
            if argv[0] == "sweep" and "--out" in argv:
                written[argv[argv.index("--out") + 1]] = "no out file"
            for path, missing in written.items():
                path = Path(path)
                text += "\n" + (path.read_text(encoding="utf-8") if path.exists() else missing)
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(digest, " ".join(argv), flush=True)
            if argv == ACCEPTANCE:
                csv = out
    print(hashlib.sha256(csv.encode()).hexdigest(), "acceptance CSV")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} ROOT")
    main(sys.argv[1], commands())
