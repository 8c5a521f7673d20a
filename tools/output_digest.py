"""Print one sha256 per CLI command run against a checkout, to diff two checkouts' outputs.

    python tools/output_digest.py ROOT > digest.txt

Imports ``mobiusflux`` from ``ROOT/src`` and runs a fixed command set
in-process, with one BLAS thread.  Each line is the sha256 of a command's
exit code, stdout and stderr, with ``verify``'s ``[...s]`` timings
stripped, then the command; the last line is the sha256 of the default
acceptance sweep's CSV.  Two checkouts give the same outputs when their
digests match line for line.
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
from pathlib import Path

TOPOLOGIES = ("moebius", "annulus")
TYS = ("0", "0.01", "0.3", "1")
LATTICES = ((8, 3), (6, 5), (12, 1), (48, 9), (10, 2), (7, 7))
FLUXES = ("0", "0.5", "0.13", "-0.37")
ACCEPTANCE = ("sweep", "--ty", "0.01", "--solver", "dense")


def commands():
    """The command set: 2,304 spectra, 96 sweeps, 8 spectra at n = 1200, the acceptance sweep,
    three verify runs, 144 holonomy runs and four commands given a key they do not read."""
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
    yield ACCEPTANCE
    yield ("verify",)
    yield ("verify", "--seed", "7")
    yield ("verify", "--broken-seam")
    for top, (nx, ny), f, loop in itertools.product(TOPOLOGIES, LATTICES, FLUXES,
                                                    ("center", "offset=0", "offset=1")):
        yield ("holonomy", "--topology", top, "--nx", str(nx), "--ny", str(ny), "--f", f,
               "--loop", loop)
    yield ("spectrum", "--out", "x.csv")
    yield ("spectrum", "--f-steps", "3")
    yield ("holonomy", "--tx", "2")
    yield ("verify", "--nx", "4")


def run(main, argv) -> tuple:
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main(root: str) -> None:
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from mobiusflux.cli import main as cli_main

    for argv in commands():
        code, out, err = run(cli_main, argv)
        if argv[0] == "verify":
            out = re.sub(r"\[[0-9.]+s\]", "[s]", out)
        digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        print(digest, " ".join(argv), flush=True)
        if argv == ACCEPTANCE:
            csv = out
    print(hashlib.sha256(csv.encode()).hexdigest(), "acceptance CSV")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} ROOT")
    main(sys.argv[1])
