"""Print one line per sparse inertia count over a fixed family of operators, to diff two
checkouts' counts.

    python tools/count_digest.py ROOT > counts.txt

Imports ``mobiusflux`` from ``ROOT/src`` and, on one BLAS thread, calls
``eigensolver._count_below`` on each operator of the family
(``operators``) at its cuts (``cuts``), each with the norm bound the
solver passes, max(hi - cut, cut - lo) over the Gershgorin interval
[lo, hi].  It counts under the solver's partition of the band into
blocks, then under the narrowest one (``_MIN_BLOCK`` = 1), each after a
line ``_MIN_BLOCK = <rows>``.  A count prints as
``<sha256 of the operator's data, 12 digits> <n> <cut repr> <count or None>``.
Two checkouts count alike when their files match line for line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: the thread count moves the last digits

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

FLUXES = (0.0, 0.13, 0.3, 0.5, 0.77)
LATTICES = ((8, 3), (12, 5), (20, 7), (24, 9))
TYS = (0.0, 0.01, 1.0)
SEED = 2024


def operators():
    """The family: the full-sector pencils of 48 x 25 at each flux, every sector of each small
    lattice at each ty and flux, and each lattice's complex site operator at f = 0.3, all on
    both topologies, the site operators and the 48 x 25 pencils at ty = 1."""
    from mobiusflux.gauge import uniform_flux_field
    from mobiusflux.hamiltonian import SECTORS, HoppingParams, assemble, sector_pencil
    from mobiusflux.lattice import TOPOLOGIES, build_lattice

    for top in TOPOLOGIES:
        yield from map(sector_pencil(build_lattice(48, 25, top), "full", HoppingParams()).at,
                       FLUXES)
    for top, (nx, ny), sector, ty in itertools.product(TOPOLOGIES, LATTICES, SECTORS, TYS):
        yield from map(sector_pencil(build_lattice(nx, ny, top), sector,
                                     HoppingParams(ty=ty)).at, FLUXES)
    for top, (nx, ny) in itertools.product(TOPOLOGIES, ((48, 25), *LATTICES)):
        lat = build_lattice(nx, ny, top)
        yield assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams())


def cuts(h) -> list:
    """h's cuts: its lowest 12 eigenvalues + 1e-7, its lowest 6 exactly, eigenvalues 2 to 8
    - 1e-9, and 4 uniform points in its Gershgorin interval, seeded by n."""
    from mobiusflux.eigensolver import _gershgorin

    values = np.linalg.eigvalsh(h.toarray())
    points = np.random.default_rng([SEED, h.n]).uniform(*_gershgorin(h), 4)
    return list(map(float, [*(values[:12] + 1e-7), *values[:6], *(values[1:8] - 1e-9),
                            *points]))


def lines(h, at):
    """One line per cut in at: h's data hash, its dimension, the cut and the count there."""
    from mobiusflux import eigensolver

    lo, hi = eigensolver._gershgorin(h)
    tag = hashlib.sha256(h.csr.data.tobytes()).hexdigest()[:12]
    for cut in at:
        count = eigensolver._count_below(h, cut, max(hi - cut, cut - lo))
        yield f"{tag} {h.n} {cut!r} {count!r}"


def main(root: str, family) -> None:
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    from mobiusflux import eigensolver

    plan = [(h, cuts(h)) for h in family]
    for block in (eigensolver._MIN_BLOCK, 1):
        eigensolver._MIN_BLOCK = block
        eigensolver._layout.cache_clear()  # its layouts hold the block
        print(f"_MIN_BLOCK = {block}")
        for h, at in plan:
            print("\n".join(lines(h, at)), flush=True)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} ROOT")
    main(sys.argv[1], operators())
