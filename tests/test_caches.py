"""The per-process caches of sector bases, flux pencils, link layouts and band layouts: same
bytes, read-only, bounded."""

import re

import numpy as np
import pytest

from mobiusflux import cli, eigensolver, hamiltonian
from mobiusflux.eigensolver import SolverConfig, lanczos_lowest
from mobiusflux.experiments import SweepConfig, flux_sweep
from mobiusflux.hamiltonian import (
    EVEN,
    ODD,
    FluxPencil,
    HoppingParams,
    SparseHermitian,
    sector_isometry,
    sector_pencil,
)
from mobiusflux.lattice import ANNULUS, MOEBIUS, build_lattice

SMALL_SWEEP = ("sweep", "--nx", "6", "--ny", "3", "--f-steps", "5")
ODD_SPECTRUM = ("spectrum", "--nx", "6", "--ny", "3", "--f", "0.3", "--sectors", "odd")
# ty 0 and -0.0 build equal HoppingParams, one cache key; the broken seam is a lattice of its own
COMMANDS = [
    (*SMALL_SWEEP, "--ty", "0"),
    (*SMALL_SWEEP, "--ty", "-0.0"),
    (*ODD_SPECTRUM, "--ty", "0"),
    (*ODD_SPECTRUM, "--ty", "-0.0"),
    ("spectrum", "--nx", "6", "--ny", "3", "--f", "0.3", "--sectors", "even"),
    ("sweep", "--ty", "0.01", "--solver", "dense", "--f-steps", "13"),
    ("verify", "--broken-seam"),
    ("spectrum", "--nx", "6", "--ny", "3", "--f", "0.3"),  # the default sector list: full
    ("spectrum", "--ty", "0.01", "--solver", "dense", "--f", "0.3"),
    # Lanczos solves, which read the band layouts: two topologies of one n
    ("spectrum", "--nx", "6", "--ny", "3", "--f", "0.3", "--solver", "lanczos"),
    ("spectrum", "--topology", "annulus", "--nx", "6", "--ny", "3", "--f", "0.3", "--solver",
     "lanczos"),
]


def clear_caches():
    sector_isometry.cache_clear()
    sector_pencil.cache_clear()
    eigensolver._layout.cache_clear()


def run(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, re.sub(r"\[[0-9.]+s\]", "[s]", captured.out), captured.err


def test_one_process_prints_the_same_bytes_in_any_order(capsys):
    cold = []
    for argv in COMMANDS:
        clear_caches()
        cold.append(run(capsys, argv))
    clear_caches()
    forward = [run(capsys, argv) for argv in COMMANDS]
    backward = [run(capsys, argv) for argv in reversed(COMMANDS)][::-1]
    assert forward == cold
    assert backward == cold
    assert cold[0] == cold[1] and cold[2] == cold[3]
    assert [code for code, _, _ in cold] == [0] * 6 + [1, 0, 0, 0, 0]


def test_cached_bases_and_pencils_are_read_only():
    lat, hop = build_lattice(6, 3, MOEBIUS), HoppingParams()
    pencil = sector_pencil(lat, ODD, hop)
    iso = sector_isometry(lat, ODD)
    assert pencil.iso is iso and sector_pencil(lat, ODD, HoppingParams(ty=1)) is pencil
    before = pencil.at(0.3).csr.toarray()
    arrays = [getattr(iso.matrix, name) for name in ("data", "indices", "indptr")]
    for arr in arrays + [pencil._data]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert (pencil.at(0.3).csr.toarray() == before).all()
    # a pencil built by hand is the caller's own, and never enters a cache
    own = FluxPencil(iso, hop)
    own._data[1] = 0.0
    assert sector_pencil(lat, ODD, hop) is pencil and (pencil.at(0.3).csr.toarray() == before).all()


def test_the_link_layout_is_read_only():
    # assemble and FluxPencil gather every operator on a lattice through the cached order:
    # a stray write to it would corrupt each later one in the process
    pattern, order = hamiltonian._link_layout(build_lattice(6, 3, MOEBIUS))
    assert hamiltonian._link_layout(build_lattice(6, 3, MOEBIUS))[1] is order
    for arr in (order, pattern.transpose, pattern.template.indices, pattern.template.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_the_band_layout_is_built_once_per_pattern():
    clear_caches()
    lat, hop, cfg = build_lattice(48, 25, MOEBIUS), HoppingParams(), SolverConfig(k=4, seed=1)
    pencil = sector_pencil(lat, "full", hop)
    for f in (0.1, 0.3, 0.5):
        lanczos_lowest(pencil.at(f), cfg)
    info = eigensolver._layout.cache_info()
    # one build for every factor and count of the three solves
    assert info.misses == 1 and info.hits >= 5
    layout = eigensolver._layout(pencil.at(0.7).pattern)
    # the annulus of the same n has a pattern, and so a layout, of its own
    other = eigensolver._layout(sector_pencil(build_lattice(48, 25, ANNULUS), "full", hop)
                                .at(0.3).pattern)
    assert eigensolver._layout.cache_info().misses == 2
    assert (layout.width, other.width) == (52, 51)
    assert not np.array_equal(layout.perm, other.perm)
    for arr in (layout.perm, layout.order, *layout.upper, *layout.pieces):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_a_pattern_built_anew_gets_a_layout_of_its_own_equal_to_the_first():
    # the cache is keyed on the pattern object, not its arrays: an operator built from a pencil
    # point's matrix stores a new pattern of the same structure, and the key changes no layout
    point = sector_pencil(build_lattice(48, 25, MOEBIUS), "full", HoppingParams()).at(0.3)
    rebuilt = SparseHermitian(point.csr)
    assert rebuilt.pattern is not point.pattern
    layout, anew = eigensolver._layout(point.pattern), eigensolver._layout(rebuilt.pattern)
    assert anew is not layout
    assert (anew.width, anew.block) == (layout.width, layout.block)
    for mine, theirs in ((anew.perm, layout.perm), (anew.order, layout.order),
                         *zip(anew.upper, layout.upper), *zip(anew.pieces, layout.pieces)):
        assert np.array_equal(mine, theirs)


def test_caches_hold_at_most_their_maxsize_entries():
    clear_caches()
    solver = SolverConfig(k=2, method="dense")
    for nx in range(3, 23):
        flux_sweep(SweepConfig(build_lattice(nx, 3, MOEBIUS), HoppingParams(), f_steps=2,
                               solver=solver))
    # three bases a band, as the config checks each requested sector; two pencils, as the
    # full sector's columns are read off the even and odd ones
    for cache, misses in ((sector_isometry, 60), (sector_pencil, 40)):
        info = cache.cache_info()
        assert info.misses == misses
        assert info.currsize <= info.maxsize == 16


@pytest.mark.parametrize("sector", ["left", ["odd"], {"odd": 1}])
def test_an_unknown_or_unhashable_sector_is_a_value_error(sector):
    lat = build_lattice(6, 3, MOEBIUS)
    with pytest.raises(ValueError, match="sector must be one of"):
        sector_isometry(lat, sector)
    with pytest.raises(ValueError, match="sector must be one of"):
        sector_pencil(lat, sector, HoppingParams())
    with pytest.raises(ValueError, match="sector must be one of"):
        SweepConfig(lat, HoppingParams(), sectors=(EVEN, sector))
