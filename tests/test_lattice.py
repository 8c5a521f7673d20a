"""Lattice geometry: seam rule, loops, homology, the center cut."""

import itertools

import numpy as np
import pytest

from mobiusflux.lattice import (
    ANNULUS,
    CODE,
    DIRECTIONS,
    MOEBIUS,
    LatticeError,
    LoopError,
    LoopPath,
    Site,
    build_lattice,
    center_loop,
    cut_complement_of_center,
    homology_class,
    offset_loop,
    walk_loop,
)


def sites(lat):
    """Every site, in site-id order."""
    return [Site(i, j) for i, j in itertools.product(range(lat.nx), range(lat.ny))]


def test_build_lattice_counts():
    assert build_lattice(3, 1, ANNULUS).n_sites == 3
    assert build_lattice(48, 9, MOEBIUS).n_sites == 432


@pytest.mark.parametrize("nx,ny", [(2, 1), (1, 5), (3, 0), (0, 0)])
def test_build_lattice_rejects_small(nx, ny):
    # the one check of a lattice's dimensions: a sweep or command takes the lattice built
    with pytest.raises(LatticeError, match="nx" if nx < 3 else "ny"):
        build_lattice(nx, ny, ANNULUS)


def test_build_lattice_rejects_bad_topology():
    with pytest.raises(LatticeError, match="topology"):
        build_lattice(4, 3, "klein")


def step(lat, site, direction):
    """The site one step on from ``site``, read off ``step_table``; None at a wall."""
    there = int(lat.step_table[CODE[direction], lat.site_id(site)])
    return None if there < 0 else Site(*divmod(there, lat.ny))


def test_seam_flip_rule():
    moe = build_lattice(8, 5, MOEBIUS)
    ann = build_lattice(8, 5, ANNULUS)
    assert step(moe, Site(7, 0), "+x") == Site(0, 4)
    assert step(moe, Site(7, 2), "+x") == Site(0, 2)  # center row is fixed
    assert step(ann, Site(7, 0), "+x") == Site(0, 0)
    assert step(moe, Site(0, 0), "-x") == Site(7, 4)
    assert step(ann, Site(0, 0), "-x") == Site(7, 0)


def test_dirichlet_walls():
    for topo in (ANNULUS, MOEBIUS):
        lat = build_lattice(6, 4, topo)
        assert step(lat, Site(3, 3), "+y") is None
        assert step(lat, Site(3, 0), "-y") is None
        assert step(lat, Site(3, 1), "+y") == Site(3, 2)


@pytest.mark.parametrize("topo,nx,ny", [(ANNULUS, 5, 4), (MOEBIUS, 5, 4), (MOEBIUS, 4, 3)])
def test_neighbor_involutive(topo, nx, ny):
    lat = build_lattice(nx, ny, topo)
    for site in sites(lat):
        for d in DIRECTIONS:
            there = step(lat, site, d)
            if there is not None:  # code ^ 1 is the reverse direction
                assert step(lat, there, DIRECTIONS[CODE[d] ^ 1]) == site


def test_fundamental_group_doubling_at_lattice_level():
    lat = build_lattice(7, 5, MOEBIUS)
    for j in range(5):
        pos = Site(0, j)
        for _ in range(lat.nx):
            pos = step(lat, pos, "+x")
        assert pos == Site(0, lat.ny - 1 - j)
        for _ in range(lat.nx):
            pos = step(lat, pos, "+x")
        assert pos == Site(0, j)


def test_center_loop():
    loop = center_loop(build_lattice(8, 5, MOEBIUS))
    assert len(loop) == 8
    assert np.array_equal(loop.sites, np.arange(9) % 8 * 5 + 2)
    assert len(center_loop(build_lattice(3, 1, ANNULUS))) == 3
    with pytest.raises(LatticeError):
        center_loop(build_lattice(8, 4, MOEBIUS))


def test_offset_loop():
    moe = build_lattice(8, 5, MOEBIUS)
    loop = offset_loop(moe, 0)
    assert len(loop) == 16
    rows = set((loop.sites % moe.ny).tolist())
    assert rows == {0, 4}  # one circuit each on the row and its mirror
    assert len(offset_loop(build_lattice(8, 5, ANNULUS), 0)) == 8
    with pytest.raises(LatticeError):
        offset_loop(moe, 2)  # center row
    with pytest.raises(LatticeError):
        offset_loop(moe, 7)


def test_offset_loop_even_width_ladder():
    # no center row exists, so every row is allowed and the loop doubles
    lat = build_lattice(6, 2, MOEBIUS)
    assert len(offset_loop(lat, 0)) == 12


def test_homology_classes():
    lat = build_lattice(8, 5, MOEBIUS)
    assert homology_class(lat, center_loop(lat)) == 1
    assert homology_class(lat, offset_loop(lat, 0)) == 2
    assert homology_class(lat, offset_loop(lat, 0)) == 2 * homology_class(lat, center_loop(lat))
    plaquette = walk_loop(lat, Site(2, 1), ["+x", "+y", "-x", "-y"])
    assert homology_class(lat, plaquette) == 0
    ann = build_lattice(8, 5, ANNULUS)
    assert homology_class(ann, offset_loop(ann, 0)) == 1


def test_homology_rejects_foreign_loop():
    lat = build_lattice(8, 5, MOEBIUS)
    other = build_lattice(8, 5, ANNULUS)
    with pytest.raises(LoopError):
        homology_class(lat, center_loop(other))


def test_loop_validation():
    lat = build_lattice(6, 3, ANNULUS)
    row0 = [lat.site_id((i, 0)) for i in range(6)]
    assert LoopPath(lat, row0 + row0[:1]).steps.tolist() == [CODE["+x"]] * 6
    for walk in ([], [0], [[0, 3], [3, 0]]):  # empty, a single site, not one walk
        with pytest.raises(LoopError, match="two or more site ids"):
            LoopPath(lat, walk)
    # ids outside the lattice; numpy would read id -18 as 0, which closes row 0
    for start in (-18, -1, 18, 19):
        with pytest.raises(LatticeError, match="integers in"):
            LoopPath(lat, [start, *row0[1:], start])
        with pytest.raises(LatticeError):
            walk_loop(lat, divmod(start, 3), ["+x"] * 6)
    for walk in (np.array(row0 + row0[:1], dtype=float), [True, False, True]):
        with pytest.raises(LatticeError, match="integers in"):
            LoopPath(lat, walk)
    with pytest.raises(LoopError, match="does not close"):
        LoopPath(lat, row0)
    for walk in (
        [0, 6, 9, 12, 15, 0],  # a skipped column: (0, 0) to (2, 0)
        [2, 3, 2],  # id + 1 from the top row is through the wall: (0, 2) to (1, 0)
        [0, 2, 1, 0],  # (0, 0) to (0, 2), through the wall the other way
        [0, 0],  # a site is not its own neighbour
    ):
        with pytest.raises(LoopError, match="step 0: .* are not neighbours"):
            LoopPath(lat, walk)
    with pytest.raises(LoopError):  # through the wall, by name
        walk_loop(lat, Site(0, 0), ["-y", "+y"])
    for name in ("up", CODE["+x"]):  # walk_loop takes names, not codes
        with pytest.raises(LatticeError):
            walk_loop(lat, Site(0, 0), ["+x", name])
    mob = build_lattice(6, 3, MOEBIUS)
    with pytest.raises(LoopError, match="step 5: .* are not neighbours"):
        LoopPath(mob, row0 + row0[:1])  # the unflipped row across the seam
    flipped = row0 + [mob.site_id((i, 2)) for i in range(6)] + row0[:1]
    assert homology_class(mob, LoopPath(mob, flipped)) == 2


def test_loops_are_read_only_arrays():
    loop = walk_loop(build_lattice(6, 3, ANNULUS), Site(2, 1), ["+x", "+y", "-x", "-y"])
    assert loop.steps.dtype == np.int8
    assert loop.steps.tolist() == [CODE[d] for d in ("+x", "+y", "-x", "-y")]
    assert loop.sites.tolist() == [7, 10, 11, 8, 7]
    for arr in (loop.steps, loop.sites, *loop.links):
        assert not arr.flags.writeable


def test_cut_complement_shape_and_bijection():
    lat = build_lattice(8, 5, MOEBIUS)
    corr = cut_complement_of_center(lat)
    assert corr.cut.topology == ANNULUS
    assert (corr.cut.nx, corr.cut.ny) == (16, 2)
    assert len(corr.to_band) == 32
    off_center = [lat.site_id(s) for s in sites(lat) if s.j != lat.center_row]
    assert sorted(corr.to_band) == off_center
    assert np.array_equal(corr.from_band[corr.to_band], np.arange(32))
    center = [lat.site_id(s) for s in sites(lat) if s.j == lat.center_row]
    assert np.all(corr.from_band[center] == -1)


def _undirected_links(lat):
    links = set()
    for site in sites(lat):
        for d in ("+x", "+y"):
            there = step(lat, site, d)
            if there is not None:
                links.add(frozenset((lat.site_id(site), lat.site_id(there))))
    return links


def test_cut_complement_preserves_adjacency_exhaustively():
    # every moebius link not touching the center row has exactly one image link
    lat = build_lattice(4, 3, MOEBIUS)
    corr = cut_complement_of_center(lat)
    c = lat.center_row
    band_links = {
        link for link in _undirected_links(lat) if all(s % lat.ny != c for s in link)
    }
    mapped = {frozenset(int(corr.from_band[s]) for s in link) for link in band_links}
    assert mapped == _undirected_links(corr.cut)
    assert len(mapped) == len(band_links)


@pytest.mark.parametrize("nx,ny,topo", [(8, 1, MOEBIUS), (8, 4, MOEBIUS), (8, 5, ANNULUS)])
def test_cut_complement_preconditions(nx, ny, topo):
    with pytest.raises(LatticeError):
        cut_complement_of_center(build_lattice(nx, ny, topo))


def test_lift_loop_round_trip():
    lat = build_lattice(6, 5, MOEBIUS)
    corr = cut_complement_of_center(lat)
    lifted = corr.lift_loop(offset_loop(lat, 1))
    assert lifted.lattice == corr.cut
    assert len(lifted) == len(offset_loop(lat, 1))
    assert homology_class(corr.cut, lifted) == 1  # class 2 upstairs generates downstairs
    with pytest.raises(LoopError):
        corr.lift_loop(center_loop(lat))


def test_lift_loop_refuses_another_lattices_loop():
    corr = cut_complement_of_center(build_lattice(6, 5, MOEBIUS))
    for other in (build_lattice(8, 5, MOEBIUS), build_lattice(6, 5, ANNULUS), corr.cut):
        with pytest.raises(LoopError, match="loop belongs to a different lattice"):
            corr.lift_loop(offset_loop(other, 0))


def test_site_id_round_trip():
    lat = build_lattice(5, 4, ANNULUS)
    ids = [lat.site_id(s) for s in sites(lat)]
    assert sorted(ids) == list(range(lat.n_sites))
