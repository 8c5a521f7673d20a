"""``tools/count_digest.py``: the digest of sparse inertia counts that compares two checkouts."""

import hashlib
import importlib.util
import os
from pathlib import Path
from unittest import mock

import numpy as np
import scipy.sparse as sp

from mobiusflux import eigensolver
from mobiusflux.gauge import uniform_flux_field
from mobiusflux.hamiltonian import HoppingParams, SparseHermitian, assemble
from mobiusflux.lattice import MOEBIUS, build_lattice

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "count_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("count_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the tool pins one BLAS thread for its own process
        spec.loader.exec_module(module)
    return module


def small_operators():
    """A real path with a zero diagonal entry, and a complex site operator of n = 24."""
    lat = build_lattice(8, 3, MOEBIUS)
    return [SparseHermitian(sp.csr_matrix(np.diag([1.0, 0.0, 2.0]) + np.eye(3, k=1)
                                          + np.eye(3, k=-1))),
            assemble(lat, uniform_flux_field(lat, 0.3), HoppingParams())]


def test_each_line_is_the_data_hash_the_dimension_the_cut_and_the_count(monkeypatch, capsys):
    block = eigensolver._MIN_BLOCK
    monkeypatch.setattr(eigensolver, "_MIN_BLOCK", block)  # main sets it
    tool, family = _tool(), small_operators()
    tool.main(str(ROOT), family)
    eigensolver._layout.cache_clear()  # its layouts hold the block
    want = []
    for h in family:
        values = np.linalg.eigvalsh(h.toarray())
        cuts = tool.cuts(h)
        # 12, 6 and 7 eigenvalue cuts where n allows, and 4 random ones
        assert len(cuts) == min(h.n, 12) + min(h.n, 6) + min(h.n - 1, 7) + 4
        tag = hashlib.sha256(h.csr.data.tobytes()).hexdigest()[:12]
        # a cut on a computed eigenvalue may count it either way
        want += [(f"{tag} {h.n} {cut!r}", np.count_nonzero(values < cut - 1e-9),
                  np.count_nonzero(values < cut + 1e-9)) for cut in cuts]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * len(want) + 2
    solver_blocks, narrowest_blocks = out[:len(want) + 1], out[len(want) + 1:]
    assert solver_blocks[0] == f"_MIN_BLOCK = {block}"
    assert narrowest_blocks[0] == "_MIN_BLOCK = 1"
    for line, (head, low, high) in zip(solver_blocks[1:] + narrowest_blocks[1:], want * 2):
        head_, count = line.rsplit(" ", 1)
        assert head_ == head
        assert count == "None" or low <= int(count) <= high
