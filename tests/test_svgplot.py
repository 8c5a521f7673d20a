"""The SVG plot's bytes, pinned for fixed records.

Each case is a list of ``SweepRecord`` built from literal floats, so its
plot depends on the renderer alone and not on the BLAS build that a CLI
sweep's energies would.  A change to a digest is a change to the plot.
"""

import hashlib

import pytest

from mobiusflux.experiments import SweepRecord
from mobiusflux.svgplot import render_sweep_svg

FS = (-0.25, 0.0, 0.25, 0.5, 0.75)
# the full ground state is the even one at every flux here, as on a band with ty = 1
FULL = EVEN = (-3.9021130325903073, -3.9318516525781364, -3.9021130325903073,
               -3.8134732861516003, -3.9021130325903073)
ODD = (-1.4142135623730951, -1.3065629648763766, -1.4142135623730951,
       -1.5307337294603591, -1.4142135623730951)


def _three_sectors():
    return [SweepRecord(f=f, e0_full=a, e0_even=b, e0_odd=c, gap=0.1, current=0.01)
            for f, a, b, c in zip(FS, FULL, EVEN, ODD)]


CASES = {
    "three_sectors": _three_sectors(),
    # only the odd sector was asked for: the other columns are empty
    "one_sector": [SweepRecord(f=f, e0_odd=c) for f, c in zip(FS, ODD)],
    "failed_row": [*_three_sectors()[:2], SweepRecord(f=FS[2], status="failed"),
                   *_three_sectors()[3:]],
    # one value throughout: the y range is widened to [v, v + 1]
    "constant_column": [SweepRecord(f=f, e0_full=-2.0) for f in FS],
    "all_failed": [SweepRecord(f=f, status="failed") for f in FS],
    "two_points": [SweepRecord(f=0.0, e0_full=-1.5, e0_even=-1.5, e0_odd=-0.5),
                   SweepRecord(f=1e-05, e0_full=-1.4999999999, e0_even=-1.4999999999,
                               e0_odd=-0.5000000001)],
}

DIGESTS = {  # sha256 of each case's plot
    "three_sectors": "554558caa1a050f1dbb1c79bc88a3359234cc3830a907bf870ec6ea3ec9e2479",
    "one_sector": "bccdcb230c634a6453752da772c0007d6459b07c49cc751814743aef82070044",
    "failed_row": "9a0b3e5add25a38921ab2fe769a2e331e697174bb37f0579155070d8681d4337",
    "constant_column": "f7eb1f0aa351231da5d3c1550b674c408fa05b2fdd7e6a5a449f799a27cc02aa",
    "all_failed": "6a33cff7243be4cb3551c31b82796cee52194797bbb497f90d9ca1d48dec3627",
    "two_points": "0702c411cf858d85bd2ef0a73693ad4686e270c6a3431d104d7fecaffa6f4bfc",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_plot_of_fixed_records_keeps_its_bytes(case):
    svg = render_sweep_svg(CASES[case])
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.endswith("</svg>\n")
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == DIGESTS[case]
