"""CLI contract: exit codes, CSV schema and round trip, SVG, verify."""

import ctypes
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # loads scipy's own OpenBLAS, which blas_build reads
from numpy.testing import assert_allclose

from mobiusflux import cli, eigensolver, experiments, verify
from mobiusflux.cli import ConfigError, main, parse_sweep_csv, render_sweep_csv
from mobiusflux.hamiltonian import ring_spectrum_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_or_usage(capsys, *argv):
    """run_cli, with an argparse usage error's exit code in place of its SystemExit."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


# small runs: each command's own flags, so that a case's flags may follow and override them
SMALL = {"spectrum": ("--nx", "4"), "sweep": ("--nx", "4", "--f-steps", "3"),
         "holonomy": (), "verify": ()}


def read_csv_column(text, name):
    lines = text.strip().split("\n")
    idx = lines[0].split(",").index(name)
    return [line.split(",")[idx] for line in lines[1:]]


def test_spectrum_matches_ring_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--topology", "annulus", "--nx", "4", "--ny", "1",
        "--f", "0", "--k", "4", "--ty", "0", "--sectors", "full",
    )
    assert code == 0
    values = [float(cell) for cell in read_csv_column(out, "eigenvalue")]
    assert_allclose(values, ring_spectrum_oracle(4, 0.0), atol=1e-9)
    residuals = [float(cell) for cell in read_csv_column(out, "residual")]
    assert max(residuals) < 1e-9


def test_sector_spectrum_is_the_sweep_bit_for_bit(capsys):
    # the spectrum command and the sweep solve a sector in one and the same basis; on the
    # 3 x 3 band k = 6 reaches both sectors' dimensions (odd 3, even 6), where LAPACK's
    # driver takes other routes.  Beside both parity sectors the sweep's full columns are
    # read off them: e0 is the lower of the two sectors' printed lowest values, and the
    # gap the next value up, at the same k.  A sweep without both solves the full sector
    # for the two pairs its columns read, and a sweep without the full sector has no full
    # columns; every parity sector is solved at k, as spectrum solves it
    for size in (["--nx", "48", "--ny", "9", "--ty", "0.01"], ["--nx", "3", "--ny", "3", "--k", "6"],
                 ["--topology", "annulus", "--nx", "8", "--ny", "3"]):
        size = [*size, "--solver", "dense"]
        for sectors in ("full,even,odd", "full,even", "full", "even,odd", "odd"):
            code, out, _ = run_cli(capsys, "sweep", *size, "--f-min", "0.3", "--f-max", "0.5",
                                   "--f-steps", "2", "--sectors", sectors)
            assert code == 0
            for row, f in enumerate(read_csv_column(out, "f")):
                spectra = {}
                for sector in ("full", "even", "odd"):
                    k = ["--k", "2"] if sector == "full" else []
                    code, spectrum, _ = run_cli(capsys, "spectrum", *size, *k, "--f", f,
                                                "--sectors", sector)
                    assert code == 0
                    spectra[sector] = read_csv_column(spectrum, "eigenvalue")
                    if sector in sectors.split(",") and sector != "full":
                        assert spectra[sector][0] == read_csv_column(out, f"e0_{sector}")[row]
                if "full" not in sectors:
                    continue
                full = spectra["full"]
                if sectors == "full,even,odd":
                    full = sorted(spectra["even"] + spectra["odd"], key=float)
                    assert full[0] == min(spectra["even"][0], spectra["odd"][0], key=float)
                assert full[0] == read_csv_column(out, "e0_full")[row]
                gap = float(read_csv_column(out, "gap")[row])
                assert float(full[1]) - float(full[0]) == gap


def test_spectrum_flux_periodicity(capsys):
    argv = ["spectrum", "--nx", "8", "--ny", "3", "--k", "6", "--sectors", "full"]
    _, out0, _ = run_cli(capsys, *argv, "--f", "0")
    _, out1, _ = run_cli(capsys, *argv, "--f", "1")
    v0 = [float(c) for c in read_csv_column(out0, "eigenvalue")]
    v1 = [float(c) for c in read_csv_column(out1, "eigenvalue")]
    assert_allclose(v0, v1, atol=1e-9)


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("topologyy = annulus\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "topologyy" in err


@pytest.mark.parametrize("flag", [("--out", "x.csv"), ("--plot", "y.svg"), ("--strict",)])
@pytest.mark.parametrize("command", ["spectrum", "holonomy", "verify"])
def test_a_flag_the_command_does_not_read_exits_2(capsys, tmp_path, monkeypatch, command, flag):
    # only sweep reads out, plot and strict; the others once took them, printed to stdout
    # and wrote no file
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli_or_usage(capsys, command, *flag)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,line", [
    ("spectrum", "out = x.csv"),
    ("spectrum", "f_steps = 3"),
    ("sweep", "f = 0.5"),
    ("holonomy", "tx = 2"),
    ("verify", "nx = 4"),
])
def test_a_config_key_the_command_does_not_read_exits_2(capsys, tmp_path, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    key = line.split(" ")[0]
    assert code == 2
    assert out == ""
    assert err == f"config error: {command} reads no config key {key!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ("spectrum", "--nx", "6", "--ny", "3", "--f", "-2e-1"),
    ("spectrum", "--nx", "6", "--ny", "3", "--tx", "2", "--f", "-1e-05", "--k", "2"),
    ("sweep", "--nx", "6", "--ny", "3", "--f-min", "-1e-05", "--f-max", "0.5", "--f-steps", "3"),
    ("sweep", "--nx", "6", "--ny", "3", "--f-min", "-5E-1", "--f-max", "-1e-1", "--f-steps", "3"),
    # an abbreviated flag, which argparse resolves: '--f-mi -1e-05' once stopped there
    ("sweep", "--nx", "6", "--ny", "3", "--f-steps", "3", "--f-mi", "-1e-05"),
    ("sweep", "--nx", "6", "--ny", "3", "--f-min", "-1", "--f-ma", "-1e-05", "--f-steps", "3"),
])
def test_a_negative_float_in_exponent_form_is_the_flags_value(capsys, argv):
    # argparse took "-2e-1" for an option and exited 2 with "expected one argument";
    # repr writes every |f| < 1e-4 this way
    joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    code, out, err = run_cli_or_usage(capsys, *argv)
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(capsys, argv[0], *joined)


def test_an_int_flag_refuses_a_negative_exponent_form_value_by_name(capsys):
    # the join serves every long flag: --nx once stopped at "expected one argument"
    code, out, err = run_cli_or_usage(capsys, "sweep", "--nx", "-1e5")
    assert (code, out) == (2, "")
    assert "argument --nx: invalid int value: '-1e5'" in err


def test_a_config_file_with_a_byte_order_mark_reads_like_its_plain_copy(capsys, tmp_path):
    # read as plain UTF-8 the mark was part of the first key: "reads no config key '\ufeffnx'"
    text = "nx = 6\nny = 3\nf_steps = 3\nsectors = full,odd\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out, err = run_cli(capsys, "sweep", "--config", str(plain))
    assert code == 0 and out.count("\n") == 4
    assert run_cli(capsys, "sweep", "--config", str(marked)) == (code, out, err)


def test_bad_flag_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--nx", "notanint"])
    assert exc.value.code == 2


def test_bad_sector_exits_2(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--sectors", "sideways")
    assert code == 2
    assert "sideways" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# tiny sweep\n"
        "topology = annulus\n"
        "nx = 8\nny = 3\nf_min = 0.0\nf_max = 1.0\nf_steps = 5\nk = 2\n"
        "sectors = full\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--f-steps", "7")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 7  # flag overrides the file


def test_sweep_csv_schema_and_round_trip(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--nx", "8", "--ny", "5", "--f-min", "0", "--f-max", "1",
        "--f-steps", "11", "--k", "2", "--out", str(out_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "f,e0_full,e0_even,e0_odd,gap,node_amp,current,status"
    assert len(lines) == 12
    rows = parse_sweep_csv(text)
    rebuilt = render_sweep_csv(
        [_RowShim(row) for row in rows]
    )
    assert rebuilt == text


@pytest.mark.parametrize("row", ["0.5,1,2", "0.5,1,2,3,4,5,6,ok,extra"])
def test_parse_sweep_csv_rejects_rows_not_matching_the_header(row):
    header = "f,e0_full,e0_even,e0_odd,gap,node_amp,current,status"
    with pytest.raises(ConfigError, match="line 3"):
        parse_sweep_csv(f"{header}\n0,1,2,3,4,5,6,ok\n{row}\n")


class _RowShim:
    def __init__(self, row):
        self._row = dict(row)

    def __getattr__(self, name):
        return self._row[name]


def test_sweep_deterministic_bytes(capsys, tmp_path):
    args = [
        "sweep", "--nx", "8", "--ny", "3", "--f-min", "0", "--f-max", "0.5",
        "--f-steps", "6", "--k", "2", "--sectors", "full", "--seed", "7",
    ]
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_sweep_svg_plot(capsys, tmp_path):
    svg_path = tmp_path / "sweep.svg"
    code, _, _ = run_cli(
        capsys, "sweep", "--nx", "8", "--ny", "5", "--f-steps", "5",
        "--f-min", "0", "--f-max", "1", "--k", "2",
        "--out", str(tmp_path / "s.csv"), "--plot", str(svg_path),
    )
    assert code == 0
    text = svg_path.read_text(encoding="utf-8")
    assert text.startswith('<?xml version="1.0"')
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 3  # full, even, odd


def test_sweep_invalid_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--f-min", "1.0", "--f-max", "0.0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("spectrum", "--tx", "-1"),
    ("sweep", "--ty", "-1"),
    # the odd sector of a one-row strip is empty
    ("spectrum", "--sectors", "odd", "--ny", "1"),
    ("sweep", "--sectors", "full,odd", "--ny", "1"),
    # sector lists: spectrum prints one sector, or 'full' among known ones; no name unchecked
    ("spectrum", "--sectors", "full,bogus"),
    ("spectrum", "--sectors", "even,bogus"),
    ("spectrum", "--sectors", "even,odd"),
    ("spectrum", "--sectors", ","),
    ("sweep", "--sectors", ","),
    ("sweep", "--sectors", "full,bogus"),
    ("sweep", "--sectors", "EVEN"),
    # lattice dimensions are checked before the sweep starts
    ("sweep", "--nx", "2", "--sectors", "full"),
    ("sweep", "--ny", "0", "--sectors", "full"),
    # a flux grid with a non-finite end or span
    ("sweep", "--f-max", "inf"),
    ("sweep", "--f-min=-1e308", "--f-max=1e308"),
    # argparse once took -inf for an option and stopped at its usage error
    ("spectrum", "--f", "-inf"),
    ("sweep", "--f-min", "-inf"),
    # output paths are checked before the sweep runs
    ("sweep", "--out", "{missing}/sweep.csv"),
    ("sweep", "--plot", "{missing}/sweep.svg"),
    # the dense solver refuses n = 5000 before it allocates anything
    ("spectrum", "--solver", "dense", "--nx", "1000", "--ny", "5", "--sectors", "full"),
    # a key the command does not read is argparse's usage error
    ("verify", "--tx", "-1"),
    ("verify", "--topology", "torus"),
    ("spectrum", "--solver", "bogus"),
    # a non-finite tol, refused like every other float key
    ("spectrum", "--tol", "inf", "--solver", "lanczos", "--k", "3"),
    # the link angle 2 pi f / nx is finite, the class-2 loop's 4 pi f is not: fsum once
    # raised OverflowError with a traceback
    ("holonomy", "--f", "2e307", "--loop", "offset=0"),
    # a range too narrow for f_steps distinct doubles: linspace rounded two points onto one,
    # and the current printed -inf (with a divide-by-zero warning) or nan
    ("sweep", "--nx", "6", "--ny", "3", "--f-min", "1", "--f-max", "1.0000000000000002"),
    ("sweep", "--nx", "6", "--ny", "3", "--f-min", "0", "--f-max", "5e-324"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invalid_config_exits_2(capsys, tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    # the case's own flags come last, so they override the small defaults
    code, out, err = run_cli_or_usage(capsys, argv[0], *SMALL[argv[0]], *argv[1:])
    assert code == 2
    assert out == ""
    if argv[0] == "verify":
        assert "unrecognized arguments" in err
    else:
        assert err.startswith("config error:")


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
@pytest.mark.parametrize("failing", ["solve", "eigh"])
def test_linear_algebra_failure_exits_1(capsys, monkeypatch, tmp_path, command, failing):
    # "eigh": the small inputs take the dense route, whose failure is scipy's eigh raising
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("factorization failed")

    if failing == "eigh":
        monkeypatch.setattr(scipy.linalg, "eigh", fail)
    else:
        monkeypatch.setattr(cli, "solve", fail)
        monkeypatch.setattr(experiments, "solve", fail)
    code, out, err = run_cli(capsys, command, *SMALL[command])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    if command == "sweep":
        # a failed sweep removes the output files it created and keeps the others
        old, new = tmp_path / "old", tmp_path / "new"
        old.write_bytes(b"earlier run\n")
        for out_path, plot_path in ((new, old), (old, new)):
            code, _, _ = run_cli(capsys, command, *SMALL[command],
                                 "--out", str(out_path), "--plot", str(plot_path))
            assert code == 1
            assert not new.exists()
            assert old.read_bytes() == b"earlier run\n"


def test_a_short_inertia_count_exits_1(capsys, monkeypatch):
    # a count below the Ritz values found is a refused solve, never a printed spectrum
    monkeypatch.setattr(eigensolver, "_count_below", lambda h, cut, norm: 0)
    code, out, err = run_cli(capsys, "spectrum", "--nx", "8", "--ny", "3", "--solver", "lanczos",
                             "--k", "2")
    assert code == 1
    assert out == ""
    assert err == "error: inertia count 0 < 2 values\n"


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
@pytest.mark.parametrize("solver", ["dense", "lanczos", "auto"])
@pytest.mark.parametrize("key", ["--tx", "--ty"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_operator_exits_2(capsys, tmp_path, command, solver, key):
    # 2 tx + 2 ty overflows to inf on the diagonal; a NaN defect once passed the Hermiticity
    # check, and the Krylov path then died on a singular factor with a traceback
    # 1e200 is finite throughout, but squared and summed it overflows a residual norm: entries
    # above 1e150 are refused, where a dense solve once printed an inf residual with exit 0
    for value in ("1e308", "1e200"):
        argv = [command, *SMALL[command], "--nx", "8", "--ny", "3", "--k", "2",
                "--solver", solver, key, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error:") and "non-finite" in err
        if command == "sweep":
            new = tmp_path / "new.csv"
            code, out, _ = run_cli(capsys, *argv, "--out", str(new))
            assert code == 2 and out == ""
            assert not new.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_huge_tol_solves_without_overflow(capsys):
    # the inertia count's growth check once divided ||H - sigma I|| by sqrt(eps), which
    # overflows at tol = 1e300, where the cut sits 1e300 above the spectrum
    size = ["--nx", "12", "--ny", "5", "--k", "3", "--sectors", "full"]
    code, out, _ = run_cli(capsys, "spectrum", *size, "--tol", "1e300", "--solver", "lanczos")
    assert code == 0
    code, dense, _ = run_cli(capsys, "spectrum", *size, "--solver", "dense")
    assert code == 0
    assert_allclose([float(v) for v in read_csv_column(out, "eigenvalue")],
                    [float(v) for v in read_csv_column(dense, "eigenvalue")], rtol=0, atol=1e-12)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--f", "1e308", "--sectors", "even"),
    ("spectrum", "--f", "1e308", "--sectors", "full"),
    ("sweep", "--f-min", "0", "--f-max", "1e308", "--f-steps", "3", "--out", "{new}"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_flux_whose_link_angle_is_not_finite_exits_2(capsys, tmp_path, argv):
    # 2 pi f / nx overflows at a finite f: the sector pencil once failed on cos(inf) with
    # "math domain error", the full sector's field with a message of its own
    new = tmp_path / "new.csv"
    argv = [arg.format(new=new) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--nx", "6", "--ny", "3")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"config error: flux f=\S+ gives a link angle 2\*pi\*f/nx that is not "
                        r"finite\n", err)
    assert not new.exists()


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
@pytest.mark.parametrize("key", ["--tx", "--ty"])
def test_entries_below_the_size_bound_give_finite_residuals(capsys, command, key):
    argv = [command, *SMALL[command], "--nx", "8", "--ny", "3", "--k", "2",
            "--solver", "dense", key, "1e140", "--sectors", "full"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if command == "spectrum":
        assert all(math.isfinite(float(r)) for r in read_csv_column(out, "residual"))
    else:
        assert all(math.isfinite(float(e)) for e in read_csv_column(out, "e0_full"))


@pytest.mark.parametrize("sector", ["even", "odd"])
@pytest.mark.parametrize("scale", ["1e4", "1e8"])
def test_parity_sectors_at_large_hopping(capsys, sector, scale):
    # an absolute 1e-12 leak bound once refused these with exit 2; tx = ty scales H exactly
    argv = ["spectrum", "--nx", "8", "--ny", "3", "--f", "0.3", "--sectors", sector]
    code, unit, _ = run_cli(capsys, *argv)
    assert code == 0
    code, big, err = run_cli(capsys, *argv, "--tx", scale, "--ty", scale)
    assert code == 0, err
    assert_allclose([float(v) for v in read_csv_column(big, "eigenvalue")],
                    [float(scale) * float(v) for v in read_csv_column(unit, "eigenvalue")],
                    rtol=1e-12, atol=0)


def test_parity_sweep_at_large_hopping(capsys):
    code, out, err = run_cli(capsys, "sweep", "--nx", "8", "--ny", "3", "--tx", "1e6", "--ty", "1e6",
                             "--f-steps", "5")
    assert code == 0, err
    assert all(line.endswith(",ok") for line in out.strip().split("\n")[1:])


@pytest.mark.parametrize("sector", ["full", "even"])
def test_lanczos_residual_gate_has_a_round_off_floor(capsys, sector):
    # at tx = 1e6 the lowest eigenvalues are O(1) while ||H|| ~ 2e6, so a residual is
    # eps ||H|| ~ 1e-9: the gate tol * max(1, |lambda|) = 1e-10 once refused every solve
    from mobiusflux.eigensolver import _gershgorin
    from mobiusflux.gauge import uniform_flux_field
    from mobiusflux.hamiltonian import ROUND_OFF, HoppingParams, assemble
    from mobiusflux.lattice import build_lattice

    argv = ["spectrum", "--nx", "8", "--ny", "3", "--k", "2", "--tx", "1e6", "--sectors", sector]
    code, lanczos, err = run_cli(capsys, *argv, "--solver", "lanczos")
    assert code == 0, err
    code, dense, err = run_cli(capsys, *argv, "--solver", "dense")
    assert code == 0, err
    lat = build_lattice(8, 3, "moebius")
    lo, hi = _gershgorin(assemble(lat, uniform_flux_field(lat, 0.0), HoppingParams(1e6, 1.0)))
    floor = ROUND_OFF * max(abs(lo), abs(hi))
    assert 1e-10 < floor < 1e-7
    assert_allclose([float(v) for v in read_csv_column(lanczos, "eigenvalue")],
                    [float(v) for v in read_csv_column(dense, "eigenvalue")], rtol=0, atol=floor)


def test_lanczos_on_a_diagonal_that_dwarfs_the_hopping(capsys):
    # Gershgorin's interval rounds to one point at 1e20 + O(1), and the shift below it
    # once rounded onto it: SuperLU raised "Factor is exactly singular", uncaught
    for sectors, ny in (("full", "1"), ("odd", "3")):
        code, out, err = run_cli(capsys, "spectrum", "--nx", "8", "--ny", ny, "--ty", "1e20",
                                 "--k", "2", "--solver", "lanczos", "--sectors", sectors)
        assert code == 0, err
        assert [float(v) for v in read_csv_column(out, "eigenvalue")] == pytest.approx([2e20] * 2)


def test_a_sweep_builds_its_lattice_and_hopping_once(capsys, monkeypatch):
    # build_config builds them, and nothing downstream rebuilds them to check them again
    from mobiusflux.hamiltonian import HoppingParams
    from mobiusflux.lattice import StripLattice

    built = []

    def counted(check):
        def post_init(self):
            built.append(type(self).__name__)
            check(self)
        return post_init

    for cls in (StripLattice, HoppingParams):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__post_init__))
    code, _, _ = run_cli(capsys, "sweep", "--nx", "8", "--ny", "5", "--f-steps", "3", "--k", "2")
    assert code == 0
    assert sorted(built) == ["HoppingParams", "StripLattice"]


def src_env() -> dict:
    """This environment, with the package's source first on PYTHONPATH, for a subprocess."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))


def test_python_dash_m_runs_the_cli(tmp_path):
    env = src_env()
    ok = subprocess.run([sys.executable, "-m", "mobiusflux", "spectrum", "--topology", "annulus",
                         "--nx", "4", "--ny", "1", "--ty", "0", "--k", "2"],
                        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert ok.returncode == 0
    assert ok.stdout.startswith("index,eigenvalue,residual\n0,")
    bad = subprocess.run([sys.executable, "-m", "mobiusflux", "spectrum", "--tx", "-1"],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("config error:")


# the scipy modules only a solve or a band layout reads: the functions that call them import
# them, so that a command that solves nothing starts without them (~0.14 s of imports)
SOLVER_MODULES = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_a_command_that_solves_nothing_loads_no_solver_module(tmp_path):
    probe = ("import sys; from mobiusflux.cli import main; "
             "code = main(['holonomy', '--loop', 'offset=0']); "
             f"print(code, *(name for name in {SOLVER_MODULES!r} if name in sys.modules))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=src_env(), cwd=tmp_path)
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.splitlines()[-1] == "0"


ACCEPTANCE_CSV_SHA256 = "8b66562c00d8d4d424666da70a1cca5ddc5eb2928e037f9a58ed02b8210da81c"
RECORDED_BUILD = ("numpy 2.4.6", "scipy 1.17.1",
                  "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
                  "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64")
# the exports by which numpy's OpenBLAS (64-bit ints) and scipy's own, whose LAPACK
# computes the printed digits, report their configurations
BLAS_CONFIGS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config")


def blas_build() -> tuple:
    """numpy's and scipy's versions, and the configurations their OpenBLAS libraries report
    at run time, "unknown" for one that no loaded library reports."""
    configs = dict.fromkeys(BLAS_CONFIGS, "unknown")
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path, name in itertools.product(libs, BLAS_CONFIGS):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None and configs[name] == "unknown":
            fn.restype = ctypes.c_char_p
            configs[name] = fn().decode()
    return f"numpy {np.__version__}", f"scipy {scipy.__version__}", *configs.values()


# the golden subset of tools/output_digest.py, run on the checkout at sys.argv[1]; it prints
# tests/golden_digest.txt, which a change that moves outputs on purpose regenerates with it
GOLDEN_RUN = ("import sys; sys.path.insert(0, sys.argv[1] + '/tools'); import output_digest as d; "
              "d.main(sys.argv[1], filter(d.golden, d.commands()))")


def test_the_golden_digest_is_pinned_line_for_line(tmp_path):
    """The digest tool's golden subset prints ``tests/golden_digest.txt``, on one BLAS thread.

    That is 501 commands' sha256 lines and the default acceptance CSV's
    (``sweep --ty 0.01 --solver dense``): every edge, refused input and
    exit path, every ``verify`` run, both factor routes of the Lanczos
    solver, the three Lanczos spectra whose band count is retried at a
    higher cut, and the 8 x 3 spectra, holonomies and plot sweeps; a moved
    line names its command.  Recorded with numpy 2.4.6, scipy 1.17.1, numpy's
    OpenBLAS reporting "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH
    NO_AFFINITY SkylakeX MAX_THREADS=64" from ``scipy_openblas_get_config64_`` and
    scipy's own reporting "OpenBLAS 0.3.30 DYNAMIC_ARCH NO_AFFINITY SkylakeX
    MAX_THREADS=64" from ``scipy_openblas_get_config``: the kernels that
    run, where ``numpy.show_config()`` names the build's Haswell.  The
    printed digits come from scipy's library.  Their last digits depend on
    the build, the core and the thread count: with two BLAS threads the
    acceptance CSV hashed to
    e0475cbbb4d7635a00c468822c92272da65b7f5a7dcdf8ecd8e00e76fd1caa29, so
    the subprocess pins one.  On another build the test skips and names
    both; the file is regenerated only by a change that moves outputs on
    purpose, never to make a run pass.
    """
    build = blas_build()
    if build != RECORDED_BUILD:
        pytest.skip(f"recorded on {' / '.join(RECORDED_BUILD)}; this host runs {' / '.join(build)}")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    run = subprocess.run([sys.executable, "-c", GOLDEN_RUN, str(root)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 0
    assert run.stderr == ""
    got = run.stdout.splitlines()
    want = (root / "tests" / "golden_digest.txt").read_text(encoding="utf-8").splitlines()
    assert want[-1] == f"{ACCEPTANCE_CSV_SHA256} acceptance CSV"
    moved = [pinned.split(" ", 1)[1] for line, pinned in zip(got, want) if line != pinned]
    assert len(got) == len(want) and not moved, f"{len(moved)} moved: " + "; ".join(moved)


def test_unwritable_plot_leaves_no_new_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--nx", "4", "--f-steps", "3", "--out", str(out),
                           "--plot", str(tmp_path / "missing" / "sweep.svg"))
    assert code == 2
    assert err.startswith("config error:")
    assert not out.exists()


def test_holonomy_center_half_flux(capsys):
    code, out, _ = run_cli(
        capsys, "holonomy", "--nx", "8", "--ny", "5", "--f", "0.5", "--loop", "center"
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert fields["homology_class"] == "1"
    assert float(fields["wilson_angle"]) == pytest.approx(math.pi, abs=1e-12)
    assert float(fields["holonomy_re"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(fields["holonomy_im"]) == pytest.approx(0.0, abs=1e-12)


def test_holonomy_offset_doubles_class(capsys):
    code, out, _ = run_cli(
        capsys, "holonomy", "--nx", "8", "--ny", "5", "--f", "0.5", "--loop", "offset=0"
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert fields["homology_class"] == "2"
    assert float(fields["wilson_angle"]) == pytest.approx(2 * math.pi, abs=1e-12)
    assert float(fields["holonomy_re"]) == pytest.approx(1.0, abs=1e-12)


def test_holonomy_annulus_quarter_flux(capsys):
    code, out, _ = run_cli(
        capsys, "holonomy", "--topology", "annulus", "--nx", "8", "--ny", "5",
        "--f", "0.25", "--loop", "offset=0",
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert fields["homology_class"] == "1"
    assert float(fields["wilson_angle"]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_holonomy_center_row_offset_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "holonomy", "--nx", "8", "--ny", "5", "--f", "0.5", "--loop", "offset=2"
    )
    assert code == 2
    # the message once read "row j is the center row" with a literal j
    assert err == "config error: row 2 is the center row; use center_loop for it\n"


def test_holonomy_bad_selector_exits_2(capsys):
    code, _, _ = run_cli(capsys, "holonomy", "--loop", "figure-eight")
    assert code == 2


def test_verify_passes_on_clean_build(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3")
    assert code == 0
    lines = [line for line in out.strip().split("\n") if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)


# the holonomy checks' detail lines at seed 12345, timings stripped; the
# seam-broken failures are LoopErrors from random_class2_loop
_SEAM = "LoopError: the seam keeps row 1 in its half; the walk would cross the center row"
HOLONOMY_LINES = {
    False: ["PASS flatness: max |curvature| = 1.78e-15 (tol 1e-12)",
            "PASS gauge_invariance: max angle shift mod 2pi = 1.78e-15 (tol 1e-12)",
            "PASS homology_invariance: max homologous angle gap = 3.55e-15 (tol 1e-12)",
            "PASS loop_doubling: bit-exact doubling in 20/20 random fluxes",
            "PASS stokes_defect: max |defect| = 2.61e-15 (tol 1e-12)"],
    True: ["PASS flatness: max |curvature| = 1.78e-15 (tol 1e-12)",
           f"FAIL gauge_invariance: {_SEAM}",
           f"FAIL homology_invariance: {_SEAM}",
           "PASS loop_doubling: bit-exact doubling in 20/20 random fluxes",
           f"FAIL stokes_defect: {_SEAM}"],
}


@pytest.mark.parametrize("broken", [False, True])
def test_verify_holonomy_lines_are_pinned(capsys, broken):
    _, out, _ = run_cli(capsys, "verify", "--seed", "12345", *(["--broken-seam"] * broken))
    names = ("flatness", "gauge_invariance", "homology_invariance", "loop_doubling",
             "stokes_defect")
    lines = [re.sub(r" \[\d+\.\d\ds\]$", "", line) for line in out.strip().split("\n")
             if line.split(" ", 2)[1].rstrip(":") in names]
    assert lines == HOLONOMY_LINES[broken]


def test_verify_broken_seam_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "3", "--broken-seam")
    assert code == 1
    *lines, summary = out.strip().split("\n")
    assert len(lines) == 11 and summary == "SUITE FAILED"
    failing = {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")}
    # exactly the seam-sensitive checks notice the broken seam rule; a field
    # gauge-equivalent to a uniform one is flat under any gluing
    assert failing == {"gauge_invariance", "homology_invariance", "annulus_equivalence",
                       "ladder_periodicity", "stokes_defect"}
    assert lines[0].startswith("PASS flatness")


def test_homology_invariance_fails_on_loops_of_different_classes(monkeypatch):
    classes = itertools.count()
    monkeypatch.setattr(verify, "homology_class", lambda lat, loop: next(classes))
    assert verify.check_homology_invariance(np.random.default_rng(12345), False) == (
        False, "generated loops disagree in homology class")


def test_repeated_main_calls_share_no_state(capsys):
    # one parser serves every call of the process; no option may carry over to the next
    assert cli.make_parser() is cli.make_parser()
    spectrum = ["spectrum", "--nx", "8", "--ny", "3", "--f", "0.3"]
    first = run_cli(capsys, *spectrum)
    assert first[0] == 0 and run_cli(capsys, *spectrum) == first
    sweep = ["sweep", "--topology", "annulus", "--nx", "4", "--ny", "1", "--ty", "0",
             "--f-min", "0", "--f-max", "0.2", "--f-steps", "3", "--k", "2",
             "--solver", "lanczos", "--tol", "1e-30", "--sectors", "full"]
    assert run_cli(capsys, *sweep, "--strict")[0] == 1
    assert run_cli(capsys, *sweep)[0] == 0
    center = run_cli(capsys, "holonomy", "--f", "0.37")
    offset = run_cli(capsys, "holonomy", "--f", "0.37", "--loop", "offset=1")
    assert offset[0] == 0 and offset != center
    assert run_cli(capsys, "holonomy", "--f", "0.37") == center
    assert run_cli(capsys, "verify", "--seed", "3", "--broken-seam")[0] == 1
    code, out, _ = run_cli(capsys, "verify", "--seed", "3")
    assert code == 0 and out.endswith("all checks passed\n")


def test_default_config_matches_documented_defaults():
    from mobiusflux.cli import RunConfig

    cfg = RunConfig()
    assert (cfg.topology, cfg.nx, cfg.ny) == ("moebius", 48, 9)
    assert (cfg.tx, cfg.ty) == (1.0, 1.0)
    assert (cfg.f_min, cfg.f_max, cfg.f_steps) == (-0.25, 1.25, 151)
    assert cfg.k == 6 and cfg.solver == "auto"
    assert cfg.sector_list() == ("full", "even", "odd")


def test_sweep_strict_exit_on_unreachable_tolerance(capsys):
    args = [
        "sweep", "--topology", "annulus", "--nx", "4", "--ny", "1", "--ty", "0",
        "--f-min", "0", "--f-max", "0.2", "--f-steps", "3", "--k", "2",
        "--solver", "lanczos", "--tol", "1e-30", "--sectors", "full",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert all(line.endswith("failed") for line in out.strip().split("\n")[1:])
    code, _, err = run_cli(capsys, *args, "--strict")
    assert code == 1
    assert "failed" in err


# a config-file sweep whose every point fails: no Lanczos residual meets tol = 1e-300
FAILING_SWEEP = "nx = 8\nny = 3\nf_steps = 5\nsolver = lanczos\ntol = 1e-300\n"


@pytest.mark.parametrize("spelling", [
    *("1", "0", "true", "false", "yes", "no", "on", "off"),
    *("TRUE", "False", "YES", "No", "oN", "OFF"),
])
def test_every_boolean_spelling_of_strict_sets_the_exit_code(capsys, tmp_path, spelling):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{FAILING_SWEEP}strict = {spelling}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    header, *rows = out.strip().split("\n")
    assert header.startswith("f,") and len(rows) == 5
    assert all(row.endswith(",failed") for row in rows)
    if spelling.lower() in ("1", "true", "yes", "on"):
        assert (code, err) == (1, "5 of 5 sweep points failed to converge\n")
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("argv, lines, message", [
    (("sweep",), f"{FAILING_SWEEP}strict = maybe\n",
     "bad value for key 'strict': not a boolean: 'maybe'"),
    (("spectrum",), "nx = 1.5\n", "bad value for key 'nx': "),
    (("spectrum",), "nx 8\n", ":1: expected key = value, got 'nx 8'"),
    (("spectrum",), None, "cannot read config file "),
    (("spectrum", "--nx", "6", "--ny", "3", "--seed", "-1"), "",
     "seed must fit in 64 unsigned bits"),
    (("spectrum", "--nx", "6", "--ny", "3", "--seed", str(2**64)), "",
     "seed must fit in 64 unsigned bits"),
    (("holonomy", "--loop", "offset=x"), "", "bad loop selector 'offset=x'"),
])
def test_each_documented_refusal_exits_2(capsys, tmp_path, argv, lines, message):
    cfg = tmp_path / "run.cfg"  # not written where lines is None: unreadable
    if lines is not None:
        cfg.write_text(lines, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ") and message in err


def test_parse_sweep_csv_rejects_a_wrong_header():
    with pytest.raises(ConfigError, match="unexpected CSV header"):
        parse_sweep_csv("f,e0_full,status\n0,1,ok\n")
