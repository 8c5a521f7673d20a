"""The sweep's two output paths: one file cannot be both the CSV and the SVG."""

import pytest

from mobiusflux import cli


@pytest.mark.parametrize("out,plot", [("sweep.out", "sweep.out"), ("a.csv", "./a.csv")])
@pytest.mark.parametrize("existing", [False, True])
def test_out_and_plot_naming_one_file_are_refused_before_any_solve(
        capsys, tmp_path, monkeypatch, out, plot, existing):
    # with --plot written last, the SVG used to replace the CSV, and the run exited 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "flux_sweep", lambda cfg: pytest.fail("the sweep ran"))
    if existing:
        (tmp_path / out).write_bytes(b"kept\n")
    code = cli.main(["sweep", "--nx", "4", "--f-steps", "3", "--out", out, "--plot", plot])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ([out] if existing else [])
    if existing:
        assert (tmp_path / out).read_bytes() == b"kept\n"
