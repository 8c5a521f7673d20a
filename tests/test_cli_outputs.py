"""The sweep's output paths: one file cannot be two of the config, the CSV and the SVG."""

import pytest

from mobiusflux import cli

CLASHES = [
    (["--out", "sweep.out", "--plot", "sweep.out"], False),
    (["--out", "sweep.out", "--plot", "sweep.out"], True),
    (["--out", "a.csv", "--plot", "./a.csv"], False),
    (["--out", "a.csv", "--plot", "./a.csv"], True),
    # the config file exists, since it is read first
    (["--config", "run.cfg", "--out", "run.cfg"], True),
    (["--config", "run.cfg", "--out", "./run.cfg"], True),
    (["--config", "run.cfg", "--plot", "run.cfg"], True),
    (["--config", "run.cfg", "--plot", "./run.cfg"], True),
]


@pytest.mark.parametrize("flags,existing", CLASHES,
                         ids=[" ".join(f) + (" existing" if e else "") for f, e in CLASHES])
def test_output_paths_naming_one_file_are_refused_before_any_solve(
        capsys, tmp_path, monkeypatch, flags, existing):
    # the file written last used to replace the CSV or the config, and the run exited 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "flux_sweep", lambda cfg: pytest.fail("the sweep ran"))
    first = flags[1]
    kept = b"nx = 4  # kept\n"
    if existing:
        (tmp_path / first).write_bytes(kept)
    code = cli.main(["sweep", "--nx", "4", "--f-steps", "3"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "name the same file" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([first] if existing else [])
    if existing:
        assert (tmp_path / first).read_bytes() == kept
