"""The README's library example runs as printed, and its CLI key table is the parser's."""

import argparse
import ast
import contextlib
import io
import re
from pathlib import Path

from mobiusflux.cli import make_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the two holonomies and the odd sector's one minimum, as the comments say
    assert abs(complex(lines[0]) + 1) <= 1e-12
    assert abs(complex(lines[1]) - 1) <= 1e-12
    (minimum,) = ast.literal_eval(lines[2])
    assert abs(minimum - 0.5) <= 0.005


def test_the_cli_key_table_is_the_parser():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    (commands,) = (a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [name for name, _ in rows] == list(commands.choices)
    for name, keys in rows:
        flags = {f"--{key.replace('_', '-')}" for key in re.findall(r"`(\w+)`", keys)}
        flags |= {"--config"} | ({"--loop"} if name == "holonomy" else set())
        parsed = {option for action in commands.choices[name]._actions
                  if action.help != argparse.SUPPRESS and action.dest != "help"
                  for option in action.option_strings}
        assert parsed == flags, name
