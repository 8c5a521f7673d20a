"""The README's library example runs as printed."""

import ast
import contextlib
import io
import re
from pathlib import Path

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
