"""``tools/code_lines.py``: the count of code lines that tracks the size of ``src/``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import math  # a trailing comment


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is not a docstring,
        over two lines"""
        return math.pi, text


async def idle():
    \'\'\'Async docstring.\'\'\'
    return None
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_code_but_other_strings_are():
    # import, class, def, text (2 lines), return, async def, return
    assert _tool().code_lines(SOURCE) == 8


def test_a_module_of_only_a_docstring_and_comments_has_no_code_lines():
    assert _tool().code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_tool_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = [\n    2,\n]\n", encoding="utf-8")
    _tool().main(tmp_path)
    assert capsys.readouterr().out.split("\n") == ["     8 a.py", "     4 b.py", "    12 total", ""]
