import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring,
over two lines."""

import math  # a comment after code


class Box:
    """A class docstring."""

    # a comment on its own line
    def area(self, side):
        """A function docstring."""
        return math.prod((side,
                          side))
'''


def test_counts_only_lines_that_hold_code():
    """import, class, def, and both lines of the two-line return: no
    docstring, comment or blank line."""
    assert code_lines.code_lines(FIXTURE) == 5


def test_prints_each_module_of_src_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(code_lines.SRC.glob("*.py"))
    counts = [code_lines.code_lines(f.read_text()) for f in modules]
    assert rows == ([[f.name, str(k)] for f, k in zip(modules, counts)]
                    + [["total", str(sum(counts))]])


def test_a_string_statement_past_the_docstring_counts():
    assert code_lines.code_lines('"""doc"""\n"""not a docstring"""\nx = 1\n') == 2
