import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """One line."""
        # a comment line
        return (1 +
                2)
'''


def test_counts_code_lines_only():
    # import, class, x (two lines), def, return (two lines); the docstrings,
    # comments and blank lines are left out
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.split() == ["a", "2", "b", "1", "total", "3"]
