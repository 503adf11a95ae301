"""Count the code lines of topocell's modules, the size that ROADMAP gates.

A code line is a line that holds a token other than a comment, a newline
or an indent, and that is not part of a docstring (the first statement of
a module, class or function, when it is a string). Blank lines, comments
and docstrings are left out. Lines are found with ``tokenize``, docstrings
with ``ast``.

    python scripts/code_lines.py [directory]

prints the count of each module of the directory (default ``src/topocell``)
and their total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in the Python source ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    default = Path(__file__).resolve().parent.parent / "src" / "topocell"
    directory = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main(sys.argv)
