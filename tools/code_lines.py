"""Print the code lines of each module of src/intraport and their total.

A code line holds a token other than a comment.  Blank lines, comment lines
and docstrings (the string that opens a module, class or function body,
found with ast) are not counted; any other string counts on every line it
spans.

    python tools/code_lines.py [package directory, default src/intraport]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and token.start not in docstrings:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).parent.parent / "src" / "intraport")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12} {count:5}")
    print(f"{'total':12} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
