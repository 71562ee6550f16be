"""Count the code lines of Python modules: lines that hold code, not docstrings, comments or blanks.

A line counts when it holds a token other than a comment, a newline or an
indent, and the token is not part of a docstring, the string expression
that opens a module, class or function body (found with ``ast``).  Usage:

    python scripts/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them; the default is
src/ajscc next to this script.  One line per module, then the total.
"""
import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a module's syntax tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    source = path.read_text()
    docstrings = docstring_lines(ast.parse(source))
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "ajscc"]
    files = []
    for root in roots:
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
