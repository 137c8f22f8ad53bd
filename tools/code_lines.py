"""Print the code lines of each module of the package, and their total, for
one or more source checkouts side by side:

    python3 tools/code_lines.py OLD_CHECKOUT .

SRC_DIR is the root of a source checkout; its modules are the .py files
under src/mcsvortex.  A code line is a non-blank line that holds a token
other than a comment or a docstring: tokenize finds the tokens, and ast
tells which string tokens are the docstrings of a module, class or
function.  One row per module, one column per SRC_DIR, the total last; a
module missing from a checkout reads "-".
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "mcsvortex"

# tokens that hold no code: layout, comments and the stream's ends
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                doc = first.value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count_checkout(root: Path) -> dict[str, int]:
    """Code lines of each module under root's src/mcsvortex, by relative path."""
    package = root / PACKAGE
    if not package.is_dir():
        raise SystemExit(f"{root} has no {PACKAGE}")
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dirs", metavar="SRC_DIR", type=Path, nargs="+")
    args = parser.parse_args(argv)
    counts = [count_checkout(root) for root in args.src_dirs]
    modules = sorted(set().union(*counts))
    rows = [["module", *map(str, args.src_dirs)]]
    rows += [[name, *(str(c.get(name, "-")) for c in counts)] for name in modules]
    rows.append(["total", *(str(sum(c.values())) for c in counts)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [x.rjust(w) for x, w in zip(row[1:], widths[1:])]
        print("  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
