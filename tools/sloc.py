"""Count the lines of a Python package: raw, and code only.

A code line holds at least one token that is not a comment, outside every
docstring.  Docstrings (the leading string of a module, class or function)
are found with ``ast``; comments and blank lines with ``tokenize``.  The
tool only reports; it sets no threshold.

    python3 tools/sloc.py [PACKAGE_DIR]     # default: src/oddcolor
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docs: set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    code: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/oddcolor")
    total_raw = total_code = 0
    print(f"{'module':<24}{'raw':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<24}{raw:>7}{code:>7}")
    print(f"{'total':<24}{total_raw:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
