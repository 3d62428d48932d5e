"""Count the code lines of Python sources.

Usage: python scripts/code_lines.py PATH...

A code line holds at least one token other than a comment or a docstring,
where a docstring is any string that forms a statement by itself.  So
blank lines, comment lines and docstring lines do not count; any other
string that spans several lines counts on each of them.  Each PATH is a
file or a directory searched for *.py files; the script prints the count
per file, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(path)
        for name in names if name.endswith(".py")
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", metavar="PATH")
    args = ap.parse_args(argv)
    total = 0
    for path in args.paths:
        for name in python_files(path):
            with open(name, encoding="utf-8") as fh:
                n = code_lines(fh.read())
            print(f"{n:6d}  {name}")
            total += n
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
