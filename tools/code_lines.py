"""Count the code lines of Python sources: lines without blanks, comments
or docstrings.

A line counts when it holds a token other than a comment and is not
part of a docstring (the first statement of a module, class or function
when that statement is a string).  Stdlib only::

    python tools/code_lines.py            # src/, one total
    python tools/code_lines.py -v src/repro/compiler
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from typing import Iterator, Set

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers covered by the docstrings in ``tree``."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        lines.update(line for line in range(token.start[0], token.end[0] + 1)
                     if line not in docs)
    return len(lines)


def python_files(root: str) -> Iterator[str]:
    if os.path.isfile(root):
        yield root
        return
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each file's count before the total")
    args = parser.parse_args(argv)
    total = 0
    for root in args.paths:
        for path in python_files(root):
            with open(path, encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            if args.verbose:
                print(f"{count:6d} {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
