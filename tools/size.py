"""Line counts of the `kahler_lab` sources, per module and in total.

    python3 tools/size.py

Every line of src/kahler_lab/*.py falls in exactly one class, read off
Python's tokenizer:

* code      -- the line carries a token other than a comment or a docstring;
* doc       -- otherwise, it carries a comment or part of a docstring (the
               string that opens a module, class or function body);
* blank     -- the rest: empty or whitespace-only lines outside docstrings.

A last column, `defaults`, counts the function parameters that carry a
default: the values a caller may set but need not.  It counts parameters,
not lines, and stays outside the line classes.

Prints one row per module and a total row; the line columns add up to
`total`.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kahler_lab"
LAYOUT = tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def defaults(source: str) -> int:
    """Parameters with a default, over every function and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def count(path: Path) -> dict[str, int]:
    source = path.read_text()
    docs = docstring_starts(source)
    code_lines, doc_lines = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and tok.start in docs):
            doc_lines.update(lines)
        else:
            code_lines.update(lines)
    total = len(source.splitlines())
    doc = len(doc_lines - code_lines)
    return {"total": total, "code": len(code_lines), "doc": doc,
            "blank": total - len(code_lines) - doc, "defaults": defaults(source)}


def main() -> None:
    columns = ("total", "code", "doc", "blank", "defaults")
    rows = [(path.name, count(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in columns}))
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in columns))
    for name, row in rows:
        print(f"{name:<16}" + "".join(f"{row[c]:>10}" for c in columns))


if __name__ == "__main__":
    main()
