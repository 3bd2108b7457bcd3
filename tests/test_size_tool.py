"""`tools/size.py`: the line columns of each module add up to its total,
and the total row sums the module rows."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SIZE = Path(__file__).resolve().parent.parent / "tools" / "size.py"
SRC = SIZE.parent.parent / "src" / "kahler_lab"


def test_size_columns_add_up():
    out = subprocess.run([sys.executable, str(SIZE)], capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    header, *modules, total = [line.split() for line in out]
    assert header == ["module", "total", "code", "doc", "blank", "defaults"]
    assert [row[0] for row in modules] == sorted(p.name for p in SRC.glob("*.py"))
    assert total[0] == "total"
    rows = [[int(v) for v in row[1:]] for row in modules]
    for name, (lines, code, doc, blank, _) in zip(modules, rows):
        assert code + doc + blank == lines, name[0]
        assert lines == len((SRC / name[0]).read_text().splitlines()), name[0]
    assert [int(v) for v in total[1:]] == [sum(column) for column in zip(*rows)]
