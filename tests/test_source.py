"""Source layout: no line of the package is wider than 99 columns, so the
net source-line count in the bench files cannot fall by packing statements
onto fewer, longer lines."""

from pathlib import Path

import ordrank

WIDTH = 99  # the widest line when this check was added


def test_no_source_line_wider_than_99_columns():
    wide = [f"{path.name}:{k}: {len(line)} columns"
            for path in sorted(Path(ordrank.__file__).parent.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > WIDTH]
    assert wide == []
