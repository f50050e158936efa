"""The package's export list names exactly what the package binds, and the
README's module table stays a summary of the module docstrings."""

from __future__ import annotations

import types
from pathlib import Path

import sumsetlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_every_public_name_once():
    bound = {
        name
        for name, value in vars(sumsetlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sumsetlab.__all__) == len(set(sumsetlab.__all__))
    assert set(sumsetlab.__all__) == bound


def test_library_layout_rows_are_short():
    # Each row says what a user calls and what it guarantees; the
    # mechanism lives in the module docstrings.
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    assert len(rows) == 8
    long_rows = [row.split("`")[1] for row in rows if len(row) > 600]
    assert not long_rows, f"README rows over 600 characters: {long_rows}"
