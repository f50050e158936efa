"""The package's export list names exactly what the package binds."""

from __future__ import annotations

import types

import sumsetlab


def test_all_lists_every_public_name_once():
    bound = {
        name
        for name, value in vars(sumsetlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sumsetlab.__all__) == len(set(sumsetlab.__all__))
    assert set(sumsetlab.__all__) == bound
