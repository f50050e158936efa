"""Report serialization: deterministic JSON and CSV emission.

Energies overflow IEEE doubles long before they stop being interesting,
so every integer in a JSON report is rendered as a decimal string.
Rationals become "p/q" strings.  Keys are sorted and the byte stream
carries no volatile content (timing is opt-in), so identical runs emit
identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from fractions import Fraction
from typing import Any, Sequence

from .core import OrderedSet, format_element, unwritable_reason
from .engine import Spectrum
from .errors import InputError


def jsonable(value: Any) -> Any:
    """Recursively convert a report payload to JSON-safe primitives."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return format_element(value)
    if isinstance(value, str):
        return value
    if isinstance(value, OrderedSet):
        return [jsonable(x) for x in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def spectrum_csv(sp: Spectrum) -> str:
    """CSV rows (j, r_lo, r_hi, size) for the dyadic classes."""
    out = io.StringIO()
    out.write("j,r_lo,r_hi,size\n")
    for j, size in sp.classes:
        out.write(f"{j},{2**j},{2**(j+1)},{size}\n")
    return out.getvalue()


def rows_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(cell) for cell in row) + "\n")
    return out.getvalue()


def _csv_cell(cell: Any) -> str:
    if isinstance(cell, Fraction):
        return format_element(cell)
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    return h.hexdigest()


def check_destination(out_path: str | None) -> None:
    """Raise the InputError :func:`emit` would raise for ``out_path``
    when :func:`core.unwritable_reason` already knows it."""
    if out_path is None or out_path == "-":
        return
    reason = unwritable_reason(out_path)
    if reason is not None:
        raise InputError(f"cannot write {out_path!r}: {reason}")


def emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(
                f"cannot write {out_path!r}: {exc.strerror or exc}"
            ) from None
