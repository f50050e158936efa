"""Report serialization: deterministic JSON and CSV emission.

Energies overflow IEEE doubles long before they stop being interesting,
so every integer in a JSON report is rendered as a decimal string.
Rationals become "p/q" strings.  Keys are sorted and the byte stream
carries no volatile content (timing is opt-in), so identical runs emit
identical bytes.  A CSV row is one format string of its cells' ``str``,
none quoted.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import Any, Sequence

from .core import OrderedSet, format_element
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
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a NamedTuple
        return jsonable(value._asdict())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


# render_json's encoder.  Given an indent, ``json`` encodes in Python and
# holds every chunk it yields until it joins them.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def render_json(payload: dict) -> str:
    try:
        return _ENCODER.encode(jsonable(payload)) + "\n"
    except ValueError as exc:  # an int past the caller's int/str digit limit
        raise InputError(str(exc)) from None


def rendered_copies(k: int, item: dict) -> int:
    """An upper bound on the bytes that k copies of the flat dict ``item``
    in a list field of a report add to the peak of :func:`render_json`,
    sized on this interpreter.  The peak comes as ``json`` joins its
    chunks, holding the ``jsonable`` tree and every chunk at once.  Per
    copy: its ``jsonable`` dict and the strings made for it, the chunks
    it encodes to that other copies do not share, a slot for each of them
    and for the copy in their lists (8 bytes and at most an eighth more
    as a list grows) and its characters in the joined text, one byte each
    (``json`` escapes any other as ASCII)."""

    def held(n: int) -> tuple[int, int]:
        tree = jsonable({"copies": [item] * n})
        chunks = list(_ENCODER.iterencode(tree))
        made = {id(x): x for copy in tree["copies"] for x in (copy, *copy.values())}
        made.update((id(x), x) for x in chunks)
        text = sum(map(len, chunks))
        return sum(map(sys.getsizeof, made.values())) + text, len(chunks)

    (two, two_chunks), (three, three_chunks) = held(2), held(3)
    return k * (three - two + 9 * (three_chunks - two_chunks + 1))


def spectrum_csv(sp: Spectrum) -> str:
    """CSV rows (j, r_lo, r_hi, size) for the dyadic classes."""
    return rows_csv(
        ("j", "r_lo", "r_hi", "size"),
        [(j, 2**j, 2 ** (j + 1), size) for j, size in sp.classes],
    )


def rows_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """One CSV line per row, each cell its ``str``: for a Fraction that is
    ``format_element``'s "p/q" (an int when the denominator is 1), for a
    float its shortest round-trip repr.  Each row, a list or any tuple, is
    rendered by one ``%s`` format string, not by ``csv.writer``: no report
    cell holds a comma, a quote or a newline, so no cell is quoted."""
    line = ",".join(["%s"] * len(header)) + "\n"
    try:
        return "".join([line % tuple(header), *[line % tuple(row) for row in rows]])
    except ValueError as exc:  # an int past the caller's int/str digit limit
        raise InputError(str(exc)) from None


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    return h.hexdigest()


def cannot_write(out_path: str | None, exc: OSError) -> InputError:
    """The one wording of a failed write, to ``out_path`` or, when it is
    None, to stdout."""
    where = "to stdout" if out_path is None else repr(out_path)
    return InputError(f"cannot write {where}: {exc.strerror or exc}")


def check_destination(out_path: str | None) -> None:
    """Raise, before any work, the InputError :func:`emit` would raise
    for ``out_path``, by asking the OS.  None is stdout, which fails only
    when the process started with it closed (``sys.stdout`` is None).

    A missing path is created with ``open(path, "x")`` and removed
    again.  A dangling symlink is opened for appending, as :func:`emit`
    would write through it, and the target this creates is removed
    again.  An existing regular file or directory is opened for
    appending, so nothing is truncated.  Any other existing file (a
    FIFO, ``/dev/null``) is left to :func:`emit`, so that it is opened
    only once.
    """
    if out_path is None:
        if sys.stdout is None:
            raise cannot_write(None, OSError(errno.EBADF, os.strerror(errno.EBADF)))
        return
    try:
        if not os.path.lexists(out_path):
            open(out_path, "x").close()
            os.remove(out_path)
        elif not os.path.exists(out_path):  # a dangling symlink
            open(out_path, "a").close()
            os.remove(os.path.realpath(out_path))
        elif os.path.isfile(out_path) or os.path.isdir(out_path):
            open(out_path, "a").close()
    except OSError as exc:
        raise cannot_write(out_path, exc) from None


def emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to stdout when ``out_path`` is None, else replace
    the file at ``out_path`` with it.  This is the only writer of
    reports and set files; a failed open or write raises the same
    InputError as :func:`check_destination`."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise cannot_write(out_path, exc) from None
