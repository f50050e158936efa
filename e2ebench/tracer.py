"""Outside-in per-layer tracing of `sumsetlab` by wrapping its functions.

The tracer replaces public (and a few planner-private) functions of the
program with timing wrappers.  Modules bind names at import (``engine``
imports ``convolve`` from ``core``, ``luckypairs`` imports
``representation``), so every module attribute that holds the original
function is replaced, not just the defining one.  Constructors are wrapped
on the class.  A target that no longer exists is reported as missing and
its metrics read 0; it never stops the run.

Spans nest: a layer's self time is its span time minus the time of the
spans it encloses.  A function re-entered while its own span is open
(``_rep_mitm`` recursion, ``read_set`` on a path) is not timed again.
Spans are aggregated per layer name in memory; nothing is written until
the run ends.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

def _pairs(t, a, k, r):
    t.counts["kernels.convolve_integer.pairs"] += len(a[0]) * len(a[2])
    t.counts["kernels.convolve_integer.out_entries"] += len(r[0])


def _dense_cells(t, a, k, r):
    # One fold adds the running count array (length = span so far) once per
    # element of the next set: read source, read and write destination,
    # 8 bytes each.  Bytes are computed from the shapes, not measured.
    sets = a[0]
    span = sets[0][-1] - sets[0][0] + 1
    cells = 0
    for A in sets[1:]:
        cells += len(A) * span
        span += A[-1] - A[0]
    t.counts["engine.dense.cells"] += cells
    t.counts["engine.dense.bytes_computed"] += 24 * cells


def _sparse_entries(t, a, k, r):
    t.counts["core.SparseCounts.entries"] += len(a[1])


def _set_entries(t, a, k, r):
    # a[0] is the initialised set: the argument may have been a one-shot
    # iterable, so count what was stored.
    t.counts["core.OrderedSet.entries"] += len(a[0])


def _convolve_pairs(t, a, k, r):
    t.counts["core.convolve.pairs"] += len(a[0]) * len(a[1])


def _read_elements(t, a, k, r):
    t.counts["core.read_set.elements"] += len(r)


def _emitted(t, a, k, r):
    t.counts["reporting.bytes"] += len(a[0].encode())


def _representation_key(t, a, k, r):
    sets = tuple(a[0] if a else k["sets"])
    signs = k.get("signs")
    if signs is None:
        signs = (1,) * len(sets)
    elif isinstance(signs, str):
        signs = tuple(-1 if ch in "-−" else 1 for ch in signs)
    else:
        signs = tuple(int(s) for s in signs)
    t.distinct_keys.add((sets, signs))


# (layer, module, attribute, counter).  counter(tracer, args, kwargs, result)
# runs after the call and adds the layer's work counts.  Several targets may
# share one layer name.
TARGETS = (
    ("kernels.convolve_integer", "kernels", "convolve_integer", _pairs),
    ("engine.dense", "engine", "_rep_dense", _dense_cells),
    ("engine.algo.mitm", "engine", "_rep_mitm", None),
    ("engine.algo.naive", "engine", "_rep_naive", None),
    ("engine.plan", "engine", "_plan_naive", None),
    ("engine.plan", "engine", "_plan_mitm", None),
    ("engine.plan", "engine", "_plan_dense", None),
    ("engine.representation", "engine", "representation", _representation_key),
    ("engine.reduce", "engine", "spectrum_of", None),
    ("engine.reduce", "engine", "rich_tail", None),
    ("engine.reduce", "engine", "popular_dyadic_class", None),
    ("core.SparseCounts", "core", "SparseCounts.__init__", _sparse_entries),
    ("core.OrderedSet", "core", "OrderedSet.__init__", _set_entries),
    ("core.convolve", "core", "convolve", _convolve_pairs),
    ("core.reduce", "core", "mass_of_squares", None),
    ("core.reduce", "core", "moment_sum", None),
    ("core.read_set", "core", "read_set", _read_elements),
    ("luckypairs.solution_tuples", "luckypairs", "solution_tuples", None),
    ("luckypairs.build_partition", "luckypairs", "build_partition", None),
    ("luckypairs.census", "luckypairs", "lucky_census", None),
    ("convexity.evaluate", "convexity", "evaluate", None),
    ("convexity.convexity_order", "convexity", "convexity_order", None),
    ("families.generate", "families", "generate", None),
    ("bounds", "bounds", "verify_bound", None),
    ("bounds", "bounds", "heuristic_tail_report", None),
    ("bounds", "bounds", "fit_exponent", None),
    ("reporting.render", "reporting", "render_json", None),
    ("reporting.render", "reporting", "rows_csv", None),
    ("reporting.render", "reporting", "spectrum_csv", None),
    ("reporting.render", "reporting", "emit", _emitted),
)

PACKAGE = "sumsetlab"


class Tracer:
    """Span aggregation per layer plus exact work counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.distinct_keys: set = set()
        self.distinct_total = 0
        self._open: set[str] = set()
        self._stack: list[list[float]] = []

    # -- span recording ---------------------------------------------------

    def wrap(self, layer: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            if layer in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(layer)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer._open.discard(layer)
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer.total[layer] += elapsed
                tracer.self_time[layer] += elapsed - frame[0]
                tracer.calls[layer] += 1
            try:
                if counter is not None:
                    counter(tracer, args, kwargs, result)
            except (TypeError, IndexError, KeyError, AttributeError):
                # The target's signature changed: keep timing, drop the count.
                if f"{layer} (counter)" not in tracer.missing:
                    tracer.missing.append(f"{layer} (counter)")
            return result

        traced.__wrapped__ = fn
        return traced

    def command(self, run, argv):
        """Run one CLI command as the root span ``cli``."""
        self.distinct_keys.clear()
        try:
            return self.wrap("cli", run)(argv)
        finally:
            self.distinct_total += len(self.distinct_keys)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, module, attr, counter in TARGETS:
            target = f"{PACKAGE}.{module}.{attr}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.missing.append(target)
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None or (owner_name and name not in vars(owner)):
                self.missing.append(target)
                continue
            wrapped = self.wrap(layer, fn, counter)
            if owner_name:
                setattr(owner, name, wrapped)
                continue
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (seconds and counts over the run)."""
        out: dict[str, float] = {}
        for layer in (
            "kernels.convolve_integer", "engine.dense", "core.SparseCounts",
            "core.OrderedSet", "engine.plan", "core.convolve", "core.reduce",
            "engine.reduce", "luckypairs.solution_tuples",
            "luckypairs.build_partition", "luckypairs.census",
            "convexity.evaluate", "families.generate", "core.read_set",
            "convexity.convexity_order", "bounds", "reporting.render",
        ):
            out[f"{layer}.s"] = self.self_time.get(layer, 0.0)
        for name in (
            "kernels.convolve_integer.pairs", "kernels.convolve_integer.out_entries",
            "engine.dense.cells", "engine.dense.bytes_computed",
            "core.SparseCounts.entries", "core.OrderedSet.entries",
            "core.convolve.pairs", "core.read_set.elements", "reporting.bytes",
        ):
            out[name] = self.counts.get(name, 0)
        for layer in (
            "luckypairs.solution_tuples", "convexity.evaluate",
            "families.generate", "engine.representation",
        ):
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        calls = out["engine.representation.calls"]
        out["engine.representation.distinct"] = self.distinct_total
        out["engine.representation.useful_frac"] = (
            self.distinct_total / calls if calls else 1.0
        )
        out["engine.algo.mitm"] = self.calls.get("engine.algo.mitm", 0)
        out["engine.algo.dense"] = self.calls.get("engine.dense", 0)
        out["engine.algo.naive"] = self.calls.get("engine.algo.naive", 0)
        cli_total = self.total.get("cli", 0.0)
        out["cli.self.s"] = self.self_time.get("cli", 0.0)
        out["trace.coverage_frac"] = (
            1.0 - out["cli.self.s"] / cli_total if cli_total else 0.0
        )
        out["trace.missing_hooks"] = len(self.missing)
        return out
