"""Every function the benchmark's tracer wraps exists under its name.

``e2ebench/tracer.py`` replaces module attributes by name and reports a
missing one only as ``trace.missing_hooks`` in a traced benchmark run.
Loading its target table here makes a rename fail the tests instead.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"
_tracer = runpy.run_path(str(TRACER))
PACKAGE, TARGETS = _tracer["PACKAGE"], _tracer["TARGETS"]


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for _, module, attr, _ in TARGETS]
)
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        # The tracer wraps a method on the class that defines it.
        assert name in vars(owner), f"{module}.{attr}"
    assert callable(getattr(owner, name, None)), f"{module}.{attr}"


@pytest.mark.parametrize("read", ["reduced", "materialised"])
def test_every_dense_result_goes_through_the_traced_fold(monkeypatch, read):
    """The tracer counts ``engine.algo.dense`` and ``engine.dense.cells``
    from calls to ``engine._rep_dense(lists)``: every dense result, read
    as a spectrum or as tuples, must come from one such call with the
    signed int lists.  The hook is installed as the tracer installs it,
    by replacing the module attribute."""
    from sumsetlab import OrderedSet, engine, gen_random_s_convex
    from sumsetlab import representation
    from sumsetlab.engine import spectrum_of

    layer, _, _, counter = next(t for t in TARGETS if t[2] == "_rep_dense")
    tracer = _tracer["Tracer"]()
    seen = []
    fold = engine._rep_dense

    def spy(lists):
        seen.append(lists)
        return fold(lists)

    monkeypatch.setattr(engine, "_rep_dense", tracer.wrap(layer, spy, counter))
    A = gen_random_s_convex(24, 1, 3, 4)
    R = OrderedSet([-4, 0, 1, 9])
    # auto takes dense on [A]*4 and [A]*3, as on t4_dense and lucky_k3.
    cases = [([A] * 4, None, "auto"), ([A] * 3, None, "auto"),
             ([R, A, R], "+-+", "dense"), ([R], "-", "dense")]
    for sets, signs, algo in cases:
        rep = representation(sets, signs=signs, algo=algo)
        want = representation(sets, signs=signs, algo="mitm")
        if read == "reduced":
            assert spectrum_of(rep) == spectrum_of(want)
        else:
            assert list(rep.items()) == list(want.items())
    assert [list(map(list, lists)) for lists in seen] == [
        [
            sorted(e * x for x in S.elements)
            for S, e in zip(sets, engine.parse_signs(signs, len(sets)))
        ]
        for sets, signs, _ in cases
    ]
    metrics = tracer.metrics()
    assert metrics["engine.algo.dense"] == len(cases)
    # The cell counter read its arguments without error.
    assert metrics["trace.missing_hooks"] == 0
    assert metrics["engine.dense.cells"] > 0


def test_energy_of_a_multiset_root_goes_through_the_traced_mitm_row(monkeypatch):
    """The tracer counts ``engine.algo.mitm`` from calls to
    ``engine._rep_mitm``: energy of the benchmark's sparse T4 shape, one
    multiset root, must reach its class walk through one such call, and
    never build r_{4A} (``kernels.self_sum_counts``)."""
    from sumsetlab import energy_T, engine, gen_random_s_convex, kernels

    layer, _, _, counter = next(t for t in TARGETS if t[2] == "_rep_mitm")
    tracer = _tracer["Tracer"]()
    traced = tracer.wrap(layer, engine._rep_mitm, counter)
    monkeypatch.setattr(engine, "_rep_mitm", traced)

    def counts(*args):
        raise AssertionError("r_{4A} was built")

    monkeypatch.setattr(kernels, "self_sum_counts", counts)
    A = gen_random_s_convex(38, 3, 0, 64)
    assert energy_T([A] * 4) == 47002410
    metrics = tracer.metrics()
    assert metrics["engine.algo.mitm"] == 1
    assert metrics["engine.representation.calls"] == 0
    assert metrics["trace.missing_hooks"] == 0
