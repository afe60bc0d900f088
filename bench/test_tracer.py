"""Span bookkeeping of the traced run."""

from __future__ import annotations

import time
import types

from tracer import BOOKKEEPING, Tracer


def test_self_time_excludes_children_and_bookkeeping():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)

    def outer():
        ns.inner()
        time.sleep(0.01)

    ns.inner, ns.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner",
                lambda tr, args, kwargs, result: tr.counts.update(
                    [f"calls_from_{tr.current()}"]))
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    ns.outer()
    tracer.restore()

    assert ns.inner is inner and ns.outer is outer
    assert tracer.counts == {"calls_from_outer": 2}
    spans = tracer.summary()
    assert spans["outer"]["calls"] == spans["inner"]["calls"] == 2
    children = spans["inner"]["total_s"] + spans[BOOKKEEPING]["total_s"]
    assert abs(spans["outer"]["self_s"]
               - (spans["outer"]["total_s"] - children)) < 1e-9
    assert spans["outer"]["self_s"] >= 0.02
