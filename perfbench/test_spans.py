"""The span recorder: self time, request ids, restoring and absent entry points."""

from __future__ import annotations

import time

from spans import Target, Tracer, aggregate


class Layer:
    """A stand-in for a program layer: ``outer`` calls ``inner``."""

    def outer(self, plans: list) -> int:
        time.sleep(0.002)
        return self.inner(len(plans))

    def inner(self, n: int) -> int:
        time.sleep(0.004)
        return n

    @classmethod
    def build(cls) -> "Layer":
        return cls()


TARGETS = (
    Target("outer", __name__, "Layer", "outer"),
    Target("inner", __name__, "Layer", "inner"),
    Target("build", __name__, "Layer", "build"),
    Target("renamed", __name__, "Layer", "no_such_method"),
    Target("moved", "no_such_module_here", "Layer", "outer"),
)


def test_spans_nest_and_restore() -> None:
    original = Layer.__dict__["outer"]
    tracer = Tracer(TARGETS).install()
    try:
        tracer.set_request(7)
        layer = Layer.build()
        assert isinstance(layer, Layer)
        assert layer.outer([1, 2, 3]) == 3
    finally:
        tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    assert isinstance(Layer.__dict__["build"], classmethod)

    by_name = {span.name: span for span in tracer.spans}
    outer, inner = by_name["outer"], by_name["inner"]
    assert inner.parent is outer and outer.parent is None
    assert outer.request == inner.request == 7
    assert abs(outer.self_time - (outer.duration - inner.duration)) < 1e-9
    totals = aggregate(tracer.spans, outer.start, float("inf"))
    assert totals["outer"]["calls"] == 1 and totals["inner"]["calls"] == 1
    assert "build" not in totals  # opened before the window


def test_absent_entry_points_are_reported_not_raised() -> None:
    tracer = Tracer(TARGETS).install()
    tracer.uninstall()
    assert tracer.absent == ["renamed", "moved"]


def test_batch_spans_name_their_requests() -> None:
    target = Target("batch", __name__, "Layer", "outer", takes_plans=True)
    tracer = Tracer((target,)).install()
    plans = [object(), object(), object()]
    tracer.plan_requests = {id(plans[0]): 4, id(plans[1]): 2, id(plans[2]): 4}
    try:
        Layer().outer(plans)
    finally:
        tracer.uninstall()
    assert tracer.spans[0].request == (2, 4)
