"""Span nesting, self-time arithmetic (same thread and across threads), patching."""

import sys
import threading
import time
import types

import pytest

from perfbench.layers import CHILD_ONLY, COUNTERS, LayerProbe, compute_layer_metrics
from perfbench.spec import NOT_MEASURED, PER_LAYER
from perfbench.tracing import Patcher, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock, cpu_clock=clock)
    outer = tracer.begin("outer")
    clock.now = 1.0
    middle = tracer.begin("middle")
    clock.now = 2.0
    inner = tracer.begin("inner")
    clock.now = 5.0
    tracer.end(inner)  # 3 s, no children
    clock.now = 6.0
    tracer.end(middle)  # 5 s, 3 s of it in inner
    clock.now = 7.0
    sibling = tracer.begin("middle")
    clock.now = 9.0
    tracer.end(sibling)  # 2 s
    clock.now = 10.0
    tracer.end(outer)  # 10 s, 5 + 2 s in its two direct children

    spans = {(span.name, span.start): span for span in tracer.spans}
    assert spans[("inner", 2.0)].self_seconds == 3.0
    assert spans[("middle", 1.0)].seconds == 5.0
    assert spans[("middle", 1.0)].self_seconds == 2.0
    assert spans[("middle", 7.0)].self_seconds == 2.0
    assert spans[("outer", 0.0)].self_seconds == 3.0
    assert spans[("outer", 0.0)].self_cpu_seconds == 3.0
    assert spans[("middle", 1.0)].self_cpu_seconds == 2.0
    assert spans[("inner", 2.0)].parent_id == spans[("middle", 1.0)].span_id
    assert spans[("outer", 0.0)].parent_id == 0
    # Self times partition the root span exactly.
    assert sum(span.self_seconds for span in tracer.spans) == spans[("outer", 0.0)].seconds


def test_spans_on_another_thread_are_not_children():
    clock = FakeClock()
    tracer = Tracer(clock, cpu_clock=clock)
    opened = threading.Event()
    finished = threading.Event()

    def worker() -> None:
        opened.wait(5)
        frame = tracer.begin("worker")
        clock.now = 4.0
        tracer.end(frame)
        finished.set()

    thread = threading.Thread(target=worker)
    thread.start()
    outer = tracer.begin("caller")
    clock.now = 1.0
    opened.set()
    assert finished.wait(5)
    clock.now = 6.0
    tracer.end(outer)
    thread.join(5)
    assert not thread.is_alive()

    caller = next(span for span in tracer.spans if span.name == "caller")
    worker_span = next(span for span in tracer.spans if span.name == "worker")
    assert worker_span.parent_id == 0
    assert worker_span.thread != caller.thread
    assert caller.child_seconds == caller.child_cpu_seconds == 0.0
    assert caller.self_seconds == 6.0
    assert worker_span.self_seconds == 3.0


def test_concurrent_threads_keep_separate_stacks():
    tracer = Tracer()
    errors = []

    def work(name: str) -> None:
        try:
            for _ in range(200):
                outer = tracer.begin(name)
                inner = tracer.begin(name + ".inner")
                tracer.end(inner)
                tracer.end(outer)
        except RuntimeError as error:  # an interleaved stack would close out of order
            errors.append(error)

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name.endswith(".inner"):
            parent = by_id[span.parent_id]
            assert parent.name + ".inner" == span.name
            assert parent.thread == span.thread


def test_cpu_time_leaves_out_waiting():
    tracer = Tracer()
    frame = tracer.begin("waits")
    time.sleep(0.05)
    span = tracer.end(frame)
    assert span.seconds >= 0.05
    assert span.cpu_seconds < 0.025


def test_closing_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_counters_do_not_lose_updates_across_threads():
    tracer = Tracer()
    counted = tracer.counted("hot", lambda: None)

    def call_many() -> None:
        for _ in range(2000):
            counted()

    threads = [threading.Thread(target=call_many) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert tracer.counts()["hot"] == 8000


def test_patcher_replaces_every_lookup_site_and_restores():
    defining = types.ModuleType("fakepkg.defs")
    importing = types.ModuleType("fakepkg.user")

    def target(x):
        return x + 1

    defining.target = target
    importing.target = target  # as after ``from fakepkg.defs import target``
    sys.modules.update(
        {
            "fakepkg": types.ModuleType("fakepkg"),
            "fakepkg.defs": defining,
            "fakepkg.user": importing,
        }
    )
    try:
        tracer = Tracer()
        patcher = Patcher("fakepkg")
        replaced = patcher.function("fakepkg.defs", "target", lambda fn: tracer.timed("t", fn))
        assert replaced == 2
        assert importing.target(1) == 2 and defining.target(2) == 3
        assert len(tracer.spans) == 2
        patcher.restore()
        assert importing.target is target and defining.target is target
    finally:
        for name in ("fakepkg", "fakepkg.defs", "fakepkg.user"):
            sys.modules.pop(name, None)


def _layer_values(transport: str) -> dict:
    zero = dict.fromkeys(COUNTERS, 0.0)
    return compute_layer_metrics(
        LayerProbe(),
        queries=10,
        counters_before=zero,
        counters_after=zero,
        admission_delta={"rejected": 0, "shed": 0, "lost": 0},
        transport=transport,
        preprocess_builds=0,
        lags_ms=[],
        overhead_ratio=1.0,
    )


def test_layer_metrics_cover_the_spec_and_mark_child_only_layers():
    local = _layer_values("local")
    remote = _layer_values("tcp")
    names = [metric.name for metric in PER_LAYER]
    assert sorted(local) == sorted(names) == sorted(remote)
    assert CHILD_ONLY <= set(names)
    assert all(remote[name] == NOT_MEASURED for name in CHILD_ONLY)
    # A layer that ran but was never called reads zero, not "not measured".
    assert local["wire.encode_ms_per_query"] == 0.0
    assert local["journal.append_ms_per_query"] == 0.0
    assert local["router.route_calls"] == 0.0
    # A median of no samples is "not measured".
    assert local["client.submit_ms_p50"] == NOT_MEASURED


def test_probe_installs_and_restores_the_program_functions():
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.core import router
    from repro.kernels import batched

    originals = (ClusterCoordinator.submit, router.solve_task3_many, batched.disperse_many_numpy)
    probe = LayerProbe()
    probe.install()
    try:
        assert ClusterCoordinator.submit is not originals[0]
        assert router.solve_task3_many is not originals[1]
        assert batched.disperse_many_numpy is not originals[2]
    finally:
        probe.restore()
    assert (ClusterCoordinator.submit, router.solve_task3_many, batched.disperse_many_numpy) == (
        originals
    )
