"""Tests of the benchmark's own arithmetic and layer wrappers."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from bench_e2e import layers
from bench_e2e.hostspeed import REFERENCE_S, HostClock
from bench_e2e.layers import Layer, Span, Target, Tracer, attribute_self_time
from bench_e2e.stats import (
    Counts,
    CycleDispenser,
    median,
    percentile,
    reportable_percentile,
    whole_cycle_limit,
)


# ----------------------------------------------------------------------
# Percentile rule: a tail percentile needs ten samples beyond it.
def test_p90_needs_ten_samples_beyond_it():
    assert reportable_percentile(list(range(99)), 90) is None
    assert reportable_percentile(list(range(1, 101)), 90) == 90
    assert reportable_percentile(list(range(1, 1000)), 99) is None
    assert reportable_percentile(list(range(1, 1001)), 99) == 990


def test_median_and_nearest_rank_percentile():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 100) == 5
    with pytest.raises(ValueError):
        median([])


# ----------------------------------------------------------------------
# Failures and refusals count against attempts.
def test_failed_and_refused_tasks_count_against_attempts():
    counts = Counts()
    counts.job(8, 0)
    counts.job(8, 1)
    counts.refused(1, "429 throttled")
    assert (counts.attempted, counts.failed) == (17, 2)
    assert counts.failure_ratio == pytest.approx(2 / 17)
    assert counts.reasons == ["refused: 429 throttled"]


def test_a_job_failing_a_check_fails_all_its_tasks():
    counts = Counts()
    counts.job(6, 0, ["report differs"])
    counts.job(6, 0)
    assert (counts.attempted, counts.failed) == (12, 6)
    counts.fail_all("pinned check")
    assert counts.failed == counts.attempted == 12
    assert Counts().failure_ratio == 0.0


# ----------------------------------------------------------------------
# Self-time arithmetic: self times + unaccounted = traced wall.
def _span(layer, start, end, parent=None, kind="work", thread=1):
    return Span(layer=layer, op="call", kind=kind, thread=thread, start=start,
                parent=parent, end=end)


def test_self_time_excludes_children_and_sums_to_wall():
    spans = [
        _span("gnn.trainer", 1.0, 5.0),
        _span("gnn.model", 2.0, 3.0, parent=0),
        _span("gnn.model", 3.5, 4.0, parent=0),
        _span("core.postprocess", 6.0, 7.0),
    ]
    own, unaccounted = attribute_self_time(spans, 0.0, 8.0)
    assert own == pytest.approx([2.5, 1.0, 0.5, 1.0])
    assert unaccounted == pytest.approx(3.0)
    assert sum(own) + unaccounted == pytest.approx(8.0)


def test_scope_spans_are_transparent_and_waits_excluded():
    spans = [
        _span("service.worker", 0.0, 10.0),
        _span("runner.executor", 1.0, 9.0, parent=0, kind="scope"),
        _span("core.postprocess", 2.0, 4.0, parent=1),
        _span("service.client", 0.0, 10.0, kind="wait", thread=2),
    ]
    own, unaccounted = attribute_self_time(spans, 0.0, 12.0)
    assert own == pytest.approx([8.0, 0.0, 2.0, 0.0])
    assert unaccounted == pytest.approx(2.0)


def test_overlapping_threads_split_time_equally():
    spans = [
        _span("service.worker", 0.0, 4.0, thread=1),
        _span("service.client", 2.0, 6.0, thread=2),
    ]
    own, unaccounted = attribute_self_time(spans, 0.0, 6.0)
    assert own == pytest.approx([3.0, 3.0])
    assert unaccounted == pytest.approx(0.0)
    assert sum(own) + unaccounted == pytest.approx(6.0)


def test_summarise_reports_every_layer_and_the_remainder():
    spans = [
        _span("runner.executor", 0.0, 4.0, kind="scope"),
        _span("gnn.model", 1.0, 2.0, parent=0),
    ]
    spans[0].info.update(tasks=2.0, busy_s=3.5, queue_wait_s=0.0, failed=0.0)
    metrics, by_layer, unaccounted = layers.summarise(spans, 0.0, 5.0)
    assert metrics["gnn.model.calls"] == 1.0
    assert metrics["gnn.trainer.calls"] == 0.0
    assert metrics["runner.executor.tasks"] == 2.0
    assert sum(by_layer.values()) + unaccounted == pytest.approx(5.0)


# ----------------------------------------------------------------------
# Whole-cycle job mix of a window.
def test_whole_cycle_limit_rounds_up_to_a_cycle():
    assert [whole_cycle_limit(n, 4) for n in (1, 4, 5, 8, 9)] == [4, 4, 8, 8, 12]
    with pytest.raises(ValueError):
        whole_cycle_limit(3, 0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_window_closes_on_a_whole_cycle():
    clock = _Clock()
    dispenser = CycleDispenser(cycle=4, seconds=10.0, clock=clock)
    issued = []
    while True:
        index = dispenser.next()
        if index is None:
            break
        issued.append(index)
        clock.now += 1.5  # the clock runs out after job 6 of a 4-job cycle
    assert issued == list(range(8))
    targets = [index % 4 for index in issued]
    assert all(targets.count(t) == 2 for t in range(4))


def test_window_with_a_job_count_and_concurrent_clients():
    dispenser = CycleDispenser(cycle=4, seconds=0.0, jobs=12)
    seen, lock = [], threading.Lock()

    def client():
        while (index := dispenser.next()) is not None:
            with lock:
                seen.append(index)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(seen) == list(range(12))
    assert CycleDispenser(cycle=3, seconds=0.0).next() == 0  # always >= 1 cycle


def test_between_cycles_runs_with_no_job_in_flight():
    """Two closed-loop clients; the hook runs only once every job finished."""
    in_flight, calls, lock = [0], [], threading.Lock()

    def between():
        calls.append(in_flight[0])

    dispenser = CycleDispenser(cycle=4, seconds=0.0, jobs=12, between_cycles=between)

    def client():
        while (index := dispenser.next()) is not None:
            with lock:
                in_flight[0] += 1
            time.sleep(0.001)
            with lock:
                in_flight[0] -= 1
            dispenser.finished()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == [0, 0]  # before jobs 4 and 8, never before job 0
    assert dispenser.issued == dispenser.done == 12


# ----------------------------------------------------------------------
# Host-speed probes: stretches between probes scale by the probes' speed.
def test_reference_seconds_scale_each_stretch_by_its_probes():
    clock = _Clock()
    kernel_s = iter([0.005, 0.005, 0.005, 0.010, 0.010, 0.010, 0.010, 0.010, 0.010])

    def work():
        clock.now += next(kernel_s)

    host = HostClock(clock=clock, work=work)
    host.probe()  # 0.000-0.015: kernel 5 ms
    clock.now += 1.0
    host.probe()  # 1.015-1.045: kernel 10 ms
    clock.now += 2.0
    host.probe()  # 3.045-3.075: kernel 10 ms
    assert host.wall_s(0.0, 4.0) == pytest.approx(3.0)
    # 1 s at the mean of 5 and 10 ms, then 2 s at 10 ms per 5 ms reference.
    expected = 1.0 * REFERENCE_S / 0.0075 + 2.0 * REFERENCE_S / 0.010
    assert host.reference_s(0.0, 4.0) == pytest.approx(expected)
    assert host.reference_s(2.045, 3.045) == pytest.approx(1.0 * REFERENCE_S / 0.010)
    assert host.median_kernel_s() == pytest.approx(0.010)


# ----------------------------------------------------------------------
# Layer wrappers survive refactors: a missing target is "unmeasured".
def test_missing_target_is_reported_unmeasured(monkeypatch):
    import repro.core.postprocess as postprocess

    monkeypatch.delattr(postprocess, "postprocess_predictions")
    tracer = Tracer()
    uninstall, unmeasured = layers.install(tracer)
    try:
        assert unmeasured == ["repro.core.postprocess.postprocess_predictions"]
    finally:
        uninstall()
    # Nothing stays wrapped, in any module or class, once uninstalled.
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()) + [
                attr
                for cls in vars(module).values()
                if isinstance(cls, type)
                for attr in vars(cls).values()
            ]:
                assert getattr(value, "__qualname__", "") != "_make_wrapper.<locals>.wrapper"


def test_install_wraps_every_binding_and_uninstall_restores():
    import repro.core.attack as attack
    import repro.core.removal as removal

    original = removal.remove_protection_logic
    tracer = Tracer()
    only = (Layer("core.removal", (Target("repro.core.removal.remove_protection_logic"),)),)
    uninstall, unmeasured = layers.install(tracer, only)
    try:
        assert unmeasured == []
        assert attack.remove_protection_logic is removal.remove_protection_logic
        assert removal.remove_protection_logic is not original
        tracer.active = True
        with pytest.raises(Exception):
            attack.remove_protection_logic(None, {})
        tracer.active = False
    finally:
        uninstall()
    assert attack.remove_protection_logic is original
    assert removal.remove_protection_logic is original
    [span] = tracer.spans
    assert (span.layer, span.failed) == ("core.removal", True)


def test_resolve_walks_classes_and_rejects_missing_names():
    owner, attr, fn = layers.resolve("repro.runner.cache.ArtifactCache.get")
    assert (owner.__name__, attr) == ("ArtifactCache", "get")
    with pytest.raises(LookupError):
        layers.resolve("repro.runner.cache.ArtifactCache.no_such_method")
    with pytest.raises(LookupError):
        layers.resolve("repro.no_such_module.fn")


# ----------------------------------------------------------------------
# Every campaign job starts from the process state of a fresh `repro run`.
def test_cold_process_memos_empties_memos_and_skips_missing(monkeypatch):
    from repro.benchgen import registry
    from repro.sat import tseitin

    from bench_e2e import workloads

    registry.get_benchmark("c2670")
    tseitin._TEMPLATE_CACHE[b"marker"] = None
    assert registry._build.cache_info().currsize > 0
    workloads.cold_process_memos()
    assert registry._build.cache_info().currsize == 0
    assert b"marker" not in tseitin._TEMPLATE_CACHE

    monkeypatch.setattr(
        workloads, "PROCESS_MEMOS", workloads.PROCESS_MEMOS + ("repro.sat.no_such_memo.clear",)
    )
    workloads.cold_process_memos()
