"""Per-layer tracing for the traced benchmark run.

Each layer is named after its module and measured by wrapping that module's
public functions from outside the program: :func:`install` resolves every
target by dotted name and swaps a timing wrapper into each place the
function object is bound (``from x import f`` copies the binding, so the
defining module alone is not enough).  A target that no longer resolves is
reported as ``unmeasured`` instead of failing the run, so the benchmark
keeps working across refactors that rename or delete a function.

Spans record layer, operation, thread, start, end and parent, are kept in
memory and summarised when the run ends.  Three span kinds:

* ``work``  — the layer's own busy time; takes part in self-time accounting.
* ``scope`` — transparent: counted, but its time goes to its work children
  or to ``unaccounted`` (``run_campaign`` wraps the whole pipeline, so
  counting it as work would hide the unwrapped pipeline code).
* ``wait``  — blocking on another thread (``ServiceClient.wait``); reported
  as a duration, excluded from self-time accounting.

Self time is a work span's duration minus the time its work children
cover.  When work spans of several threads overlap (the service workload),
each instant of the traced wall is split equally among them, so the self
times of all layers plus ``unaccounted`` equal the traced wall exactly.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "Layer",
    "Span",
    "Target",
    "Tracer",
    "attribute_self_time",
    "install",
    "resolve",
    "summarise",
]


@dataclass(frozen=True)
class Target:
    """One wrapped callable of a layer."""

    dotted: str
    op: str = "call"
    kind: str = "work"


@dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]


@dataclass
class Span:
    layer: str
    op: str
    kind: str
    thread: int
    start: float
    parent: Optional[int]
    end: float = 0.0
    failed: bool = False
    info: Dict[str, float] = field(default_factory=dict)


def _t(dotted: str, op: str = "call", kind: str = "work") -> Target:
    return Target(dotted, op, kind)


#: Layer -> wrapped public functions.  The per-layer metrics derived from
#: these spans are listed in BENCHMARK.json's ``per_layer`` block.
LAYERS: Tuple[Layer, ...] = (
    Layer("runner.executor", (_t("repro.runner.executor.run_campaign", kind="scope"),)),
    Layer("core.generation", (_t("repro.runner.campaign.DatasetSpec.generate"),)),
    Layer("core.dataset", (_t("repro.runner.campaign.DatasetSpec.build"),)),
    Layer("gnn.trainer", (_t("repro.gnn.trainer.train_node_classifier"),)),
    Layer("gnn.model", (_t("repro.gnn.model.GraphSageClassifier.predict"),)),
    Layer("core.postprocess", (_t("repro.core.postprocess.postprocess_predictions"),)),
    Layer("core.removal", (_t("repro.core.removal.remove_protection_logic"),)),
    Layer("sat.equivalence", (_t("repro.sat.equivalence.check_equivalence"),)),
    Layer("baselines.sat_attack", (_t("repro.baselines.sat_attack.sat_attack"),)),
    Layer(
        "runner.cache",
        (
            _t("repro.runner.cache.ArtifactCache.get", "get"),
            _t("repro.runner.cache.ArtifactCache.put", "put"),
        ),
    ),
    Layer("runner.store", (_t("repro.runner.store.ResultStore.append"),)),
    Layer(
        "service.client",
        (
            _t("repro.service.client.ServiceClient.submit", "submit"),
            _t("repro.service.client.ServiceClient.wait", "wait", kind="wait"),
        ),
    ),
    Layer("service.worker", (_t("repro.service.worker.JobWorker.run_job"),)),
    Layer("warehouse", (_t("repro.service.api.CampaignService.ingest_job_store"),)),
)


# ----------------------------------------------------------------------
def resolve(dotted: str) -> Tuple[object, str, object]:
    """``(owner, attribute, value)`` for a dotted name; raises LookupError.

    The owner is the longest importable module prefix, then attributes are
    walked (``pkg.mod.Class.method`` resolves to ``(Class, "method", fn)``).
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            if not hasattr(owner, name):
                raise LookupError(dotted)
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise LookupError(dotted)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise LookupError(dotted)


class Tracer:
    """In-memory span recorder with a per-thread parent stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Wrappers pass straight through while inactive, so one install
        #: serves both the untraced twin and the traced window.
        self.active = False
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, target: Target, fn, args, kwargs, observe):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span = Span(
            layer=layer,
            op=target.op,
            kind=target.kind,
            thread=threading.get_ident(),
            start=self.clock(),
            parent=stack[-1] if stack else None,
        )
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            if observe is not None and not span.failed:
                span.info.update(observe(result, args))


def _observe_run_campaign(result, args) -> Dict[str, float]:
    return {
        "tasks": float(len(result)),
        "busy_s": float(sum(r.wall_time_s for r in result)),
        "queue_wait_s": float(sum(r.queue_wait_s for r in result)),
        "failed": float(sum(not r.ok for r in result)),
    }


def _observe_cache(result, args) -> Dict[str, float]:
    return {"hit": float(result is not None)}


def _observe_put(result, args) -> Dict[str, float]:
    size = Path(result).stat().st_size if result is not None else 0
    return {"bytes": float(size)}


def _observe_equivalence(result, args) -> Dict[str, float]:
    return {"equivalent": float(bool(result.equivalent))}


def _observe_sat_attack(result, args) -> Dict[str, float]:
    return {
        "iterations": float(result.statistics.get("iterations", 0)),
        "success": float(bool(result.success)),
    }


def _observe_ingest(result, args) -> Dict[str, float]:
    return {"records": float(result)}


_OBSERVERS: Dict[str, Callable] = {
    "repro.runner.executor.run_campaign": _observe_run_campaign,
    "repro.runner.cache.ArtifactCache.get": _observe_cache,
    "repro.runner.cache.ArtifactCache.put": _observe_put,
    "repro.sat.equivalence.check_equivalence": _observe_equivalence,
    "repro.baselines.sat_attack.sat_attack": _observe_sat_attack,
    "repro.service.api.CampaignService.ingest_job_store": _observe_ingest,
}


def _make_wrapper(tracer: Tracer, layer: str, target: Target, fn):
    observe = _OBSERVERS.get(target.dotted)

    def wrapper(*args, **kwargs):
        return tracer.call(layer, target, fn, args, kwargs, observe)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def install(
    tracer: Tracer, layers: Sequence[Layer] = LAYERS
) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every resolvable target; returns ``(uninstall, unmeasured)``.

    ``unmeasured`` lists the dotted names that did not resolve.  Module
    functions are replaced in every loaded ``repro`` module that binds the
    same object; methods are replaced on their class.
    """
    # Resolve (and so import) every target before patching any: a module
    # first imported mid-patch would bind a wrapper uninstall cannot see.
    resolved = []
    unmeasured: List[str] = []
    for layer in layers:
        for target in layer.targets:
            try:
                resolved.append((layer, target, resolve(target.dotted)))
            except LookupError:
                unmeasured.append(target.dotted)
    undo: List[Tuple[object, str, object]] = []
    for layer, target, (owner, attr, fn) in resolved:
        wrapper = _make_wrapper(tracer, layer.name, target, fn)
        if isinstance(owner, type):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            continue
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall, unmeasured


# ----------------------------------------------------------------------
def _work_parent(spans: Sequence[Span], index: int) -> Optional[int]:
    """Nearest enclosing *work* span (scope and wait spans are transparent)."""
    parent = spans[index].parent
    while parent is not None and spans[parent].kind != "work":
        parent = spans[parent].parent
    return parent


def attribute_self_time(
    spans: Sequence[Span], wall_start: float, wall_end: float
) -> Tuple[List[float], float]:
    """Self time per span (0 for non-work spans) and the unaccounted time.

    A work span's self intervals are its own interval minus its work
    children's intervals.  The traced wall ``[wall_start, wall_end]`` is
    swept once: every elementary segment is split equally among the self
    intervals covering it, or counted as unaccounted when none does.  So
    ``sum(self) + unaccounted == wall_end - wall_start``.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.kind != "work":
            continue
        parent = _work_parent(spans, index)
        if parent is not None:
            children.setdefault(parent, []).append(index)
    events: List[Tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        if span.kind != "work":
            continue
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c].start):
            if spans[child].start > cursor:
                events.append((cursor, 1, index))
                events.append((spans[child].start, -1, index))
            cursor = max(cursor, spans[child].end)
        if span.end > cursor:
            events.append((cursor, 1, index))
            events.append((span.end, -1, index))
    self_time = [0.0] * len(spans)
    unaccounted = 0.0
    active: Dict[int, int] = {}
    previous = wall_start
    for at, delta, index in sorted(events, key=lambda e: (e[0], e[1])):
        at = min(max(at, wall_start), wall_end)
        if at > previous:
            if active:
                share = (at - previous) / len(active)
                for span_index in active:
                    self_time[span_index] += share
            else:
                unaccounted += at - previous
            previous = at
        if delta > 0:
            active[index] = active.get(index, 0) + 1
        else:
            active[index] -= 1
            if not active[index]:
                del active[index]
    if wall_end > previous:
        unaccounted += wall_end - previous
    return self_time, unaccounted


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def summarise(
    spans: Sequence[Span], wall_start: float, wall_end: float
) -> Tuple[Dict[str, float], Dict[str, float], float]:
    """``(metrics, self_by_layer, unaccounted)`` for one traced window.

    ``metrics`` uses the flat ``<layer>.<metric>`` names of BENCHMARK.json;
    layers that made no call report zero counts and zero ratios.
    """
    self_time, unaccounted = attribute_self_time(spans, wall_start, wall_end)
    by_layer: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_layer.setdefault(span.layer, []).append(index)
    self_by_layer = {
        layer.name: float(sum(self_time[i] for i in by_layer.get(layer.name, ())))
        for layer in LAYERS
    }

    def select(layer: str, op: Optional[str] = None) -> List[Span]:
        return [
            spans[i]
            for i in by_layer.get(layer, ())
            if op is None or spans[i].op == op
        ]

    def op_self(layer: str, op: str) -> float:
        return float(
            sum(self_time[i] for i in by_layer.get(layer, ()) if spans[i].op == op)
        )

    def info_sum(selected: Sequence[Span], key: str) -> float:
        return float(sum(span.info.get(key, 0.0) for span in selected))

    metrics: Dict[str, float] = {}
    campaigns = select("runner.executor")
    for key in ("tasks", "busy_s", "queue_wait_s", "failed"):
        metrics[f"runner.executor.{key}"] = info_sum(campaigns, key)
    for name in (
        "core.generation", "core.dataset", "gnn.trainer", "gnn.model",
        "core.postprocess", "core.removal", "sat.equivalence",
        "baselines.sat_attack", "runner.store", "service.worker", "warehouse",
    ):
        metrics[f"{name}.calls"] = float(len(select(name)))
        metrics[f"{name}.self_s"] = self_by_layer[name]
    metrics["core.removal.failed"] = float(
        sum(span.failed for span in select("core.removal"))
    )
    checks = select("sat.equivalence")
    metrics["sat.equivalence.equivalent_ratio"] = _ratio(
        info_sum(checks, "equivalent"), len(checks)
    )
    attacks = select("baselines.sat_attack")
    metrics["baselines.sat_attack.dip_iterations"] = info_sum(attacks, "iterations")
    metrics["baselines.sat_attack.success_ratio"] = _ratio(
        info_sum(attacks, "success"), len(attacks)
    )
    gets, puts = select("runner.cache", "get"), select("runner.cache", "put")
    metrics["runner.cache.get_calls"] = float(len(gets))
    metrics["runner.cache.get_hit_ratio"] = _ratio(info_sum(gets, "hit"), len(gets))
    metrics["runner.cache.get_s"] = op_self("runner.cache", "get")
    metrics["runner.cache.put_calls"] = float(len(puts))
    metrics["runner.cache.put_s"] = op_self("runner.cache", "put")
    metrics["runner.cache.put_bytes"] = info_sum(puts, "bytes")
    metrics["service.client.submit_s"] = op_self("service.client", "submit")
    metrics["service.client.wait_s"] = float(
        sum(s.end - s.start for s in select("service.client", "wait"))
    )
    metrics["warehouse.records"] = info_sum(select("warehouse"), "records")
    return metrics, self_by_layer, unaccounted
