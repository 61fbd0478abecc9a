"""Campaign-level observability: rollups, traces, queue-wait timing, the
telemetry CLI verbs, lifetime cache counters — and the determinism guard
(telemetry on vs off never changes records or reports)."""

import json
import os
import time

import pytest

from conftest import TINY_BENCHMARKS, TINY_CONFIG

from repro.obs import (
    OBS_ENV,
    load_rollup,
    obs_dir_for_store,
    read_events_jsonl,
    trace_path,
)
from repro.runner import CampaignSpec, ResultStore, execute_task, run_campaign
from repro.runner.cache import ArtifactCache
from repro.runner.cli import main
from repro.runner.store import render_report

#: Record keys that legitimately differ between runs (timings, provenance).
_VOLATILE = (
    "wall_time_s", "queue_wait_s", "attack_time_s", "train_time_s", "cache",
    "recorded_at",
)


def _scrub(record):
    record = dict(record)
    for key in _VOLATILE:
        record.pop(key, None)
    return record


def _spec(name="obs-tiny", targets=("c2670", "c3540")):
    return CampaignSpec(
        name=name,
        schemes=("antisat",),
        benchmarks=TINY_BENCHMARKS,
        targets=tuple(targets),
        key_size_groups=((8,),),
        config=TINY_CONFIG,
    )


@pytest.fixture(scope="module")
def obs_campaign(tmp_path_factory):
    """One REPRO_OBS=1 serial campaign, shared by the assertions below."""
    root = tmp_path_factory.mktemp("obs-campaign")
    store = ResultStore(root / "obs-tiny.jsonl")
    tasks = _spec().expand()
    os.environ[OBS_ENV] = "1"
    try:
        results = run_campaign(
            tasks, serial=True, store=store, cache_dir=root / "cache"
        )
    finally:
        os.environ.pop(OBS_ENV, None)
    return store, tasks, results


class TestCampaignTelemetry:
    def test_rollup_and_trace_written_next_to_store(self, obs_campaign):
        store, tasks, results = obs_campaign
        assert [r.status for r in results] == ["ok", "ok"]
        obs_dir = obs_dir_for_store(store.path)
        rollup = load_rollup(obs_dir)
        assert rollup is not None
        assert rollup["merged_sidecars"] == len(tasks)
        for kind in ("dataset_generate", "dataset_build", "sampling", "train",
                     "train_epoch", "postprocess", "removal", "cache",
                     "queue_wait"):
            assert kind in rollup["spans"], f"missing span kind {kind}"
        # Sidecars were consumed into the rollup.
        assert not list((obs_dir / "pending").glob("*.json"))

    def test_trace_events_are_tagged_and_ordered(self, obs_campaign):
        store, tasks, _ = obs_campaign
        events = read_events_jsonl(trace_path(obs_dir_for_store(store.path)))
        assert len(events) >= 6
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)
        task_ids = {t.task_id for t in tasks}
        trained = [e for e in events if e["name"] == "train"]
        assert {e.get("task") for e in trained} == task_ids

    def test_rollup_metrics_hold_span_histogram_and_cache_counters(
        self, obs_campaign
    ):
        from repro.obs import MetricsRegistry, SPAN_SECONDS_METRIC

        store, tasks, _ = obs_campaign
        rollup = load_rollup(obs_dir_for_store(store.path))
        registry = MetricsRegistry()
        registry.merge(rollup["metrics"])
        assert registry.histogram_stats(SPAN_SECONDS_METRIC, span="train")[
            "count"
        ] == len(tasks)
        # Task 1 misses the shared dataset, task 2 hits it.
        assert registry.value(
            "repro_cache_events_total", kind="dataset", event="miss"
        ) == 1.0
        assert registry.value(
            "repro_cache_events_total", kind="dataset", event="hit"
        ) == 1.0

    def test_records_carry_queue_wait(self, obs_campaign):
        store, _, results = obs_campaign
        for record in store.load():
            assert record["queue_wait_s"] >= 0.0
        for result in results:
            assert result.queue_wait_s >= 0.0


class TestProcessPoolTelemetry:
    def test_worker_sidecars_merge_into_one_rollup(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "1")
        store = ResultStore(tmp_path / "pooled.jsonl")
        tasks = _spec("obs-pooled").expand()
        results = run_campaign(
            tasks, workers=2, store=store, cache_dir=tmp_path / "cache"
        )
        assert [r.status for r in results] == ["ok", "ok"]
        rollup = load_rollup(obs_dir_for_store(store.path))
        assert rollup["merged_sidecars"] == len(tasks)
        events = read_events_jsonl(trace_path(obs_dir_for_store(store.path)))
        # Worker-process spans line up on the driver's timeline.
        assert {e["name"] for e in events} >= {"train", "queue_wait"}
        assert all(e["ts"] > 0 for e in events)


class TestQueueWaitSemantics:
    def test_execute_task_measures_wait_from_submission(self, tmp_path):
        task = _spec("obs-wait", targets=("c2670",)).expand()[0]
        submitted = time.time() - 5.0
        result = execute_task(task, tmp_path / "cache", submitted_at=submitted)
        assert result.ok
        assert result.queue_wait_s >= 5.0
        # wall_time_s is the true runtime, not submission-to-finish.
        assert result.wall_time_s < result.queue_wait_s

    def test_no_submission_timestamp_means_zero_wait(self, tmp_path):
        task = _spec("obs-nowait", targets=("c2670",)).expand()[0]
        result = execute_task(task, tmp_path / "cache")
        assert result.ok
        assert result.queue_wait_s == 0.0


class TestDeterminismGuard:
    def test_telemetry_never_changes_records_or_reports(self, tmp_path, monkeypatch):
        tasks = _spec("obs-det").expand()
        monkeypatch.delenv(OBS_ENV, raising=False)
        plain_store = ResultStore(tmp_path / "plain.jsonl")
        run_campaign(
            tasks, serial=True, store=plain_store, cache_dir=tmp_path / "cache-a"
        )
        monkeypatch.setenv(OBS_ENV, "1")
        traced_store = ResultStore(tmp_path / "traced.jsonl")
        run_campaign(
            tasks, serial=True, store=traced_store, cache_dir=tmp_path / "cache-b"
        )
        plain = [_scrub(r) for r in plain_store.load()]
        traced = [_scrub(r) for r in traced_store.load()]
        assert plain == traced
        assert render_report(plain_store.load()) == render_report(
            traced_store.load()
        )
        # Telemetry lands next to the store, never inside it.
        assert obs_dir_for_store(traced_store.path).is_dir()
        assert not obs_dir_for_store(plain_store.path).exists()
        for record in traced_store.load():
            assert "trace" not in record and "spans" not in record

    def test_obs_off_produces_no_obs_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OBS_ENV, raising=False)
        store = ResultStore(tmp_path / "quiet.jsonl")
        run_campaign(
            _spec("obs-quiet", targets=("c2670",)).expand(),
            serial=True,
            store=store,
            cache_dir=tmp_path / "cache",
        )
        assert not obs_dir_for_store(store.path).exists()


class TestTelemetryCli:
    def test_trace_exports_chrome_json(self, obs_campaign, capsys):
        store, _, _ = obs_campaign
        out_path = store.path.parent / "export.chrome.json"
        assert main(["trace", "--store", str(store.path),
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and str(out_path) in out
        chrome = json.loads(out_path.read_text(encoding="utf-8"))
        assert chrome["traceEvents"]
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        names = {e["name"] for e in chrome["traceEvents"]}
        assert "train" in names

    def test_trace_default_output_and_stdout(self, obs_campaign, capsys):
        store, _, _ = obs_campaign
        assert main(["trace", "--store", str(store.path)]) == 0
        default_out = obs_dir_for_store(store.path) / "trace.chrome.json"
        assert default_out.is_file()
        capsys.readouterr()
        assert main(["trace", "--store", str(store.path), "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["traceEvents"]

    def test_trace_without_telemetry_fails_cleanly(self, tmp_path, capsys):
        store_path = tmp_path / "bare.jsonl"
        store_path.write_text("", encoding="utf-8")
        assert main(["trace", "--store", str(store_path)]) == 1
        assert "REPRO_OBS=1" in capsys.readouterr().err

    def test_report_timings_prints_phase_table(self, obs_campaign, capsys):
        store, _, _ = obs_campaign
        assert main(["report", "--store", str(store.path), "--timings"]) == 0
        out = capsys.readouterr().out
        assert "Phase" in out and "Share (%)" in out
        assert "train_epoch" in out

    def test_report_timings_without_rollup_fails(self, obs_campaign, tmp_path,
                                                 capsys):
        store, _, _ = obs_campaign
        bare = tmp_path / "bare.jsonl"
        bare.write_text(store.path.read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["report", "--store", str(bare), "--timings"]) == 1
        assert "REPRO_OBS=1" in capsys.readouterr().err


class TestLifetimeCacheCounters:
    def test_counters_survive_across_handles(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put("dataset", "a" * 64, {"x": 1})
        cache.get("dataset", "a" * 64)
        cache.get("dataset", "b" * 64)
        cache.flush_counters()
        fresh = ArtifactCache(root)
        counters = fresh.persistent_counters()
        assert counters["dataset"]["write"] == 1
        assert counters["dataset"]["hit"] == 1
        assert counters["dataset"]["miss"] == 1

    def test_gc_counts_evictions_and_flushes(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put("model", "a" * 64, {"x": 1})
        evicted = cache.gc(max_bytes=0)
        assert len(evicted) == 1
        assert ArtifactCache(root).persistent_counters()["model"]["evict"] == 1

    def test_dry_run_gc_counts_nothing(self, tmp_path):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put("model", "a" * 64, {"x": 1})
        cache.gc(max_bytes=0, dry_run=True)
        cache.flush_counters()
        assert "evict" not in ArtifactCache(root).persistent_counters().get(
            "model", {}
        )

    def test_disabled_cache_persists_nothing(self, tmp_path):
        cache = ArtifactCache(None)
        cache.get("dataset", "a" * 64)
        cache.flush_counters()
        assert cache.persistent_counters() == {}

    def test_cli_stats_shows_lifetime_counters(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put("dataset", "a" * 64, {"x": 1})
        cache.get("dataset", "a" * 64)
        cache.flush_counters()
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "lifetime counters:" in out
        assert "1 hit(s), 0 miss(es)" in out
        assert "100.0% hit rate" in out

    def test_campaign_flushes_counters_automatically(self, tmp_path):
        store = ResultStore(tmp_path / "flush.jsonl")
        run_campaign(
            _spec("obs-flush", targets=("c2670",)).expand(),
            serial=True,
            store=store,
            cache_dir=tmp_path / "cache",
        )
        counters = ArtifactCache(tmp_path / "cache").persistent_counters()
        assert counters["dataset"]["miss"] == 1
        assert counters["model"]["write"] == 1
