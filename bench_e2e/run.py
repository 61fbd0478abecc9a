#!/usr/bin/env python3
"""End-to-end benchmark of the GNNUnlock reproduction.

Run from the repository root::

    python3 bench_e2e/run.py --workload campaign-cold-sat --seed 1 --seconds 50 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1      # every workload in turn

``--trace 0`` measures the end-to-end metrics with no tracing.  Timed
metrics, ``setup_s`` included, are given in reference-host seconds: the
host's speed is probed between stretches of work and each stretch is
scaled by it (see ``hostspeed.py``); the plain wall-clock figures are
printed beside them.  ``--trace 1``
runs an untraced twin window, then the same jobs again with every layer's
public functions wrapped (see ``layers.py``), and reports the per-layer
metrics, a self-time table whose rows plus ``unaccounted`` sum to the traced
wall, and the tracing overhead (traced minus twin).

Every run checks its outputs: every task must succeed, repeated jobs must
produce identical results, service reports must be byte-identical to the
same tasks run in-process, and the run's totals must equal the values
pinned for the seed in ``pinned.json``.  The summary line prints the run's
own values, so a new seed can be added to ``pinned.json`` by hand.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED = BENCH_DIR / "pinned.json"
HASH_SEED = "0"
NAMES = ("campaign-cold-sat", "service-warm-jobs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_hash_seed() -> None:
    """Re-exec with a fixed PYTHONHASHSEED.

    Set and dict iteration order steers the SAT solver's variable order and
    the post-processing walks, so a random hash seed alone moved one SAT
    attack by 40%.  One fixed ordering on every run leaves the workload
    seed as the only input that varies.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)


def run_all(args) -> int:
    """Run every workload in a child process; non-zero if any check failed."""
    code = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        command = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] = summary["correct"] and bool(result["correct"])
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
        code = code or child.returncode
    print(json.dumps(summary))
    return code


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs every job, or of its largest child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def check(workload, jobs, pinned_for_seed):
    """Consistency and pinned-value checks.

    Returns ``(failures, observed, state)``: the pinned values that did not
    match, the run's own values, and whether a pin was compared.
    """
    failures = []
    first = {}
    for job in jobs:
        slot = job.index % workload.cycle
        if job.observation is None:
            continue
        if slot not in first:
            first[slot] = job.observation
        elif job.observation != first[slot]:
            job.errors.append(f"job {job.index}: outcome differs from job {slot}")
    attacked = sum(job.attacked for job in jobs)
    observed = {
        "attack_success_rate": round(
            sum(job.successes for job in jobs) / attacked if attacked else 0.0, 9
        ),
    }
    accuracies = [acc for job in jobs for acc in job.post_accuracy]
    observed["post_accuracy"] = round(
        sum(accuracies) / len(accuracies) if accuracies else 0.0, 9
    )
    observed.update(workload.observed(jobs))
    if pinned_for_seed is None:
        return failures, observed, "none (self-consistency checks only)"
    for key, value in observed.items():
        if pinned_for_seed.get(key) != value:
            failures.append(f"{key} = {value}, pinned {pinned_for_seed.get(key)}")
    return failures, observed, "matched" if not failures else "MISMATCH"


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_hash_seed()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench_e2e.hostspeed import HostClock

    host = HostClock()
    host.probe()
    import_started = time.perf_counter()
    import repro.baselines  # noqa: F401 - every workload's imports, part of set-up
    import repro.runner  # noqa: F401
    import repro.service  # noqa: F401
    imported = (import_started, time.perf_counter())
    host.probe()

    from bench_e2e import layers
    from bench_e2e.host import host_block
    from bench_e2e.stats import Counts, median, reportable_percentile
    from bench_e2e.workloads import WORKLOADS

    print("host " + json.dumps(host_block(ROOT), sort_keys=True))
    tracer = layers.Tracer()
    uninstall, unmeasured = (
        layers.install(tracer) if args.trace else ((lambda: None), [])
    )
    workdir = ROOT / ".bench_build" / "bench_e2e" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, host)
    try:
        # Set-up: the import, which a process does once, plus the median of
        # the workload's set-up samples; in reference and in wall seconds.
        samples = workload.setup()
        setup_s, setup_wall_s = (
            measure(*imported) + median([measure(*sample) for sample in samples])
            for measure in (host.reference_s, host.wall_s)
        )
        timed, window = workload.run_window(
            args.seconds / 2 if args.trace else args.seconds
        )
        jobs = list(timed)
        if args.trace:
            traced, per_layer, self_by_layer = run_traced(
                workload, tracer, len(timed), window
            )
            jobs += traced
            per_layer["process.import_s"] = host.wall_s(*imported)
            per_layer["process.unmeasured_layers"] = float(len(unmeasured))
        workload.verify(jobs)
    finally:
        workload.close()
        uninstall()

    pinned_all = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    pinned = pinned_all.get(args.workload, {}).get(str(args.seed))
    failures, observed, pin_state = check(workload, jobs, pinned)

    counts = Counts()
    for job in jobs:
        if job.status == "refused":
            counts.refused(1, "; ".join(job.errors))
        else:
            counts.job(job.tasks_ok + job.tasks_failed, job.tasks_failed, job.errors)
    for failure in failures:
        counts.fail_all(f"pinned check: {failure}")
    for reason in counts.reasons:
        print(f"FAILED {reason}")
    attempted, failed = counts.attempted, counts.failed
    correct = failed == 0 and attempted > 0

    # Times are wall seconds outside host-speed probes, and the same
    # intervals in reference-host seconds (see hostspeed.py).
    latencies = [host.wall_s(job.started, job.ended) for job in timed]
    ref_latencies = [host.reference_s(job.started, job.ended) for job in timed]
    accuracies = [acc for job in jobs for acc in job.post_accuracy]
    ok_tasks = sum(job.tasks_ok for job in timed)
    n_jobs, n_tasks = len(latencies), sum(j.tasks_ok + j.tasks_failed for j in timed)
    wall = host.wall_s(*window)
    end_to_end = {
        "setup_s": (setup_s, "s", len(samples)),
        "tasks_per_ref_s": (ok_tasks / host.reference_s(*window), "1/ref_s", n_tasks),
        "job_latency_p50_ref_s": (median(ref_latencies), "ref_s", n_jobs),
        "attack_success_rate": (observed["attack_success_rate"], "ratio", sum(j.attacked for j in jobs)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{n_jobs} job(s), {n_tasks} task(s) in {wall:.3f} s; pinned: {pin_state}; "
          f"observed {json.dumps(observed, sort_keys=True)}")
    for name, (value, unit, n) in end_to_end.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    extra = {
        "setup_wall_s": (setup_wall_s, "s", len(samples)),
        "job_latency_p90_ref_s": (reportable_percentile(ref_latencies, 90), "ref_s", n_jobs),
        "tasks_per_s": (ok_tasks / wall, "1/s", n_tasks),
        "job_latency_p50_s": (median(latencies), "s", n_jobs),
        "job_latency_p90_s": (reportable_percentile(latencies, 90), "s", n_jobs),
        "host_kernel_s": (host.median_kernel_s(), "s", len(host.probes)),
        "post_accuracy": (observed["post_accuracy"], "ratio", len(accuracies)),
        "task_failure_ratio": (counts.failure_ratio, "ratio", attempted),
    }
    for name, (value, unit, n) in extra.items():
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        print(f"metric {name} = {shown} (n={n})")
    if args.trace:
        print_layer_table(per_layer, self_by_layer, unmeasured)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in per_layer.items()}
    else:
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in end_to_end.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_traced(workload, tracer, jobs: int, twin):
    """Re-run the twin window's jobs traced; returns (jobs, per_layer, self times).

    Pool workers are invisible to in-process wrappers, so every workload
    runs its campaigns in this process; the untraced twin window that ran
    just before (``twin``: its start and end) is the baseline for the
    tracing overhead, which is taken in reference seconds so that a change
    in the host's speed between the two windows does not show as overhead.
    """
    from bench_e2e import layers

    before = getattr(workload, "service_metrics", dict)()
    tracer.active = True
    traced, (started, ended) = workload.run_window(0.0, jobs=jobs)
    tracer.active = False
    after = getattr(workload, "service_metrics", dict)()
    per_layer, self_by_layer, unaccounted = layers.summarise(tracer.spans, started, ended)
    for key in ("queue_wait_s", "run_s"):
        per_layer[f"service.jobs.{key}"] = after.get(key, 0.0) - before.get(key, 0.0)
    per_layer["process.unaccounted_s"] = unaccounted
    per_layer["process.traced_wall_s"] = ended - started
    per_layer["process.twin_wall_s"] = twin[1] - twin[0]
    host = workload.host
    per_layer["process.tracing_overhead_s"] = (
        host.reference_s(started, ended) - host.reference_s(*twin)
    )
    per_layer["process.host_kernel_s"] = host.median_kernel_s()
    return traced, per_layer, self_by_layer


def unit_of(metric: str) -> str:
    tail = metric.rsplit(".", 1)[-1]
    if tail.endswith("_s"):
        return "s"
    if tail.endswith("_ratio"):
        return "ratio"
    if tail.endswith("_bytes"):
        return "bytes"
    return "count"


def print_layer_table(per_layer, self_by_layer, unmeasured) -> None:
    wall = per_layer["process.traced_wall_s"]
    print(f"layer table: traced wall {wall:.3f} s, untraced twin "
          f"{per_layer['process.twin_wall_s']:.3f} s, tracing overhead "
          f"{per_layer['process.tracing_overhead_s']:+.3f} ref_s")
    rows = sorted(self_by_layer.items(), key=lambda item: -item[1])
    rows.append(("unaccounted", per_layer["process.unaccounted_s"]))
    for name, seconds in rows:
        print(f"  {name:<22} {seconds:10.4f} s {100.0 * seconds / wall:6.2f} %")
    total = sum(seconds for _, seconds in rows)
    print(f"  {'total':<22} {total:10.4f} s {100.0 * total / wall:6.2f} %")
    for dotted in unmeasured:
        print(f"  unmeasured: {dotted}")
    for name, value in per_layer.items():
        print(f"layer {name} = {value:.6g} {unit_of(name)}")


if __name__ == "__main__":
    sys.exit(main())
