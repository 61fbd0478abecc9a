"""The benchmark workloads.

Every workload derives its inputs from the workload seed (the attack config
seed, hence every lock and every GNN seed) and runs *jobs*: one campaign on
``campaign-cold-sat``, one submit -> terminal-status round trip on
``service-warm-jobs``.  Jobs follow a fixed cyclic order and a window always
ends on a whole cycle, so the job mix of a run never depends on where the
clock ran out.

A workload also records, per job, an *observation*: the deterministic
outcome fields (accuracies, removal verdicts, DIP counts).  Jobs of the same
position in the cycle must observe identical values, and the run's totals
must equal the values pinned for the seed in ``pinned.json`` when the seed
is pinned there.

``repro run`` starts a new process for every campaign, so each campaign job
starts from the same process state: :func:`cold_process_memos` drops the
process-level memos before the job's clock starts.

Every window probes the host's speed (:class:`~bench_e2e.hostspeed.HostClock`)
before its first job, after its last, and between stretches of work while
nothing else runs: after every task of a campaign, and between the cycles
of the service's closed loop.
"""

from __future__ import annotations

import dataclasses
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .hostspeed import HostClock
from .stats import CycleDispenser

__all__ = ["Job", "PROCESS_MEMOS", "WORKLOADS", "Workload", "cold_process_memos"]


@dataclass
class Job:
    """Outcome of one job of a window."""

    index: int
    #: Clock readings at the job's start and end; host-speed probes taken
    #: in between are not part of the job (see ``hostspeed.py``).
    started: float
    ended: float
    tasks_ok: int
    tasks_failed: int
    #: Verified removals (or baseline successes) and attacked instances.
    successes: float = 0.0
    attacked: int = 0
    #: Post-processing accuracy per attacked task (GNNUnlock jobs only).
    post_accuracy: List[float] = field(default_factory=list)
    #: Deterministic outcome summary, compared across repeats of the job.
    observation: object = None
    errors: List[str] = field(default_factory=list)
    #: Service jobs only: the job id and terminal status.
    job_id: str = ""
    status: str = ""


class Workload:
    """Base class: serial jobs in a fixed cycle of ``cycle`` variants."""

    name = ""
    #: Jobs per whole cycle of the fixed job order.
    cycle = 1

    def __init__(self, seed: int, workdir: Path, host: HostClock):
        from repro.runner import profile_config

        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = dataclasses.replace(profile_config("quick"), seed=self.seed)
        self.host = host
        self._dirs = 0

    # -- hooks --------------------------------------------------------------
    def setup(self) -> List[Tuple[float, float]]:
        """Prepare the window.

        Returns the ``(start, end)`` clock readings of each set-up sample,
        with host probes around each; the run reports their median.
        """
        raise NotImplementedError

    def run_job(self, index: int) -> Job:
        raise NotImplementedError

    def verify(self, jobs: Sequence[Job]) -> None:
        """Complete the jobs' outcomes after the timed window (default: no-op)."""

    def observed(self, jobs: Sequence[Job]) -> Dict[str, object]:
        """Workload-specific values checked against ``pinned.json`` (default: none)."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- helpers ------------------------------------------------------------
    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def run_window(
        self, seconds: float, *, jobs: Optional[int] = None
    ) -> Tuple[List[Job], Tuple[float, float]]:
        """Run whole cycles until ``seconds`` elapse (or exactly ``jobs``).

        Returns the jobs and the window's ``(start, end)`` clock readings.
        """
        self.host.probe()
        dispenser = CycleDispenser(self.cycle, seconds, jobs)
        done: List[Job] = []
        index = dispenser.next()
        while index is not None:
            done.append(self.run_job(index))
            index = dispenser.next()
        ended = time.perf_counter()
        self.host.probe()
        return done, (dispenser.start, ended)


# ----------------------------------------------------------------------
#: The callables that empty the process-level memos a fresh ``repro run``
#: process starts without: the generated-circuit memo behind
#: ``get_benchmark`` and the Tseitin CNF template memo used by the SAT
#: attack and the equivalence checks.
PROCESS_MEMOS = (
    "repro.benchgen.registry._build.cache_clear",
    "repro.sat.tseitin.clear_encoding_cache",
)


def cold_process_memos() -> None:
    """Empty every memo of :data:`PROCESS_MEMOS` that still exists.

    Without this, only a window's first campaign pays for circuit generation
    and CNF template builds.  A memo a later change deletes is skipped.
    """
    from .layers import resolve

    for dotted in PROCESS_MEMOS:
        try:
            _, _, clear = resolve(dotted)
        except LookupError:
            continue
        clear()


def _campaign_job(index: int, started: float, ended: float, results) -> Job:
    """A campaign job from its task results.

    GNNUnlock tasks report verified removals and post-processing accuracy;
    SAT-baseline tasks report baseline successes.
    """
    job = Job(index=index, started=started, ended=ended, tasks_ok=0, tasks_failed=0)
    observed = []
    for result in results:
        record = result.record or {}
        rate = record.get("removal_success_rate", record.get("baseline_success_rate"))
        if not result.ok or rate is None:
            job.tasks_failed += 1
            job.errors.append(f"{result.task_id}: {result.status} {result.error}")
            continue
        job.tasks_ok += 1
        n = int(record["n_instances"])
        job.attacked += n
        job.successes += float(rate) * n
        row = (result.task_id, n, round(float(rate), 12))
        if "post_accuracy" in record:
            job.post_accuracy.append(float(record["post_accuracy"]))
            row += (
                round(float(record["gnn_accuracy"]), 12),
                round(float(record["post_accuracy"]), 12),
            )
        observed.append(row)
    job.observation = tuple(observed)
    return job


class CampaignColdSat(Workload):
    """The quick Table IV + V grid plus the SAT baseline, cold and serial.

    One job is one campaign of 12 tasks with a fresh cache and store: the
    eight GNNUnlock tasks of the quick Table IV + V grid (Anti-SAT and
    ``sfll:2@GEN65`` on ISCAS-85, K in {8, 16, 32}), then the oracle-guided
    SAT attack on one XOR-locked ISCAS-85 dataset at K = 8 (four attacks).
    """

    name = "campaign-cold-sat"
    #: Seed of the one dataset the SAT attack runs on.  SAT cost varies
    #: several-fold with the lock seed (6.3-9.6 s per four attacks across
    #: seeds), so that dataset is fixed rather than derived from the
    #: workload seed; the GNNUnlock tasks follow the workload seed.
    sat_dataset_seed = 11

    def setup(self) -> List[Tuple[float, float]]:
        from . import layers

        # Set-up is only expanding the grid; repeat it and report the median
        # so the figure is not one timer tick.
        samples = []
        for _ in range(5):
            self.host.probe()
            started = time.perf_counter()
            self.tasks = self.expand()
            samples.append((started, time.perf_counter()))
        self.host.probe()
        # The runner's records keep the SAT attack's success/reason only; an
        # always-active tracer on the sat_attack layer keeps each attack's
        # DIP count for the correctness check.
        self.attacks = layers.Tracer()
        self.attacks.active = True
        self._uninstall, _ = layers.install(
            self.attacks,
            [layer for layer in layers.LAYERS if layer.name == "baselines.sat_attack"],
        )
        return samples

    def expand(self) -> list:
        from repro.runner import CampaignSpec

        tasks = []
        for name, scheme in (("table4", "antisat"), ("table5", "sfll:2@GEN65")):
            tasks += CampaignSpec(
                name=name, schemes=(scheme,), suites=("ISCAS-85",), config=self.config
            ).expand()
        return tasks + CampaignSpec(
            name="sat",
            schemes=("xor",),
            suites=("ISCAS-85",),
            key_size_groups=((8,),),
            attacks=("sat",),
            config=dataclasses.replace(self.config, seed=self.sat_dataset_seed),
        ).expand()

    def run_job(self, index: int) -> Job:
        from repro.runner import ResultStore, run_campaign

        root = self.fresh_dir("campaign")
        cold_process_memos()
        self.attacks.spans.clear()
        started = time.perf_counter()
        results = run_campaign(
            self.tasks,
            cache_dir=root / "cache",
            store=ResultStore(root / "store.jsonl"),
            serial=True,
            # Serial tasks run in this thread, so the host is probed between
            # them with nothing else running.
            on_result=lambda *_: self.host.probe(),
        )
        job = _campaign_job(index, started, time.perf_counter(), results)
        dips = tuple(
            (int(span.info.get("iterations", -1)), bool(span.info.get("success")))
            for span in self.attacks.spans
        )
        job.observation = (job.observation, dips)
        return job

    def observed(self, jobs: Sequence[Job]) -> Dict[str, object]:
        """DIP iterations of each SAT attack of a job, in attack order."""
        for job in jobs:
            if job.observation is not None:
                return {"dip_iterations": [dips for dips, _ in job.observation[1]]}
        return {"dip_iterations": []}

    def close(self) -> None:
        uninstall = getattr(self, "_uninstall", None)
        if uninstall is not None:
            uninstall()
        super().close()


class ServiceWarmJobs(Workload):
    """Closed-loop clients submitting warm single-target jobs to the service."""

    name = "service-warm-jobs"
    #: Closed-loop clients: one per CPU of the 2-CPU reference host.
    clients = 2

    def setup(self) -> List[Tuple[float, float]]:
        from repro.core.generation import suite_benchmarks
        from repro.runner import ResultStore, render_report, run_campaign
        from repro.service import CampaignService

        self.host.probe()
        started = time.perf_counter()
        self._windows = 0
        self.targets = tuple(suite_benchmarks("ISCAS-85"))
        self.cycle = len(self.targets)
        self.cache_dir = self.workdir / "cache"
        # Reference: the same single-target tasks run in-process.  This also
        # fills the dataset and model cache the service jobs then read.
        self.reference: Dict[str, str] = {}
        for target in self.targets:
            store = ResultStore(self.fresh_dir("reference") / "store.jsonl")
            results = run_campaign(
                self.spec(f"reference-{target}", target).expand(),
                cache_dir=self.cache_dir,
                store=store,
                serial=True,
                on_result=lambda *_: self.host.probe(),
            )
            if not all(r.ok for r in results):
                raise RuntimeError(f"reference run failed: {results[0].error}")
            self.reference[target] = render_report(store.load())
        self.service = CampaignService(
            self.workdir / "state", port=0, job_slots=1, cache_dir=self.cache_dir
        ).start()
        ended = time.perf_counter()
        self.host.probe()
        return [(started, ended)]

    def spec(self, name: str, target: str):
        from repro.runner import CampaignSpec

        return CampaignSpec(
            name=name,
            schemes=("antisat",),
            suites=("ISCAS-85",),
            targets=(target,),
            config=self.config,
        )

    def run_window(
        self, seconds: float, *, jobs: Optional[int] = None
    ) -> Tuple[List[Job], Tuple[float, float]]:
        from repro.service import ServiceClient
        from repro.service.client import ThrottledError

        self._windows += 1
        prefix = f"svc-{self.seed}-w{self._windows}"
        lock = threading.Lock()
        done: List[Job] = []
        self.host.probe()
        # Between cycles no job is in flight, so the probe competes with
        # nothing for the CPU or the GIL.
        dispenser = CycleDispenser(
            self.cycle, seconds, jobs, between_cycles=self.host.probe
        )

        def client_loop() -> None:
            client = ServiceClient(self.service.url, timeout=60.0)
            while True:
                index = dispenser.next()
                if index is None:
                    return
                try:
                    job = run_one(client, index)
                    with lock:
                        done.append(job)
                finally:
                    # Always, or the other client waits forever between cycles.
                    dispenser.finished()

        def run_one(client, index: int) -> Job:
            target = self.targets[index % self.cycle]
            spec = self.spec(f"{prefix}-{index}", target)
            sent = time.perf_counter()
            try:
                job_id = client.submit(spec)["job"]["job_id"]
                status = client.wait(job_id, timeout=120.0)["status"]
                error = None
            except ThrottledError as exc:
                job_id, status, error = "", "refused", str(exc)
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                job_id, status, error = "", "error", f"{type(exc).__name__}: {exc}"
            job = Job(
                index=index,
                started=sent,
                ended=time.perf_counter(),
                tasks_ok=0,
                tasks_failed=0,
                job_id=job_id,
                status=status,
            )
            if error is not None:
                job.errors.append(error)
            return job

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{n}")
            for n in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        self.host.probe()
        return sorted(done, key=lambda job: job.index), (dispenser.start, ended)

    def verify(self, jobs: Sequence[Job]) -> None:
        """Fetch every job's report and record; compare with the in-process run."""
        from repro.service import ServiceClient

        client = ServiceClient(self.service.url, timeout=60.0)
        for job in jobs:
            target = self.targets[job.index % self.cycle]
            if job.status == "refused":
                continue
            if job.status != "done":
                job.tasks_failed = 1
                job.errors.append(f"job {job.index} ({target}): {job.status}")
                continue
            if client.report(job.job_id) != self.reference[target]:
                job.errors.append(
                    f"job {job.index} ({target}): report differs from the in-process run"
                )
            records = client.records(job.job_id)
            record = records[0] if len(records) == 1 else {}
            if "removal_success_rate" not in record:
                job.tasks_failed = 1
                job.errors.append(f"job {job.index} ({target}): no task record")
                continue
            job.tasks_ok = 1
            n = int(record["n_instances"])
            job.attacked = n
            job.successes = float(record["removal_success_rate"]) * n
            job.post_accuracy.append(float(record["post_accuracy"]))
            job.observation = (
                target,
                round(float(record["post_accuracy"]), 12),
                round(float(record["removal_success_rate"]), 12),
            )

    def service_metrics(self) -> Dict[str, float]:
        """Queue-wait and run-time histogram totals scraped from /metricsz."""
        from repro.obs.metrics import parse_prometheus
        from repro.service import ServiceClient

        series = parse_prometheus(ServiceClient(self.service.url).metrics())
        return {
            "queue_wait_s": series.get("repro_service_job_queue_wait_seconds_sum", 0.0),
            "run_s": series.get("repro_service_job_run_seconds_sum", 0.0),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
        super().close()


WORKLOADS: Dict[str, Callable[[int, Path, HostClock], Workload]] = {
    cls.name: cls for cls in (CampaignColdSat, ServiceWarmJobs)
}
