"""BatchRevealService: corpus-scale reveal with workers and caching.

The paper evaluates DexLego one application at a time; its consumers
(static analyzers scanning markets, unpacking services, CI pipelines)
run it over *corpora*.  This module is that production posture:

* a :class:`RevealJob` names one application plus its per-app knobs
  (device profile, drive callable, collect-only mode),
* :class:`BatchRevealService` fans jobs across a ``concurrent.futures``
  pool — thread-backed by default, process-backed for CPU-bound
  fleets — with every job isolated so one crashing APK
  produces an ``error`` record instead of aborting the batch,
* results flow through the content-addressed
  :class:`~repro.service.cache.RevealCache`, so re-running a corpus only
  pays for apps whose bytes or pipeline configuration changed,
* the returned :class:`~repro.service.stats.BatchReport` preserves
  submission order and carries throughput aggregates (apps/sec, cache
  hit rate, p50/p95 latency and queue wait).

``reveal_batch`` is a façade: cache hits resolve in the calling
thread and the misses of every backend run through an ephemeral
:class:`~repro.service.server.RevealServer`, which is also where
incremental submission, priorities, cancellation and the unified event
stream live for callers that want more than call-and-wait.  Every front
end — that server, the fleet's
:class:`~repro.service.worker.RevealWorker` and :meth:`reveal_one` —
runs a job through the one :meth:`BatchRevealService.run_job`.

Backend notes
-------------

The ``process`` backend serialises each APK to bytes and rebuilds the
pipeline in a worker process of a pool the service owns, so it only
ships jobs it can reconstruct there: no ``drive`` callable (closures do
not pickle); the device profile — custom or registry — travels whole
inside ``RevealConfig.to_dict()``.  Jobs with a drive run in the
calling thread.  Shipped jobs publish no stage or wave events (those
happen in the worker process).  On platforms whose process start method
is not ``fork``, registered native libraries are not inherited by
workers — thread remains the safe default everywhere.
"""

from __future__ import annotations

import logging
import os
import time
import traceback
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.config import RevealConfig, resolve_config
from repro.core.pipeline import DexLego
from repro.errors import StageError, VerificationError
from repro.runtime.apk import Apk
from repro.runtime.device import DeviceProfile
from repro.service.api import SubmitAPI
from repro.service.cache import RevealCache, reveal_cache_key
from repro.service.events import (
    EVENT_CACHE_HIT,
    EVENT_CLUSTER,
    EVENT_DEGRADED,
    EVENT_INDEX,
    EVENT_STAGE,
    EVENT_WAVE,
)
from repro.service.jobs import PRIORITY_NORMAL, JobStore
from repro.service.outcomes import (
    STATUS_ERROR,
    STATUS_VERIFY_FAILED,
    RevealOutcome,
    classify_result,
)
from repro.service.stats import BatchReport

BACKENDS = ("thread", "process")

logger = logging.getLogger(__name__)

#: Environment override consulted when a service (or experiment runner)
#: does not pin a worker count; also settable via :func:`set_default_workers`.
WORKERS_ENV_VAR = "DEXLEGO_WORKERS"

_default_workers: int | None = None


def set_default_workers(count: int | None) -> None:
    """Process-wide default worker count (the runner's ``--workers``)."""
    global _default_workers
    _default_workers = count


def default_worker_count() -> int:
    """Resolved default: explicit setting, else env var, else serial."""
    if _default_workers is not None:
        return max(1, _default_workers)
    env = os.environ.get(WORKERS_ENV_VAR, "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


@dataclass
class RevealJob:
    """One unit of batch work.

    Fields:

    * ``app_id`` — identifier the outcome is reported under.
    * ``apk`` — the application to reveal.
    * ``device`` — per-job device profile override (DroidBench samples
      pin emulator vs. handset identity); ``None`` uses the service's.
    * ``drive`` — optional drive callable forwarded to the pipeline
      (e.g. a fuzzer); jobs with a drive are not cacheable unless they
      also set ``cache_salt``, because the cache cannot fingerprint a
      callable.
    * ``collect_only`` — run only the JIT-collection half (Table VI's
      dump-size measurements) and skip reassembly.
    * ``cache_salt`` — extra key material identifying the drive/workload.
    """

    app_id: str
    apk: Apk
    device: DeviceProfile | None = None
    drive: Callable | None = None
    collect_only: bool = False
    cache_salt: str = ""

    @property
    def cacheable(self) -> bool:
        return self.drive is None or bool(self.cache_salt)

    @classmethod
    def from_record(cls, record: dict) -> "RevealJob":
        """Rebuild a job journalled in a :class:`JobStore` record."""
        return cls(
            app_id=record["app_id"],
            apk=JobStore.decode_apk(record["apk_b64"]),
            device=JobStore.decode_device(record.get("device")),
            collect_only=record.get("collect_only", False),
            cache_salt=record.get("cache_salt", ""),
        )


class BatchRevealService(SubmitAPI):
    """Parallel, cached collect→reassemble→verify over an APK corpus.

    As a :class:`~repro.service.api.SubmitAPI` implementation, the
    service also accepts incremental submissions directly: the first
    :meth:`submit` lazily boots an internal
    :class:`~repro.service.server.RevealServer` (shared config, shared
    cache) that :meth:`close` shuts down.
    """

    def __init__(
        self,
        *,
        device: DeviceProfile | None = None,
        use_force_execution: bool | None = None,
        run_budget: int | None = None,
        force_iterations: int | None = None,
        exploration_strategy: str | None = None,
        max_paths: int | None = None,
        path_budget: int | None = None,
        explore_workers: int | None = None,
        explore_backend: str | None = None,
        index_dir: str | None = None,
        cluster_dir: str | None = None,
        config: RevealConfig | None = None,
        workers: int | None = None,
        backend: str = "thread",
        cache: RevealCache | None = None,
        cache_dir: str | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend {backend!r} not one of {BACKENDS}")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.config = resolve_config(
            config,
            device=device,
            use_force_execution=use_force_execution,
            run_budget=run_budget,
            force_iterations=force_iterations,
            exploration_strategy=exploration_strategy,
            max_paths=max_paths,
            path_budget=path_budget,
            explore_workers=explore_workers,
            explore_backend=explore_backend,
            index_dir=index_dir,
            cluster_dir=cluster_dir,
        )
        self.workers = max(1, workers) if workers is not None \
            else default_worker_count()
        self.backend = backend
        self.cache = cache if cache is not None else RevealCache(cache_dir)
        # One CorpusIndex shared by every in-process job (it is
        # thread-safe), created lazily so index-less services never pay
        # for it.  Process workers open their own instance from the
        # ``index_dir`` travelling inside the config dict.
        self._index = None
        self._index_lock = threading.Lock()
        # Same sharing story for the ClusterStore: thread-safe, lazily
        # created, and process workers open their own from the config.
        self._cluster = None
        self._cluster_lock = threading.Lock()
        # Graceful degradation: subsystem name -> reason, populated
        # when an *optional* store (index, cluster) fails to open.  A
        # failed open is remembered so each reveal does not retry (and
        # re-warn about) a corrupt directory; reopening means building
        # a new service.
        self._degraded: dict[str, str] = {}
        # Lazily booted by the first direct submit(); owned and closed
        # by this service.  reveal_batch keeps its own ephemeral server
        # so call-and-wait corpora never leave a pool lingering.
        self._submit_server = None
        self._submit_lock = threading.Lock()
        # The process backend's worker pool: created by the first
        # shipped job, shut down at the end of each reveal_batch and by
        # close().
        self._pool = None
        self._pool_lock = threading.Lock()

    # Attribute views kept for callers that read the old constructor
    # fields off the instance.

    @property
    def device(self) -> DeviceProfile:
        return self.config.device

    @property
    def use_force_execution(self) -> bool:
        return self.config.use_force_execution

    @property
    def run_budget(self) -> int:
        return self.config.run_budget

    @property
    def force_iterations(self) -> int:
        return self.config.force_iterations

    # -- pipeline construction ---------------------------------------------

    def config_for(self, job: RevealJob) -> RevealConfig:
        """The service config with the job's device override applied."""
        if job.device is None or job.device == self.config.device:
            return self.config
        return self.config.replace(device=job.device)

    def pipeline_for(self, job: RevealJob, observer=None,
                     wave_observer=None) -> DexLego:
        """A fresh, job-private pipeline (runtimes are never shared).

        ``observer`` receives the pipeline's per-stage
        :class:`~repro.core.stages.StageEvent` records and
        ``wave_observer`` the exploration scheduler's wave snapshots —
        the two channels the reveal server unifies into its event bus.
        """
        config = self.config_for(job)
        if config.archive_dir is not None:
            # Collection files have fixed names, so parallel jobs
            # sharing one archive directory would cross-contaminate
            # their save/load round-trips; scope it per job.
            config = config.replace(
                archive_dir=os.path.join(config.archive_dir, job.app_id))
        index = self.corpus_index()
        cluster = self.cluster_store()
        # Once the service has noted a degraded store, job pipelines
        # must not re-attempt (and re-warn about) the corrupt open
        # through their own lazy path.
        degraded = self.degraded_subsystems()
        if "index" in degraded:
            config = config.replace(index_dir=None)
        if "cluster" in degraded:
            config = config.replace(cluster_dir=None)
        return DexLego(config=config, observer=observer,
                       wave_observer=wave_observer,
                       index=index, cluster=cluster)

    def corpus_index(self):
        """The service-wide :class:`~repro.index.corpus.CorpusIndex`
        (``None`` without an ``index_dir``), shared across jobs so a
        batch dedups against itself, not just against past runs.

        A corrupt or foreign-version ``index_dir`` degrades to ``None``
        (no dedup, one warning, ``degraded`` stamped on outcomes)
        instead of failing every reveal in the batch — the index is an
        optimisation, never a prerequisite.
        """
        if self.config.index_dir is None:
            return None
        with self._index_lock:
            if self._index is None and "index" not in self._degraded:
                from repro.index.corpus import CorpusIndex

                try:
                    self._index = CorpusIndex(self.config.index_dir)
                except (OSError, ValueError) as exc:
                    self._note_degraded("index", exc)
            return self._index

    def cluster_store(self):
        """The service-wide :class:`~repro.cluster.store.ClusterStore`
        (``None`` without a ``cluster_dir``), shared across jobs so a
        batch labels against everything it has already revealed.

        Degrades to ``None`` on a corrupt or foreign-version
        ``cluster_dir``, exactly like :meth:`corpus_index` — reveals
        proceed unlabeled rather than failing.
        """
        if self.config.cluster_dir is None:
            return None
        with self._cluster_lock:
            if self._cluster is None and "cluster" not in self._degraded:
                from repro.cluster.store import ClusterStore

                try:
                    self._cluster = ClusterStore(self.config.cluster_dir)
                except (OSError, ValueError) as exc:
                    self._note_degraded("cluster", exc)
            return self._cluster

    def _note_degraded(self, subsystem: str, exc: Exception) -> None:
        """Record (and warn once about) one degraded subsystem."""
        if subsystem in self._degraded:
            return
        self._degraded[subsystem] = f"{type(exc).__name__}: {exc}"
        logger.warning(
            "%s unavailable (%s); continuing without it — reveals will "
            "carry degraded=[%r]", subsystem, self._degraded[subsystem],
            subsystem)

    def degraded_subsystems(self) -> dict[str, str]:
        """Subsystem name -> reason for everything this service has had
        to bypass (empty when fully provisioned)."""
        with self._index_lock:
            with self._cluster_lock:
                return dict(self._degraded)

    def job_cache_key(self, job: RevealJob) -> str:
        salt = job.cache_salt
        if job.collect_only:
            salt += "|collect-only"
        return reveal_cache_key(job.apk, self.config_for(job), salt)

    # -- single job ---------------------------------------------------------

    def reveal_one(self, job: RevealJob | Apk) -> RevealOutcome:
        """Run (or fetch) one job; never raises for per-app failures."""
        return self.run_job(self._coerce(job))

    def run_job(self, job: RevealJob, *, bus=None, job_id: str = "",
                cache_key: str | None = None) -> RevealOutcome:
        """The one job body: cache → pipeline → events.

        Routed through :meth:`RevealCache.get_or_compute`, so two
        threads revealing the same bytes under the same config run one
        pipeline.  The pipeline runs in the calling thread, or — a
        shippable job on the ``process`` backend — in the service's
        process pool.  With a ``bus``, the job's stage, wave and
        cache-hit events are published under ``job_id``, then its
        index, cluster and degraded summaries (still before the
        caller's terminal event).  ``cache_key`` is a precomputed key
        (``""``: uncacheable) for callers that already hashed the APK.
        """
        def publish(kind: str, payload: dict) -> None:
            if bus is not None:
                bus.publish(kind, job_id, job.app_id, payload=payload)

        def on_stage(event) -> None:
            publish(EVENT_STAGE, {
                "stage": event.stage,
                "duration_s": event.duration_s,
                "ok": event.ok,
                "error": event.error,
            })

        def on_wave(snapshot: dict) -> None:
            publish(EVENT_WAVE, dict(snapshot))

        key = cache_key
        if key is None:
            key = self.job_cache_key(job) if job.cacheable else ""

        def compute() -> RevealOutcome:
            if self.backend == "process" and self._process_safe(job):
                return self._ship(job, key)
            return self._run_job(job, key, observer=on_stage,
                                 wave_observer=on_wave)

        outcome, hit = self.cache.get_or_compute(key, compute)
        if hit:
            outcome.app_id = job.app_id  # content-addressed, not name-addressed
            publish(EVENT_CACHE_HIT, {"cache_key": key})
        # Pre-terminal summaries, so per-job lifecycle order is
        # started → index → cluster → degraded → done and dashboards
        # never race the outcome.
        if outcome.index_stats:
            publish(EVENT_INDEX, dict(outcome.index_stats))
        if outcome.cluster_stats:
            publish(EVENT_CLUSTER, dict(outcome.cluster_stats))
        if outcome.degraded:
            publish(EVENT_DEGRADED, {"subsystems": list(outcome.degraded)})
        return outcome

    # -- batch --------------------------------------------------------------

    def server(self, **kwargs) -> "RevealServer":
        """A :class:`~repro.service.server.RevealServer` owned by this
        service — shared config, shared cache.  Keyword arguments
        (``max_pending=``, ``store=``, ``autostart=``...) pass through."""
        from repro.service.server import RevealServer

        kwargs.setdefault("workers", self.workers)
        return RevealServer(service=self, **kwargs)

    # -- SubmitAPI ----------------------------------------------------------

    def _ensure_server(self):
        with self._submit_lock:
            if self._submit_server is None:
                self._submit_server = self.server()
            return self._submit_server

    def submit(self, job: RevealJob | Apk, *, priority=PRIORITY_NORMAL,
               **kwargs):
        """Enqueue one job on the service's internal server."""
        return self._ensure_server().submit(job, priority=priority,
                                            **kwargs)

    def poll(self, job_id: str):
        return self._ensure_server().poll(job_id)

    def cancel(self, job_id: str) -> bool:
        return self._ensure_server().cancel(job_id)

    def handles(self) -> list:
        with self._submit_lock:
            server = self._submit_server
        return [] if server is None else server.handles()

    def close(self, drain: bool = True) -> None:
        """Shut down the internal submit server and the process pool
        (no-op without them)."""
        with self._submit_lock:
            server, self._submit_server = self._submit_server, None
        if server is not None:
            server.close(drain=drain)
        self._shutdown_pool()

    def __enter__(self) -> "BatchRevealService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def reveal_batch(self, jobs: Iterable[RevealJob | Apk]) -> BatchReport:
        """Run a corpus; outcomes come back in submission order.

        A thin façade over the job server: cache hits resolve in the
        calling thread (a warm corpus never pays for queueing), then
        the misses run as ``submit`` + ``wait`` against an ephemeral
        :class:`~repro.service.server.RevealServer`.
        """
        job_list = [self._coerce(j) for j in jobs]
        started = time.perf_counter()
        slots: list[RevealOutcome | None] = [None] * len(job_list)
        # The key hashes every DEX and asset — compute it once per job
        # and hand it to the server with the submission.
        pending: list[tuple[int, RevealJob, str]] = []
        for index, job in enumerate(job_list):
            key = self.job_cache_key(job) if job.cacheable else ""
            cached = self.cache.get(key) if key else None
            if cached is not None:
                cached.app_id = job.app_id
                slots[index] = cached
            else:
                pending.append((index, job, key))
        if pending:
            server = self.server()
            try:
                handles = [server.submit(job, cache_key=key)
                           for _, job, key in pending]
                for (index, _job, _key), handle in zip(pending, handles):
                    slots[index] = handle.wait()
            finally:
                server.close()
                self._shutdown_pool()
        return BatchReport(
            outcomes=[o for o in slots if o is not None],
            wall_time_s=time.perf_counter() - started,
            workers=self.workers,
            backend=self.backend,
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _coerce(job: RevealJob | Apk) -> RevealJob:
        if isinstance(job, RevealJob):
            return job
        return RevealJob(app_id=job.package, apk=job)

    def _ship(self, job: RevealJob, key: str) -> RevealOutcome:
        """Run one job in the process pool; a dead worker costs this
        job an ``error`` outcome, never the caller."""
        args = (job.app_id, job.apk.to_bytes(),
                self.config_for(job).to_dict(), job.collect_only, key)
        pool = None
        try:
            # Submitted under the lock, so a concurrent _shutdown_pool
            # either precedes this (and a fresh pool is made) or waits
            # for the job.
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.workers)
                pool = self._pool
                future = pool.submit(_process_reveal, *args)
            return future.result()
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                # A broken pool refuses every later job; the next
                # shipped job starts a fresh one.
                with self._pool_lock:
                    if self._pool is pool:
                        self._pool = None
            return RevealOutcome(
                app_id=job.app_id,
                status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
                cache_key=key,
            )

    def _shutdown_pool(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def _process_safe(self, job: RevealJob) -> bool:
        """Can this job ship to a process worker?  Only a ``drive``
        callable blocks shipping (closures do not pickle); any device
        profile travels whole inside ``RevealConfig.to_dict()``."""
        return job.drive is None

    def _degraded_for(self, lego, result=None) -> list:
        """Sorted union of everything this reveal had to bypass:
        service-level open failures, pipeline-level ones, and a
        mid-reveal index write failure reported by the stages."""
        names = set(self._degraded)
        names.update(lego.pipeline.degraded)
        if result is not None and result.index_stats.get("degraded"):
            names.add("index")
        return sorted(names)

    def _run_job(self, job: RevealJob, key: str = "", observer=None,
                 wave_observer=None) -> RevealOutcome:
        lego = self.pipeline_for(job, observer=observer,
                                 wave_observer=wave_observer)
        started = time.perf_counter()
        try:
            if job.collect_only:
                timings: dict = {}
                collected = lego.pipeline.collect(job.apk, job.drive,
                                                  timings=timings)
                return RevealOutcome(
                    app_id=job.app_id,
                    status=classify_result(collected),
                    latency_s=time.perf_counter() - started,
                    dump_size_bytes=collected.dump_size_bytes,
                    collector_stats=collected.collector_stats,
                    error=collected.crash_reason,
                    stage_timings=timings,
                    exploration=(collected.force_report.to_summary()
                                 if collected.force_report else {}),
                    degraded=self._degraded_for(lego),
                    cache_key=key,
                )
            result = lego.reveal(job.apk, drive=job.drive)
            status = classify_result(result)
        except StageError as err:
            verify_failed = isinstance(err.cause, VerificationError)
            return RevealOutcome(
                app_id=job.app_id,
                status=STATUS_VERIFY_FAILED if verify_failed else STATUS_ERROR,
                latency_s=time.perf_counter() - started,
                error=(str(err.cause) if verify_failed else
                       f"{type(err.cause).__name__}: {err.cause}"),
                failed_stage=err.stage,
                degraded=self._degraded_for(lego),
                cache_key=key,
            )
        except Exception as exc:
            return RevealOutcome(
                app_id=job.app_id,
                status=STATUS_ERROR,
                latency_s=time.perf_counter() - started,
                error="".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
                degraded=self._degraded_for(lego),
                cache_key=key,
            )
        return RevealOutcome(
            app_id=job.app_id,
            status=status,
            latency_s=time.perf_counter() - started,
            dump_size_bytes=result.dump_size_bytes,
            collector_stats=result.collector_stats,
            error=result.crash_reason,
            stage_timings=result.stage_timings,
            exploration=(result.force_report.to_summary()
                         if result.force_report else {}),
            index_stats=dict(result.index_stats),
            cluster_stats=dict(result.cluster_stats),
            degraded=self._degraded_for(lego, result),
            cache_key=key,
            result=result,
        )


def _process_reveal(
    app_id: str,
    apk_bytes: bytes,
    config_dict: dict,
    collect_only: bool,
    cache_key: str,
) -> RevealOutcome:
    """Module-level worker body for the process backend.

    Rebuilds the APK and pipeline from picklable primitives — the
    configuration travels as ``RevealConfig.to_dict()`` — and returns
    a slim outcome (serialised revealed APK, no live result object).
    """
    service = BatchRevealService(
        config=RevealConfig.from_dict(config_dict),
        workers=1,
        backend="thread",
    )
    job = RevealJob(app_id=app_id, apk=Apk.from_bytes(apk_bytes),
                    collect_only=collect_only)
    outcome = service._run_job(job)
    outcome.cache_key = cache_key
    # Strip the live result: ship the serialised revealed APK instead.
    if outcome.result is not None:
        revealed = outcome.result.revealed_apk
        if revealed is not None and revealed.dex_files:
            outcome.revealed_apk_bytes = revealed.to_bytes()
        outcome.result = None
    return outcome
