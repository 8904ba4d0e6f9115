"""The four workloads: inputs from the seed, the timed unit, the checks.

Every input is generated from the benchmark's ``--seed``, encoded with
``Apk.to_bytes`` during set-up, and decoded with ``Apk.from_bytes``
when it is revealed — the way the job store hands an APK to a worker.
The program receives nothing but those bytes.  Why each workload
exists, and which layers it loads, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

from repro.benchsuite.codegen import generate_app
from repro.benchsuite.fdroid_apps import FDROID_APP_SPECS
# The F-Droid analogues' coverage profile; imported rather than copied
# so the benchmark's apps track the corpus definition.
from repro.benchsuite.fdroid_apps import _COVERAGE_PROFILE
from repro.benchsuite.shared_corpus import build_shared_corpus_app
from repro.cluster.store import ClusterStore
from repro.core.config import RevealConfig
from repro.core.pipeline import Pipeline
from repro.dex.reader import read_dex
from repro.dex.verify import assert_valid
from repro.dex.writer import write_dex
from repro.index.corpus import CorpusIndex
from repro.runtime.apk import Apk
from repro.service import (
    ARTIFACT_COLLECTION,
    ARTIFACT_REVEALED_APK,
    ARTIFACT_REVEALED_DEX,
    STATUS_OK,
    GatewayClient,
    JobStore,
    RevealGateway,
    RevealJob,
    RevealWorker,
)
from repro.service.worker import collection_zip_bytes

#: The seed whose outputs ``expected.json`` pins.  At this seed the
#: inputs are exactly the repository's own corpora: the F-Droid specs'
#: generator seeds and ``build_shared_corpus``'s default seeds.
DEFAULT_SEED = 0

FORCE_APP = "be.ppareit.swiftp"
#: Force-execution iteration cap; it sets the force workloads' length
#: (two waves of at most 64 replays each).
FORCE_ITERATIONS = 2
FLEET_APPS = 20
FLEET_WORKERS = 2
POLL_INTERVAL_S = 0.05
#: Per-wave bound on how long the fleet client waits for its jobs (a
#: cold wave takes 11-16 s on a 2-core host), so a stuck fleet still
#: ends the run well inside three minutes.
WAVE_TIMEOUT_S = 60.0


def fdroid_inputs(seed: int, packages=None) -> list[tuple[str, bytes]]:
    """The F-Droid analogues, each generator seed shifted by the
    benchmark seed, as APK bytes."""
    inputs = []
    for package, _version, target, spec_seed in FDROID_APP_SPECS:
        if packages is not None and package not in packages:
            continue
        generated = generate_app(package, target,
                                 seed=spec_seed + 1000 * seed,
                                 profile=_COVERAGE_PROFILE)
        inputs.append((package, generated.apk.to_bytes()))
    return inputs


def shared_corpus_inputs(seed: int) -> list[tuple[str, bytes]]:
    """``FLEET_APPS`` apps sharing one library pool (~79% of methods);
    ``corpus_seed`` and every ``app_seed`` derive from the seed."""
    inputs = []
    for i in range(FLEET_APPS):
        app = build_shared_corpus_app(f"com.corpus.app{i}",
                                      corpus_seed=11 + seed,
                                      app_seed=1000 * seed + i)
        inputs.append((app.package, app.apk.to_bytes()))
    return inputs


def warm_up(seed: int) -> None:
    """One small plain reveal, so lazy module state is built before
    anything is timed."""
    generated = generate_app("bench.warmup", 400, seed=seed)
    Pipeline(RevealConfig()).run(Apk.from_bytes(generated.apk.to_bytes()))


@dataclass
class Unit:
    """One timed unit of a workload and what it produced."""

    wall_s: float
    #: Latency of each job in seconds: the unit itself for the reveal
    #: loops, each cold-wave job for the fleet.
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: Apps revealed ok per second of the timed phase (for the fleet,
    #: of its cold wave).
    apps_per_s: float = 0.0
    #: (app id, revealed DEX bytes), filled after timing.
    outputs: list = field(default_factory=list)
    #: Workload-specific observations (force reports, fleet records...).
    extra: dict = field(default_factory=dict)


def _reveal_bytes(blob: bytes, config: RevealConfig):
    """Decode, reveal, and classify one app; ``(result, failure)``."""
    try:
        result = Pipeline(config).run(Apk.from_bytes(blob))
    except Exception as exc:  # a failed reveal is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"
    if result.crashed:
        return result, f"crashed: {result.crash_reason}"
    if result.budget_exhausted:
        return result, "budget exhausted"
    return result, None


class RevealLoop:
    """Closed-loop plain or force reveals by one caller.

    ``reveal-corpus`` reveals the five F-Droid analogues one after the
    other; the force workloads reveal one app with force execution.
    """

    repeatable = True
    #: Share of traced ``Pipeline.run`` time allowed outside the stage
    #: spans (see ``layers.reconcile``); one thread reveals at a time.
    reconcile_tolerance = 0.02

    def __init__(self, config: RevealConfig, packages=None,
                 cross_check: RevealConfig | None = None):
        self.config = config
        self.packages = packages
        #: At a seed without a committed reference, reveal again under
        #: this config and require the same outputs.
        self.cross_check = cross_check

    def setup(self, seed: int, _workdir: str) -> list[tuple[str, bytes]]:
        inputs = fdroid_inputs(seed, self.packages)
        warm_up(seed)
        return inputs

    def teardown(self, _state) -> None:
        pass

    def unit(self, inputs) -> Unit:
        app_latency, results, failures = {}, [], []
        started = time.perf_counter()
        for app_id, blob in inputs:
            began = time.perf_counter()
            result, failure = _reveal_bytes(blob, self.config)
            app_latency[app_id] = time.perf_counter() - began
            results.append((app_id, result))
            if failure is not None:
                failures.append(f"{app_id}: {failure}")
        wall = time.perf_counter() - started
        # The unit is the caller's job.  Per-app latencies differ by app
        # size, so their median is one app's few seconds and too noisy
        # to gate on; they are printed, not reported.
        unit = Unit(wall, [wall], attempted=len(inputs),
                    failures=failures,
                    apps_per_s=(len(inputs) - len(failures)) / wall)
        unit.extra["results"] = results
        unit.extra["app_latency_s"] = app_latency
        return unit

    def gather(self, _inputs, unit: Unit) -> None:
        """Serialise the revealed DEX files (after timing and tracing)."""
        results = unit.extra.pop("results")
        unit.outputs = [(app_id, write_dex(result.reassembled_dex))
                        for app_id, result in results
                        if result is not None]
        unit.extra["force"] = [result.force_report for _app, result
                               in results if result is not None
                               and result.force_report is not None]

    def check(self, inputs, unit: Unit, seed: int, expected: dict) -> list:
        problems = _check_valid(unit.outputs)
        if seed == DEFAULT_SEED:
            problems += _check_expected(unit, expected)
        elif self.cross_check is not None:
            problems += self._check_backends_agree(inputs, unit)
        return problems

    def _check_backends_agree(self, inputs, unit: Unit) -> list:
        """The same reveal on the cross-check backend must give the
        same bytes, ``paths_executed`` and ``fully_covered_sites``."""
        other = self.cross_check.explore_backend
        problems = []
        for (app_id, blob), (_app, dex), report in zip(
                inputs, unit.outputs, unit.extra["force"]):
            result, failure = _reveal_bytes(blob, self.cross_check)
            if failure is not None:
                return [f"{app_id}: {other}-backend reveal {failure}"]
            if write_dex(result.reassembled_dex) != dex:
                problems.append(f"{app_id}: the {other} backend revealed "
                                "different DEX bytes")
            theirs = result.force_report
            for key in ("paths_executed", "fully_covered_sites"):
                if getattr(theirs, key) != getattr(report, key):
                    problems.append(
                        f"{app_id}: {key} is {getattr(report, key)}, but "
                        f"{getattr(theirs, key)} on the {other} backend")
        return problems


@dataclass
class Fleet:
    """A booted gateway, two worker threads and their stores."""

    root: str
    store: JobStore
    gateway: RevealGateway
    client: GatewayClient
    workers: list
    threads: list
    jobs: list
    inputs: list


class FleetStores:
    """Cold then warm waves of a shared corpus through the gateway."""

    repeatable = False
    #: Two worker threads share the interpreter lock, and each hand-off
    #: that lands between two spans of a reveal counts as unattributed.
    reconcile_tolerance = 0.10

    def setup(self, seed: int, workdir: str) -> Fleet:
        inputs = shared_corpus_inputs(seed)
        warm_up(seed)
        root = workdir
        store = JobStore(os.path.join(root, "store"))
        # Create the shared index and cluster directories before the
        # workers start: two instances creating the same fresh
        # directory race on its meta file (see README, findings).
        for opened in (CorpusIndex(os.path.join(root, "index")),
                       ClusterStore(os.path.join(root, "cluster"))):
            opened.close()
        gateway = RevealGateway(store).start()
        client = GatewayClient(gateway.url, poll_interval_s=POLL_INTERVAL_S)
        if not client.healthz():
            raise RuntimeError("gateway did not answer its health check")
        # Fleet members share nothing but directories: each worker
        # builds its own service, which opens its own index, cluster
        # store and cache over the shared directories.
        workers = [
            RevealWorker(store, worker_id=f"bench-w{i}",
                         poll_interval_s=POLL_INTERVAL_S, workers=1,
                         index_dir=os.path.join(root, "index"),
                         cluster_dir=os.path.join(root, "cluster"),
                         cache_dir=os.path.join(root, "cache"))
            for i in range(FLEET_WORKERS)
        ]
        threads = [threading.Thread(target=w.run,
                                    kwargs={"linger_s": 3600.0})
                   for w in workers]
        for thread in threads:
            thread.start()
        jobs = [RevealJob(app_id, Apk.from_bytes(blob))
                for app_id, blob in inputs]
        return Fleet(root, store, gateway, client, workers, threads, jobs,
                     inputs)

    def teardown(self, fleet: Fleet) -> None:
        for worker in fleet.workers:
            worker.stop()
        for thread in fleet.threads:
            thread.join(timeout=60)
        fleet.gateway.close()
        for worker in fleet.workers:
            for opened in (worker.service.corpus_index(),
                           worker.service.cluster_store()):
                if opened is not None:
                    opened.close()
        shutil.rmtree(fleet.root, ignore_errors=True)

    def _wave(self, fleet: Fleet):
        started = time.perf_counter()
        handles = fleet.client.submit_many(fleet.jobs)
        outcomes = fleet.client.await_many(handles, timeout=WAVE_TIMEOUT_S)
        wall = time.perf_counter() - started
        records = [fleet.store.load(h.job_id) for h in handles]
        return wall, outcomes, records

    def unit(self, fleet: Fleet) -> Unit:
        cold_wall, cold, cold_records = self._wave(fleet)
        warm_wall, warm, warm_records = self._wave(fleet)
        unit = Unit(cold_wall + warm_wall)
        unit.latencies = [r["finished_at"] - r["submitted_at"]
                          for r in cold_records]
        unit.attempted = 2 * len(fleet.jobs)
        for wave, outcomes, records in (("cold", cold, cold_records),
                                        ("warm", warm, warm_records)):
            if len(outcomes) != len(fleet.jobs):
                unit.failures.append(f"{wave} wave: {len(outcomes)} of "
                                     f"{len(fleet.jobs)} outcomes arrived")
            unit.failures += [f"{wave} {o.app_id}: {o.status} {o.error}"
                              for o in outcomes if o.status != STATUS_OK]
        unit.apps_per_s = sum(1 for o in cold
                              if o.status == STATUS_OK) / cold_wall
        hits = sum(1 for o in warm if o.cache_hit)
        unit.extra.update(
            cold_wall_s=cold_wall,
            warm_wall_s=warm_wall,
            cold_records=cold_records,
            warm_records=warm_records,
            warm_hits=hits,
            hit_apps_per_s=hits / warm_wall,
            http_retries=fleet.client.retries,
            jobs_submitted=unit.attempted,
        )
        return unit

    def gather(self, fleet: Fleet, unit: Unit) -> None:
        """Fetch the revealed DEX of every cold job over HTTP, and the
        gateway's ``/v1/stats`` (after timing and tracing)."""
        stats = fleet.client.stats()
        unit.extra["artifact_bytes"] = stats["artifacts"]["total_bytes"]
        unit.outputs = []
        for (app_id, _blob), record in zip(fleet.inputs,
                                           unit.extra["cold_records"]):
            digest = (record.get("artifacts") or {}).get(
                ARTIFACT_REVEALED_DEX, "")
            unit.outputs.append((app_id, fleet.client.fetch_artifact(digest)
                                 if digest else b""))

    def check(self, fleet: Fleet, unit: Unit, seed: int,
              expected: dict) -> list:
        problems = _check_valid(unit.outputs)
        if seed == DEFAULT_SEED:
            problems += _check_expected(unit, expected)
        hits = unit.extra["warm_hits"]
        if hits != len(fleet.jobs):
            problems.append(f"warm wave: {hits} of {len(fleet.jobs)} "
                            "jobs were cache hits")
        for record in unit.extra["cold_records"] + unit.extra["warm_records"]:
            if record.get("attempts") != 1:
                problems.append(f"job {record['job_id']} "
                                f"({record['app_id']}) ran "
                                f"{record.get('attempts')} times")
            degraded = (record.get("outcome") or {}).get("degraded")
            if degraded:
                problems.append(f"job {record['job_id']} "
                                f"({record['app_id']}) ran without "
                                f"{degraded}")
        problems += self._check_artifacts(fleet, unit)
        return problems

    def _check_artifacts(self, fleet: Fleet, unit: Unit) -> list:
        """Every artifact served over HTTP equals an in-process reveal
        of the same bytes with no index, cluster store or cache."""
        problems = []
        client = fleet.client
        for (app_id, blob), cold, warm in zip(
                fleet.inputs, unit.extra["cold_records"],
                unit.extra["warm_records"]):
            result, failure = _reveal_bytes(blob, RevealConfig())
            if failure is not None:
                problems.append(f"{app_id}: in-process reveal {failure}")
                continue
            reference = {
                ARTIFACT_REVEALED_APK: result.revealed_apk.to_bytes(),
                ARTIFACT_REVEALED_DEX: write_dex(result.reassembled_dex),
                ARTIFACT_COLLECTION: collection_zip_bytes(result.archive),
            }
            cold_artifacts = cold.get("artifacts") or {}
            for kind, data in reference.items():
                digest = cold_artifacts.get(kind)
                fetched = client.fetch_artifact(digest) if digest else None
                if fetched != data:
                    problems.append(f"{app_id}: {kind} artifact differs "
                                    "from the in-process reveal")
            # Cache hits store the APK and DEX again; same digests.
            for kind, digest in (warm.get("artifacts") or {}).items():
                if cold_artifacts.get(kind) != digest:
                    problems.append(f"{app_id}: warm-wave {kind} artifact "
                                    "differs from the cold wave's")
        return problems


def _check_valid(outputs: list) -> list:
    """Every revealed DEX re-reads and passes the verifier."""
    problems = []
    for app_id, data in outputs:
        try:
            assert_valid(read_dex(data))
        except Exception as exc:
            problems.append(f"{app_id}: revealed DEX does not re-read and "
                            f"verify ({type(exc).__name__}: {exc})")
    return problems


def output_digests(unit: Unit) -> dict:
    """What ``expected.json`` records for one workload."""
    digests = {"dex_sha256": {app_id: hashlib.sha256(data).hexdigest()
                              for app_id, data in unit.outputs}}
    reports = unit.extra.get("force") or []
    if reports:
        digests["paths_executed"] = [r.paths_executed for r in reports]
        digests["fully_covered_sites"] = [r.fully_covered_sites
                                          for r in reports]
    return digests


def _check_expected(unit: Unit, expected: dict) -> list:
    if not expected:
        return ["no expected outputs recorded for this workload"]
    actual = output_digests(unit)
    problems = []
    for key, want in expected.items():
        have = actual.get(key)
        if have != want:
            problems.append(f"{key}: expected {want}, got {have}")
    return problems


def revealed_instructions(outputs: list) -> int:
    """Instructions in the revealed DEX files; outputs that do not
    parse count 0 (:func:`_check_valid` reports them)."""
    total = 0
    for _app, data in outputs:
        try:
            total += read_dex(data).total_instruction_count()
        except Exception:
            continue
    return total


_FORCE_THREAD = RevealConfig(use_force_execution=True,
                             force_iterations=FORCE_ITERATIONS,
                             explore_backend="thread", explore_workers=1)
_FORCE_PROCESS = _FORCE_THREAD.replace(explore_backend="process",
                                       explore_workers=2)

WORKLOADS = {
    "reveal-corpus": RevealLoop(RevealConfig()),
    # The thread/process agreement check runs on force-explore only:
    # one extra reveal per run is enough to hold the two backends to
    # the same bytes.
    "force-explore": RevealLoop(_FORCE_THREAD, packages=(FORCE_APP,),
                                cross_check=_FORCE_PROCESS),
    "force-explore-proc": RevealLoop(_FORCE_PROCESS, packages=(FORCE_APP,)),
    "fleet-stores": FleetStores(),
}

