"""Per-layer metrics: which public calls are timed, and what is counted.

:func:`install` puts a span around the public entry points of every
layer the benchmark reports on; :func:`per_layer_metrics` folds the
spans, the counters the program already returns (``collector_stats``,
``force_report``, ``index_stats``, job records, ``/v1/stats``) and the
workload's own observations into the flat ``<module>.<quantity>``
metrics.  A metric whose layer a workload never calls reads 0.

Busy times (``_s``) are inclusive.  A span that has child spans is also
reported as self time (``_self_s``: its duration minus the part its
children cover on the same thread); for the leaf spans the two are
equal, so only the inclusive figure is printed.

Unmeasurable from outside: work done inside the ``process`` backend's
worker processes.  On ``force-explore-proc`` the replays, their drives
and ``delta_dict`` run in forked children whose spans never reach the
parent, so ``replay.busy_s``, ``replay.busy_self_s`` and
``delta.serialise_s`` read 0 there and ``replay.wave_wait_s`` carries
the whole wait; ``delta.absorb_s`` and the exact counters are the
parent's view and are measured.
"""

from __future__ import annotations

import pickle
import statistics

from tracer import Tracer

#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("stage.collect_s", "s"),
    ("stage.collect_self_s", "s"),
    ("stage.reassemble_s", "s"),
    ("stage.reassemble_self_s", "s"),
    ("stage.verify_s", "s"),
    ("stage.verify_self_s", "s"),
    ("stage.repack_s", "s"),
    ("stage.repack_self_s", "s"),
    ("collect.baseline_s", "s"),
    ("collect.instructions_observed", "count"),
    ("collect.instructions_collected", "count"),
    ("collect.collect_ratio", "ratio"),
    ("replay.count", "count"),
    ("replay.deduped", "count"),
    ("replay.steps", "count"),
    ("replay.busy_s", "s"),
    ("replay.busy_self_s", "s"),
    ("replay.wave_wait_s", "s"),
    ("delta.serialise_s", "s"),
    ("delta.absorb_s", "s"),
    ("delta.trees_shipped", "count"),
    ("delta.trees_kept", "count"),
    ("delta.keep_ratio", "ratio"),
    ("delta.bytes", "bytes"),
    ("explore.sched_s", "s"),
    ("explore.waves", "count"),
    ("explore.covered_sites", "count"),
    ("reassemble.busy_s", "s"),
    ("reassemble.busy_self_s", "s"),
    ("reassemble.methods", "count"),
    ("archive.decodes", "count"),
    ("archive.decode_s", "s"),
    ("dex.write_s", "s"),
    ("dex.read_s", "s"),
    ("dex.verify_s", "s"),
    ("dex.bytes", "bytes"),
    ("repack.clone_s", "s"),
    ("repack.clone_self_s", "s"),
    ("index.register_s", "s"),
    ("index.register_self_s", "s"),
    ("index.probe_s", "s"),
    ("index.get_body_s", "s"),
    ("index.bodies_replayed", "count"),
    ("index.bodies_emitted", "count"),
    ("index.replay_ratio", "ratio"),
    ("digest.fuzzy_calls", "count"),
    ("digest.fuzzy_s", "s"),
    ("digest.fuzzy_per_method", "ratio"),
    ("cluster.label_s", "s"),
    ("cluster.label_self_s", "s"),
    ("cluster.register_s", "s"),
    ("cluster.register_self_s", "s"),
    ("cluster.nearest_calls", "count"),
    ("cluster.nearest_s", "s"),
    ("cluster.distance_evals", "count"),
    ("cluster.evals_per_lookup", "ratio"),
    ("jobs.queue_wait_p50_s", "s"),
    ("jobs.run_p50_s", "s"),
    ("jobstore.claim_s", "s"),
    ("jobstore.complete_s", "s"),
    ("jobstore.claims", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.put_self_s", "s"),
    ("cache.hits", "count"),
    ("cache.hit_apps_per_s", "1/s"),
    ("artifacts.put_s", "s"),
    ("artifacts.get_s", "s"),
    ("artifacts.bytes", "bytes"),
    ("http.requests", "count"),
    ("http.request_s", "s"),
    ("http.polls_per_job", "ratio"),
    ("http.retries", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)

#: Counters that repeat exactly at a fixed seed on every workload.
EXACT_COUNTERS = (
    "collect.instructions_observed",
    "collect.instructions_collected",
    "replay.count",
    "replay.deduped",
    "replay.steps",
    "delta.trees_shipped",
    "delta.trees_kept",
    "delta.bytes",
    "explore.waves",
    "explore.covered_sites",
    "reassemble.methods",
    "dex.bytes",
    "archive.decodes",
    "digest.fuzzy_calls",
    "jobstore.claims",
    "cache.hits",
)

#: Counters that repeat exactly only where one caller reveals at a
#: time.  In ``fleet-stores`` two workers race for the shared index and
#: cluster store, so how many bodies a reveal can replay, and how many
#: members an LSH lookup scans, depend on which reveal registered
#: first.
ORDER_DEPENDENT_COUNTERS = (
    "index.bodies_replayed",
    "index.bodies_emitted",
    "cluster.nearest_calls",
    "cluster.distance_evals",
)

#: Span name -> (inclusive metric, self metric or None).
_SPAN_METRICS = {
    "stage.collect": ("stage.collect_s", "stage.collect_self_s"),
    "stage.reassemble": ("stage.reassemble_s", "stage.reassemble_self_s"),
    "stage.verify": ("stage.verify_s", "stage.verify_self_s"),
    "stage.repack": ("stage.repack_s", "stage.repack_self_s"),
    "collect.baseline": ("collect.baseline_s", None),
    "replay.run": ("replay.busy_s", "replay.busy_self_s"),
    "delta.serialise": ("delta.serialise_s", None),
    "delta.absorb": ("delta.absorb_s", None),
    "explore.sched": ("explore.sched_s", None),
    "reassemble.busy": ("reassemble.busy_s", "reassemble.busy_self_s"),
    "archive.decode": ("archive.decode_s", None),
    "dex.write": ("dex.write_s", None),
    "dex.read": ("dex.read_s", None),
    "dex.verify": ("dex.verify_s", None),
    "repack.clone": ("repack.clone_s", "repack.clone_self_s"),
    "index.register": ("index.register_s", "index.register_self_s"),
    "index.probe": ("index.probe_s", None),
    "index.get_body": ("index.get_body_s", None),
    "digest.fuzzy": ("digest.fuzzy_s", None),
    "cluster.label": ("cluster.label_s", "cluster.label_self_s"),
    "cluster.register": ("cluster.register_s", "cluster.register_self_s"),
    "cluster.nearest": ("cluster.nearest_s", None),
    "jobstore.claim": ("jobstore.claim_s", None),
    "jobstore.complete": ("jobstore.complete_s", None),
    "cache.get": ("cache.get_s", None),
    "cache.put": ("cache.put_s", "cache.put_self_s"),
    "artifacts.put": ("artifacts.put_s", None),
    "artifacts.get": ("artifacts.get_s", None),
    "http.request": ("http.request_s", None),
}

STAGE_SPANS = ("stage.collect", "stage.reassemble", "stage.verify",
               "stage.repack")


def _tree_count(collector) -> int:
    return sum(len(record.trees)
               for record in collector.method_store.records.values())


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public calls.  Returns what the hooks collect
    while the unit runs: ``reveals``, one summary per ``Pipeline.run``,
    and ``deltas``, every collector payload absorbed."""
    from repro.cluster import labels, store as cluster_store
    from repro.core import (collection_files, collector, exploration,
                            force_execution, pipeline, reassembler, replay,
                            stages)
    from repro.dex import reader, verify, writer
    from repro.index import corpus, fuzzy
    from repro.runtime import apk, events
    from repro.service import artifacts, cache, http_client, jobs

    reveals: list[dict] = []
    absorbed: list[dict] = []

    def keep_reveal(result, _args, _state) -> None:
        report = result.force_report
        reveals.append({
            "collector": dict(result.collector_stats),
            "force": report.to_summary() if report is not None else {},
            "index": dict(result.index_stats),
        })

    t = tracer
    t.wrap_method(pipeline.Pipeline, "run", "pipeline.run",
                  after=keep_reveal)
    t.wrap_method(stages.CollectStage, "run", "stage.collect")
    t.wrap_method(stages.ReassembleStage, "run", "stage.reassemble")
    t.wrap_method(stages.VerifyStage, "run", "stage.verify")
    t.wrap_method(stages.RepackStage, "run", "stage.repack")

    t.wrap_method(
        events.AppDriver, "run_standard_session",
        lambda tr, _args: ("replay.drive" if tr.active("replay.run")
                           else "collect.baseline"))
    t.wrap_function(
        replay, "execute_replay",
        lambda _tr, args: ("replay.run" if args[0].path is not None
                           else "collect.baseline_replay"))
    t.wrap_method(force_execution.ForceExecutionEngine, "_replay_wave",
                  "replay.wave")

    def delta_before(args):
        return _tree_count(args[0])

    def delta_after(_result, args, before) -> None:
        own, delta = args[0], args[1]
        t.add("delta.trees_shipped",
              sum(len(entry["trees"]) for entry in delta.get("methods", ())))
        t.add("delta.trees_kept", _tree_count(own) - before)
        # Pickled after the traced unit: pickling here would add
        # seconds of overhead to the collect stage.
        absorbed.append(delta)

    t.wrap_method(collector.DexLegoCollector, "delta_dict",
                  "delta.serialise")
    t.wrap_method(collector.DexLegoCollector, "absorb", "delta.absorb",
                  before=delta_before, after=delta_after)
    for attr in ("pop_wave", "offer", "observe_trace"):
        t.wrap_method(exploration.ExplorationScheduler, attr,
                      "explore.sched")

    def count_methods(_result, args, _state) -> None:
        own = args[0]
        t.add("reassemble.methods", own.bodies_emitted + own.bodies_replayed)

    t.wrap_method(reassembler.Reassembler, "reassemble", "reassemble.busy",
                  after=count_methods)
    t.wrap_method(collection_files.CollectionArchive, "method_store",
                  "archive.decode")
    t.wrap_function(writer, "write_dex", "dex.write")
    t.wrap_function(reader, "read_dex", "dex.read")
    t.wrap_function(verify, "assert_valid", "dex.verify")
    t.wrap_method(apk.Apk, "clone", "repack.clone")

    t.wrap_method(corpus.CorpusIndex, "register_reassembly", "index.register")
    t.wrap_method(corpus.CorpusIndex, "probe_method_store", "index.probe")
    t.wrap_method(corpus.CorpusIndex, "get_body", "index.get_body")
    t.wrap_function(fuzzy, "fuzzy_digest", "digest.fuzzy")
    t.count_function(fuzzy, "fuzzy_distance", "cluster.distance_evals")
    t.wrap_method(labels.AutoLabeler, "label_records", "cluster.label")
    t.wrap_method(cluster_store.ClusterStore, "register_records",
                  "cluster.register")
    t.wrap_method(cluster_store.ClusterStore, "nearest", "cluster.nearest")

    def count_claim(result, _args, _state) -> None:
        if result is not None:
            t.add("jobstore.claims")

    t.wrap_method(jobs.JobStore, "claim_next", "jobstore.claim",
                  after=count_claim)
    t.wrap_method(jobs.JobStore, "complete_leased", "jobstore.complete")
    t.wrap_method(cache.RevealCache, "get", "cache.get")
    t.wrap_method(cache.RevealCache, "put", "cache.put")
    t.wrap_method(artifacts.ArtifactStore, "put", "artifacts.put")
    t.wrap_method(artifacts.ArtifactStore, "get", "artifacts.get")
    t.wrap_method(http_client.GatewayClient, "_request_once",
                  "http.request")
    t.wrap_method(http_client.GatewayClient, "job", "http.poll")
    return {"reveals": reveals, "deltas": absorbed}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, hooked: dict, observed: dict) -> dict:
    """Every :data:`PER_LAYER` metric for one traced unit.

    ``hooked`` is what :func:`install` returned.  ``observed`` carries
    what the workload itself saw: ``dex_bytes``,
    ``traced_wall_s``/``untraced_wall_s`` and, for the fleet, the job
    records, warm-wave figures, client retries and ``/v1/stats``.
    """
    values = {name: 0 for name, _unit in PER_LAYER}
    for span, (inclusive, self_metric) in _SPAN_METRICS.items():
        _count, incl, self_s = tracer.span_total(span)
        values[inclusive] = incl
        if self_metric is not None:
            values[self_metric] = self_s
    values["replay.wave_wait_s"] = tracer.span_total("replay.wave")[2]

    def total(section: str, key: str) -> int:
        return sum(int(r[section].get(key, 0) or 0)
                   for r in hooked["reveals"])

    observed_ins = total("collector", "instructions_observed")
    collected_ins = total("collector", "collected_instructions")
    values["collect.instructions_observed"] = observed_ins
    values["collect.instructions_collected"] = collected_ins
    values["collect.collect_ratio"] = _ratio(collected_ins, observed_ins)
    values["replay.count"] = total("force", "paths_explored")
    values["replay.deduped"] = total("force", "replays_saved_by_dedup")
    values["replay.steps"] = total("force", "replay_steps")
    values["explore.waves"] = total("force", "iterations")
    values["explore.covered_sites"] = total("force", "fully_covered_sites")

    counts = tracer.counts
    for name in ("delta.trees_shipped", "delta.trees_kept",
                 "reassemble.methods", "cluster.distance_evals",
                 "jobstore.claims"):
        values[name] = counts[name]
    values["delta.keep_ratio"] = _ratio(counts["delta.trees_kept"],
                                        counts["delta.trees_shipped"])
    values["delta.bytes"] = sum(len(pickle.dumps(delta))
                                for delta in hooked["deltas"])
    values["dex.bytes"] = observed.get("dex_bytes", 0)
    values["archive.decodes"] = tracer.span_total("archive.decode")[0]

    replayed = total("index", "bodies_replayed")
    emitted = total("index", "bodies_emitted")
    values["index.bodies_replayed"] = replayed
    values["index.bodies_emitted"] = emitted
    values["index.replay_ratio"] = _ratio(replayed, replayed + emitted)

    fuzzy_calls = tracer.span_total("digest.fuzzy")[0]
    values["digest.fuzzy_calls"] = fuzzy_calls
    methods = total("collector", "methods_executed")
    values["digest.fuzzy_per_method"] = (_ratio(fuzzy_calls, methods)
                                         if fuzzy_calls else 0.0)
    nearest_calls = tracer.span_total("cluster.nearest")[0]
    values["cluster.nearest_calls"] = nearest_calls
    values["cluster.evals_per_lookup"] = _ratio(
        counts["cluster.distance_evals"], nearest_calls)

    records = observed.get("cold_records", [])
    if records:
        values["jobs.queue_wait_p50_s"] = statistics.median(
            r["started_at"] - r["submitted_at"] for r in records)
        values["jobs.run_p50_s"] = statistics.median(
            r["finished_at"] - r["started_at"] for r in records)
    values["cache.hits"] = observed.get("warm_hits", 0)
    values["cache.hit_apps_per_s"] = observed.get("hit_apps_per_s", 0.0)
    values["artifacts.bytes"] = observed.get("artifact_bytes", 0)

    requests = tracer.span_total("http.request")[0]
    values["http.requests"] = requests
    values["http.polls_per_job"] = _ratio(
        tracer.span_total("http.poll")[0], observed.get("jobs_submitted", 0))
    values["http.retries"] = observed.get("http_retries", 0)

    values["trace.overhead_s"] = (observed["traced_wall_s"]
                                  - observed["untraced_wall_s"])
    values["trace.unattributed_s"] = tracer.span_total("pipeline.run")[2]
    return values


def reconcile(tracer: Tracer, tolerance: float) -> str | None:
    """The four stage spans (plus the labeling the pipeline runs after
    them) must account for the traced reveal wall time: the share of
    ``Pipeline.run`` no child span covers stays under ``tolerance``.
    Returns a failure message, or ``None``."""
    count, wall, unattributed = tracer.span_total("pipeline.run")
    if not count:
        return "no Pipeline.run span recorded"
    stages = sum(tracer.span_total(span)[1] for span in STAGE_SPANS)
    if stages > wall * (1 + 1e-6):
        return (f"stage spans ({stages:.4f}s) exceed the reveal wall "
                f"time ({wall:.4f}s)")
    if unattributed > tolerance * wall:
        return (f"{unattributed:.4f}s of {wall:.4f}s reveal wall time "
                "is outside the stage spans")
    return None
