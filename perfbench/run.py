"""The reveal benchmark: one workload, timed end to end or traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reveal-corpus --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then repeats its timed unit until the units have taken
``--seconds`` in all, and reports the end-to-end metrics.  ``--trace 1`` runs one unit
untraced and one with spans around every layer's public calls, and
reports the per-layer metrics (``perfbench/layers.py``).  Either way
the outputs are checked; the last line of standard output is one JSON
object, and the exit code is 1 when a check failed.  Without the
program's sources next to it the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: An untraced run sets up at least ``SETUP_MIN_REPEATS`` times and
#: until ``SETUP_MIN_SECONDS`` have gone into set-up (at most
#: ``SETUP_MAX_REPEATS``); ``setup_s`` is the median.  Cheap set-ups
#: repeat more, so their median is not one noisy sub-second sample.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 12

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("apps_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("revealed_instructions", "count"),
    ("peak_rss_mb", "MB"),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child
    (the process backend's workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_expected(workload: str) -> dict:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def record_expected(workload: str, digests: dict) -> None:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[workload] = digests
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def wrapper_targets():
    """Every (owner, attribute, original) the tracer would replace,
    found by installing and removing a throwaway tracer."""
    from layers import install
    from tracer import Tracer

    probe = Tracer()
    install(probe)
    targets = list(probe._patches)
    probe.uninstall()
    return targets


def wrapped_now(targets) -> list[str]:
    """Targets that are not their original function right now."""
    wrapped = []
    for owner, attr, original in targets:
        current = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        if current is not original:
            wrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return wrapped


class Run:
    """One invocation: the workload, its checks, and what it prints."""

    def __init__(self, args, workdir: str) -> None:
        from workloads import WORKLOADS

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.workdir = workdir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}

    def _setup(self, label: str):
        return self.workload.setup(self.args.seed,
                                   os.path.join(self.workdir, label))

    def _check(self, state, unit) -> None:
        from workloads import DEFAULT_SEED, output_digests

        self.attempted += unit.attempted
        self.failed += len(unit.failures)
        self.problems += unit.failures
        if self.args.record_expected:
            if self.args.seed != DEFAULT_SEED:
                self.problems.append("--record-expected needs the "
                                     f"default seed {DEFAULT_SEED}")
            else:
                record_expected(self.args.workload, output_digests(unit))
            expected = output_digests(unit)
        else:
            expected = load_expected(self.args.workload)
        self.problems += self.workload.check(state, unit, self.args.seed,
                                             expected)

    def untraced(self, targets) -> dict:
        from workloads import revealed_instructions

        wl = self.workload
        setup_times = []
        state = None
        while len(setup_times) < SETUP_MIN_REPEATS \
                or (sum(setup_times) < SETUP_MIN_SECONDS
                    and len(setup_times) < SETUP_MAX_REPEATS):
            if state is not None:
                wl.teardown(state)
            began = time.perf_counter()
            state = self._setup(f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - began)
        try:
            units = []
            while True:
                unit = wl.unit(state)
                if not units:
                    # Set-up plus one unit, however many units follow;
                    # read before the checks, which reveal again.
                    reap_children()
                    rss = peak_rss_mb()
                # Outside the unit's timing; drops the reveal results.
                wl.gather(state, unit)
                units.append(unit)
                if not wl.repeatable \
                        or sum(u.wall_s for u in units) >= self.args.seconds:
                    break
            wrapped = wrapped_now(targets)
            if wrapped:
                self.problems.append(f"untraced run found wrappers on "
                                     f"{wrapped}")
            first = units[0]
            self._check(state, first)
            for unit in units[1:]:
                self.attempted += unit.attempted
                self.failed += len(unit.failures)
                self.problems += unit.failures
                if unit.outputs != first.outputs:
                    self.problems.append("repeated units revealed "
                                         "different bytes")
        finally:
            wl.teardown(state)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(u.wall_s for u in units),
            "apps_per_s": statistics.median(u.apps_per_s for u in units),
            "job_p50_s": statistics.median(
                latency for u in units for latency in u.latencies),
            "revealed_instructions": revealed_instructions(first.outputs),
            "peak_rss_mb": rss,
        }
        self.notes["units"] = len(units)
        self.notes["setups"] = len(setup_times)
        if "app_latency_s" in first.extra:
            self.notes["app_latency_s"] = first.extra["app_latency_s"]
        if "warm_wall_s" in first.extra:
            self.notes["hit_apps_per_s"] = first.extra["hit_apps_per_s"]
            self.notes["warm_hits"] = first.extra["warm_hits"]
        reports = first.extra.get("force") or []
        if reports:
            self.notes["paths_executed"] = [r.paths_executed
                                            for r in reports]
            self.notes["fully_covered_sites"] = [r.fully_covered_sites
                                                 for r in reports]
        return metrics

    def traced(self, targets) -> dict:
        import layers
        from tracer import Tracer
        from workloads import revealed_instructions

        wl = self.workload
        state = self._setup("untraced")
        try:
            baseline = wl.unit(state)
            wl.gather(state, baseline)
        except BaseException:
            wl.teardown(state)
            raise
        if not wl.repeatable:
            # The fleet's cold wave needs cold stores.
            wl.teardown(state)
            state = self._setup("traced")
        try:
            tracer = Tracer()
            try:
                hooked = layers.install(tracer)
                unit = wl.unit(state)
            finally:
                tracer.uninstall()
            wrapped = wrapped_now(targets)
            if wrapped:
                self.problems.append(f"wrappers left installed on "
                                     f"{wrapped}")
            wl.gather(state, unit)
            self._check(state, unit)
            if unit.outputs != baseline.outputs:
                self.problems.append("traced and untraced units revealed "
                                     "different bytes")
        finally:
            wl.teardown(state)
        mismatch = layers.reconcile(tracer, wl.reconcile_tolerance)
        if mismatch is not None:
            self.problems.append(f"trace does not reconcile: {mismatch}")
        observed = dict(
            unit.extra,
            dex_bytes=sum(len(data) for _app, data in unit.outputs),
            traced_wall_s=unit.wall_s,
            untraced_wall_s=baseline.wall_s,
        )
        metrics = layers.per_layer_metrics(tracer, hooked, observed)
        self.notes["exact_counters"] = {
            name: metrics[name] for name in layers.EXACT_COUNTERS}
        self.notes["order_dependent_counters"] = {
            name: metrics[name] for name in layers.ORDER_DEPENDENT_COUNTERS}
        self.notes["exact_counters"]["revealed_instructions"] = \
            revealed_instructions(unit.outputs)
        return metrics


def reap_children() -> None:
    """Wait for every child process (the process backend's workers)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite this workload's entry in "
                             "expected.json from this run (default seed "
                             "only)")
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run = Run(args, workdir)
        targets = wrapper_targets()
        if args.trace:
            import layers
            metrics = run.traced(targets)
            units = dict(layers.PER_LAYER)
        else:
            metrics = run.untraced(targets)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        reap_children()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_ratio':32s} {ratio:16.6f} ratio "
          f"({run.failed} of {run.attempted})")
    if "hit_apps_per_s" in run.notes:
        print(f"  {'hit_apps_per_s':32s} "
              f"{run.notes['hit_apps_per_s']:16.6f} 1/s")
    for key, value in run.notes.items():
        if key != "hit_apps_per_s":
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
