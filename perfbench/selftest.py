"""The benchmark's own tests.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run them explicitly from the checkout root::

    python3 -m pytest perfbench/selftest.py -q

``test_exact_counters_repeat`` runs every workload twice with tracing
on and takes several minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTER_SEED = 2


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _noted(stdout: str, key: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith(f"{key}: "):
            return json.loads(line[len(key) + 2:])
    raise AssertionError(f"no {key!r} line in:\n{stdout}")


def test_benchmark_json_declares_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_self_time_excludes_children_and_same_name_nesting():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        tracer.call("leaf", leaf, (), {})
        tracer.call("outer", lambda: time.sleep(0.01), (), {})
        time.sleep(0.01)

    tracer.call("outer", outer, (), {})
    count, inclusive, self_s = tracer.span_total("outer")
    assert count == 2
    # The nested "outer" adds self time but not a second inclusive span.
    assert 0.04 <= inclusive < 0.1
    assert 0.02 <= self_s < inclusive - 0.015
    assert tracer.span_total("leaf")[1] >= 0.02


def test_install_and_uninstall_restore_every_original():
    targets = run.wrapper_targets()
    assert targets and not run.wrapped_now(targets)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert len(run.wrapped_now(targets)) == len(targets)
    finally:
        tracer.uninstall()
    assert not run.wrapped_now(targets)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "reveal-corpus", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_exact_counters_repeat(workload):
    counters = []
    for _ in range(2):
        done = _bench("--workload", workload, "--seed", str(COUNTER_SEED),
                      "--seconds", "1", "--trace", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"]["trace.overhead_s"]["unit"] == "s"
        counters.append(_noted(done.stdout, "exact_counters"))
    assert counters[0] == counters[1]
    assert counters[0]["revealed_instructions"] > 0
