"""ReplaySpec/TraceDelta are values: round trips and crash isolation.

The process backend works only because a replay's input and output are
plain values — picklable for the pool, JSON-round-trippable for the
journal.  These tests pin that property down across the field space
(custom device profiles, unicode app identities, empty and
budget-starved deltas), then prove the other half of the contract: a
worker process dying mid-wave costs exactly that path, never the wave.
"""

import dataclasses
import json
import os
import pickle

import pytest

from repro.core import ForceExecutionEngine, PathFile, ReplaySpec, TraceDelta
from repro.core.exploration import BACKEND_PROCESS
from repro.core.replay import execute_replay
from repro.dex import assemble
from repro.runtime import Apk, register_native_library
from repro.runtime.device import NEXUS_5X, DeviceProfile

TABLET = dataclasses.replace(
    NEXUS_5X,
    name="bench-tablet", model="SM-X900", brand="samsung",
    form_factor="tablet", imei="990000862471854",
)
EMULATOR = dataclasses.replace(
    NEXUS_5X, name="goldfish", hardware="ranchu", is_emulator=True,
)


def _tiny_apk(package: str = "r.tiny") -> Apk:
    text = """
.class public Lr/Tiny;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    const/4 v0, 0
    if-nez v0, :locked
    :done
    return-void
    :locked
    nop
    goto :done
.end method
"""
    return Apk(package, "Lr/Tiny;", [assemble(text)])


def _spec_cases() -> list[ReplaySpec]:
    """A spread of the field space, property-style: every combination a
    scheduler or CLI could realistically build."""
    apk_bytes = _tiny_apk().to_bytes()
    path = PathFile(
        target=("Lr/Tiny;->onCreate(Landroid/os/Bundle;)V", 2),
        forced_outcome=True,
        decisions=[("Lr/Tiny;->onCreate(Landroid/os/Bundle;)V", 2, True)],
    )
    index = {"version": 1, "methods": [
        {"signature": "Lr/Tiny;->onCreate(Landroid/os/Bundle;)V",
         "generation": 0, "entries": [[0, [18, 313]]]},
    ]}
    cases = []
    for app_id in ("r.tiny", "приложение.пакет", "アプリ-例", "🎯.target",
                   "a" * 200):
        for device in (NEXUS_5X, TABLET, EMULATOR):
            cases.append(ReplaySpec(app_id=app_id, apk_bytes=apk_bytes,
                                    device=device))
    cases.append(ReplaySpec("r.tiny", apk_bytes, path=path, step_budget=7,
                            predecode_index=index, collect=False))
    cases.append(ReplaySpec("r.tiny", b"", path=None, step_budget=1))
    return cases


def _delta_cases() -> list[TraceDelta]:
    sig = "Lr/Tiny;->onCreate(Landroid/os/Bundle;)V"
    return [
        TraceDelta(),  # empty: a worker that saw nothing
        TraceDelta(trace=[(sig, 2, True), (sig, 2, False)],
                   steps=11, forced=1, reached_target=True),
        TraceDelta(trace=[(sig, 2, True)], steps=3, budget_hit=True,
                   collector={"classes": [], "methods": [],
                              "reflection": [], "instructions_observed": 3}),
        TraceDelta(crashed=True, worker_lost=True),
    ]


class TestReplaySpecRoundTrip:
    @pytest.mark.parametrize("spec", _spec_cases(),
                             ids=lambda s: f"{s.app_id[:12]}-{s.device.name}")
    def test_pickle_round_trip(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("spec", _spec_cases(),
                             ids=lambda s: f"{s.app_id[:12]}-{s.device.name}")
    def test_dict_round_trip(self, spec):
        assert ReplaySpec.from_dict(spec.to_dict()) == spec

    def test_with_path_is_a_fresh_value(self):
        spec = _spec_cases()[0]
        path = PathFile(target=("m", 4), forced_outcome=False)
        forked = spec.with_path(path)
        assert forked.path is path and spec.path is None
        assert forked.apk_bytes is spec.apk_bytes  # no copy of the APK

    def test_hydrate_rebuilds_the_app(self):
        apk = _tiny_apk("r.hydrate")
        spec = ReplaySpec("r.hydrate", apk.to_bytes())
        again = spec.hydrate()
        assert again.package == "r.hydrate"
        assert again is not apk


class TestTraceDeltaRoundTrip:
    @pytest.mark.parametrize("delta", _delta_cases(),
                             ids=["empty", "forced", "starved", "lost"])
    def test_pickle_round_trip(self, delta):
        again = pickle.loads(pickle.dumps(delta))
        assert again == delta
        assert again.covered_sites() == delta.covered_sites()

    @pytest.mark.parametrize("delta", _delta_cases(),
                             ids=["empty", "forced", "starved", "lost"])
    def test_dict_round_trip(self, delta):
        assert TraceDelta.from_dict(delta.to_dict()) == delta

    def test_real_delta_json_round_trip(self):
        # A delta's trees travel as objects; JSON is the one place they
        # become dicts, and coming back they must equal the originals.
        apk = _tiny_apk("r.json")
        delta = execute_replay(ReplaySpec("r.json", b""), apk=apk)
        assert any(entry["trees"] for entry in delta.collector["methods"])
        again = TraceDelta.from_dict(json.loads(json.dumps(delta.to_dict())))
        assert again == delta

    def test_budget_starved_replay_produces_a_starved_delta(self):
        # A real starved run, not a hand-built one: the budget dies
        # mid-drive and the delta still carries the executed prefix.
        apk = _tiny_apk("r.starve")
        spec = ReplaySpec("r.starve", apk.to_bytes(), step_budget=2)
        delta = execute_replay(spec, apk=apk)
        assert delta.budget_hit
        assert delta.steps >= 2  # the executed prefix is in the delta
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_empty_delta_covers_nothing(self):
        assert TraceDelta().covered_sites() == set()


# -- crash isolation ---------------------------------------------------------

KILLER_CLS = "Lr/Killer;"
KILLER_SIG = f"{KILLER_CLS}->onCreate(Landroid/os/Bundle;)V"


def _die(ctx, this):
    # Simulate a worker process being OOM-killed / segfaulting: an
    # abrupt exit the pool sees as a broken process, not an exception.
    os._exit(86)


register_native_library("libr_killer", {f"{KILLER_CLS}->die()V": _die})


def _killer_apk(package: str = "r.killer") -> Apk:
    """Two independent one-sided gates; the first hides a native that
    hard-kills whatever process executes it.  The baseline never enters
    either gate, so only the replay that forces gate A dies."""
    text = f"""
.class public {KILLER_CLS}
.super Landroid/app/Activity;
.field public static b:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    if-nez v0, :killed
    :skip0
    const/4 v1, 0
    if-nez v1, :locked
    :done
    return-void
    :killed
    invoke-virtual {{p0}}, {KILLER_CLS}->die()V
    goto :skip0
    :locked
    sget v2, {KILLER_CLS}->b:I
    add-int/lit8 v2, v2, 1
    sput v2, {KILLER_CLS}->b:I
    goto :done
.end method

.method public native die()V
.end method
"""
    return Apk(package, KILLER_CLS, [assemble(text)],
               native_libraries=["libr_killer"])


class TestCrashIsolation:
    def test_worker_death_costs_one_path_not_the_wave(self):
        engine = ForceExecutionEngine(
            _killer_apk(), max_iterations=6, workers=2,
            backend=BACKEND_PROCESS,
        )
        report = engine.run()
        # Exactly the poisoned path was lost (after its retry)...
        assert report.workers_lost == 1
        # ...while its wave-mate completed: the safe gate is covered.
        covered = {site for site, seen in engine.outcomes.items()
                   if len(seen) == 2}
        assert any(pc != 2 for _, pc in covered)
        # The run converged instead of erroring out.
        assert report.frontier_pending == 0

    def test_parent_engine_survives_repeated_worker_loss(self):
        # A second exploration on the same engine-less corpus shape:
        # the pool is rebuilt per engine, so one test's dead workers
        # must not leak into the next run.
        engine = ForceExecutionEngine(
            _killer_apk("r.killer2"), max_iterations=6, workers=2,
            backend=BACKEND_PROCESS,
        )
        report = engine.run()
        assert report.workers_lost == 1
        assert report.runs >= 2  # baseline + at least the safe replay
