"""Process-shippable exploration replay: ReplaySpec in, TraceDelta out.

Force execution replays path files on isolated runtimes.  For replays
to leave the process — a worker pool, eventually a fleet — the unit of
work must be a *value*, not a closure over engine state.  This module
defines that boundary:

* :class:`ReplaySpec` — everything a fresh process needs to hydrate an
  isolated runtime and execute one replay: app identity and serialised
  APK bytes, the device profile, the path file (decision prefix plus
  flip), the per-replay step budget, and an optional predecode index
  (:mod:`repro.runtime.predecode`) so the worker warm-starts instead of
  re-decoding.  Compact, picklable, JSON-round-trippable.
* :class:`TraceDelta` — everything one replay produced: the ordered
  branch decisions, the collector delta (classes, method records with
  their new trees, reflection targets, instruction counts), the steps
  consumed and the outcome flags.  Trees the engine already held when
  the wave started never enter a delta (``ReplaySpec.known_trees``).
  The engine merges deltas strictly in pop order, which is the whole
  determinism contract: because *results* travel as values and
  *merging* is single-threaded and ordered, the covered-site set,
  collector stats and exploration order are bit-for-bit identical at
  any worker count on any backend.
* :func:`execute_replay` — the one replay body all backends share:
  hydrate (or borrow) an APK, build a fresh runtime + tracer + private
  collector, drive, and return the delta.  The thread backend calls it
  in-process against the engine's APK; the process backend
  calls it in a forked worker against a hydrated copy.

The module-level ``_process_worker_*`` functions are the process-pool
protocol (initializer + task); they live at module scope so the pool
can pickle references to them.  Workers are created with the ``fork``
start method: the process-wide native-library registry
(:data:`repro.runtime.apk.NATIVE_LIBRARY_REGISTRY`) is populated by
sample/packer generation in the parent and is inherited by forked
children, exactly like the batch service's process backend.
"""

from __future__ import annotations

import base64
import dataclasses
from collections import deque
from dataclasses import dataclass, field

from repro.core.collector import (
    DexLegoCollector,
    delta_from_json,
    delta_to_json,
)
from repro.core.exploration import BranchSite, Decision, PathFile
from repro.errors import BudgetExceeded, VmCrash
from repro.runtime.apk import Apk
from repro.runtime.art import AndroidRuntime
from repro.runtime.device import NEXUS_5X, DeviceProfile
from repro.runtime.events import AppDriver, DriveReport
from repro.runtime.exceptions import VmThrow
from repro.runtime.hooks import BranchController, RuntimeListener
from repro.runtime.predecode import warm_predecode

__all__ = [
    "BranchTraceListener",
    "ForcedPathController",
    "ReplaySpec",
    "TraceDelta",
    "execute_replay",
]


class BranchTraceListener(RuntimeListener):
    """Records the ordered conditional-branch decisions of one run."""

    def __init__(self) -> None:
        self.trace: list[Decision] = []

    def on_branch(self, frame, dex_pc: int, ins, taken: bool) -> None:
        method = frame.method
        if method.declaring_class.source_dex is None:
            return
        self.trace.append((method.ref.signature, dex_pc, taken))


class ForcedPathController(BranchController):
    """Forces the interpreter along a path file's decisions, in order."""

    def __init__(self, path: PathFile) -> None:
        self.queue: deque[Decision] = deque(path.decisions)
        self.mismatches = 0
        self.forced = 0

    def decide(self, frame, dex_pc: int, ins, concrete_taken: bool) -> bool | None:
        if not self.queue:
            return None  # past the UCB: free execution
        signature, expected_pc, outcome = self.queue[0]
        if (
            frame.method.declaring_class.source_dex is not None
            and frame.method.ref.signature == signature
            and dex_pc == expected_pc
        ):
            self.queue.popleft()
            self.forced += 1
            return outcome
        if frame.method.declaring_class.source_dex is not None:
            self.mismatches += 1
        return None

    @property
    def reached_target(self) -> bool:
        """True once every decision (including the flip) was forced."""
        return not self.queue


@dataclass
class ReplaySpec:
    """One replay as a value: what a fresh worker process hydrates.

    ``apk_bytes`` is the serialised application (``Apk.to_bytes``);
    ``app_id`` names it for error messages and affinity checks without
    deserialising.  ``path`` is ``None`` for a baseline (unforced) run.
    ``predecode_index`` optionally ships the exporting process's warm
    decode state (content-validated on adoption).  ``collect`` turns
    the per-replay collector off for engines that only measure
    coverage — the delta then carries no collector payload.
    ``known_trees`` is the set of tree digests the engine held when
    this replay's wave started; the replay's collector drops those
    trees instead of shipping them back.
    """

    app_id: str
    apk_bytes: bytes
    device: DeviceProfile = NEXUS_5X
    path: PathFile | None = None
    step_budget: int = 2_000_000
    predecode_index: dict | None = None
    collect: bool = True
    known_trees: frozenset = frozenset()

    def with_path(self, path: PathFile | None) -> "ReplaySpec":
        return dataclasses.replace(self, path=path)

    def hydrate(self) -> Apk:
        """Rebuild the application in this process, warm-started."""
        apk = Apk.from_bytes(self.apk_bytes)
        if self.predecode_index is not None:
            warm_predecode(apk.dex_files, self.predecode_index)
        return apk

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "app_id": self.app_id,
            "apk_b64": base64.b64encode(self.apk_bytes).decode("ascii"),
            "device": dataclasses.asdict(self.device),
            "path": None if self.path is None else self.path.to_dict(),
            "step_budget": self.step_budget,
            "predecode_index": self.predecode_index,
            "collect": self.collect,
            "known_trees": sorted(d.hex() for d in self.known_trees),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReplaySpec":
        path = data.get("path")
        return cls(
            app_id=data["app_id"],
            apk_bytes=base64.b64decode(data["apk_b64"]),
            device=DeviceProfile(**data["device"]),
            path=None if path is None else PathFile.from_dict(path),
            step_budget=data.get("step_budget", 2_000_000),
            predecode_index=data.get("predecode_index"),
            collect=bool(data.get("collect", True)),
            known_trees=frozenset(bytes.fromhex(d)
                                  for d in data.get("known_trees", ())),
        )


@dataclass
class TraceDelta:
    """What one replay produced, as a value the engine merges in order.

    ``trace`` is the run's ordered branch decisions; ``collector`` is a
    :meth:`DexLegoCollector.delta_dict` payload (or ``None`` when the
    spec disabled collection); ``steps`` is the interpreter steps the
    run consumed.  The flags mirror what the engine's in-process
    execution used to observe directly: budget exhaustion, a crash, how
    many decisions the controller forced and whether the flip itself
    was reached.  ``worker_lost`` marks a replay whose worker process
    died — the delta is empty and the engine counts the loss without
    failing the wave.
    """

    trace: list[Decision] = field(default_factory=list)
    collector: dict | None = None
    steps: int = 0
    budget_hit: bool = False
    crashed: bool = False
    forced: int = 0
    reached_target: bool = False
    worker_lost: bool = False

    def covered_sites(self) -> set[BranchSite]:
        """The branch sites this replay touched (either outcome)."""
        return {(signature, dex_pc) for signature, dex_pc, _ in self.trace}

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "trace": [list(d) for d in self.trace],
            "collector": (None if self.collector is None
                          else delta_to_json(self.collector)),
            "steps": self.steps,
            "budget_hit": self.budget_hit,
            "crashed": self.crashed,
            "forced": self.forced,
            "reached_target": self.reached_target,
            "worker_lost": self.worker_lost,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceDelta":
        collector = data.get("collector")
        return cls(
            trace=[(d[0], d[1], bool(d[2])) for d in data.get("trace", [])],
            collector=(None if collector is None
                       else delta_from_json(collector)),
            steps=data.get("steps", 0),
            budget_hit=bool(data.get("budget_hit", False)),
            crashed=bool(data.get("crashed", False)),
            forced=data.get("forced", 0),
            reached_target=bool(data.get("reached_target", False)),
            worker_lost=bool(data.get("worker_lost", False)),
        )


def execute_replay(
    spec: ReplaySpec,
    apk: Apk | None = None,
    drive=None,
    extra_listeners: tuple = (),
    interned: dict | None = None,
) -> TraceDelta:
    """The one replay body every backend shares.

    Builds an isolated runtime for ``spec`` and returns its delta.
    ``apk`` lets in-process backends reuse the engine's live object
    (sharing its decode stores) instead of deserialising; a worker
    process passes its hydrated copy.  ``interned`` is the instruction
    interning table of the collector (see :class:`DexLegoCollector`);
    it must belong to ``apk``, whose decode stores it points into.
    ``drive`` and
    ``extra_listeners`` exist for the in-process backends only — a
    custom drive callable and live listeners cannot ship to another
    process, which is why the engine refuses to combine them with the
    process backend.
    """
    if apk is None:
        apk = spec.hydrate()
    runtime = AndroidRuntime(spec.device, max_steps=spec.step_budget)
    runtime.tolerate_exceptions = True
    controller = None
    if spec.path is not None:
        controller = ForcedPathController(spec.path)
        runtime.branch_controller = controller
    tracer = BranchTraceListener()
    runtime.add_listener(tracer)
    collector = (DexLegoCollector(interned, spec.known_trees)
                 if spec.collect else None)
    if collector is not None:
        runtime.add_listener(collector)
    for listener in extra_listeners:
        runtime.add_listener(listener)
    driver = AppDriver(runtime, apk)
    drive = drive or (lambda d: d.run_standard_session())
    budget_hit = crashed = False
    try:
        outcome = drive(driver)
    except BudgetExceeded:
        budget_hit = True
    except (VmCrash, VmThrow):
        # Native crashes (and any exception escaping the tolerant
        # interpreter) end the run but keep what was collected.
        crashed = True
    else:
        # Standard drivers absorb budget/crash endings into their
        # DriveReport instead of raising; fold those flags in so
        # starved replays are counted as such.
        if isinstance(outcome, DriveReport):
            budget_hit = outcome.budget_exhausted
            crashed = outcome.crashed
    return TraceDelta(
        trace=tracer.trace,
        collector=None if collector is None else collector.delta_dict(),
        steps=runtime.steps,
        budget_hit=budget_hit,
        crashed=crashed,
        forced=controller.forced if controller is not None else 0,
        reached_target=(controller.reached_target
                        if controller is not None else False),
    )


# -- process-pool protocol --------------------------------------------------
# One hydration per worker (the initializer), one replay per task.  The
# hydrated APK persists across tasks, so its shared decode stores — and
# the instruction interning table pointing into them — stay warm for
# every replay the worker executes: the process-level equivalent of the
# engine reusing its own APK across a run.

_WORKER_APK: Apk | None = None
_WORKER_SPEC: ReplaySpec | None = None
_WORKER_INTERNED: dict = {}


def _process_worker_init(spec: ReplaySpec) -> None:
    global _WORKER_APK, _WORKER_SPEC, _WORKER_INTERNED
    _WORKER_SPEC = spec
    _WORKER_APK = spec.hydrate()
    _WORKER_INTERNED = {}


def _process_worker_replay(path_json: str,
                           known_trees: frozenset) -> TraceDelta:
    spec = dataclasses.replace(_WORKER_SPEC,
                               path=PathFile.from_json(path_json),
                               known_trees=known_trees)
    return execute_replay(spec, apk=_WORKER_APK, interned=_WORKER_INTERNED)
