"""Differential proof that the fast path changes nothing observable.

The same benchsuite app is driven twice — once on the fast path
(predecode cache + opcode-value dispatch + listener fan-out) and once on
the naive reference interpreter (decode every step, string-mnemonic
dispatch).  Instruction traces, collector stats, the collection files
byte for byte, step counts and the taint oracle must be identical: the
reference interpreter is the oracle for the collector too, which
interns instructions only on the fast path.  All four self-modifying
samples are in the corpus: they are exactly the apps whose live-fetch
semantics the cache (and the interning riding on it) could conceivably
break.
"""

import pytest

from repro.benchsuite import droidbench_samples
from repro.core import CollectionArchive, DexLegoCollector
from repro.core.collection_files import ALL_FILES
from repro.runtime import AndroidRuntime, AppDriver
from repro.runtime.hooks import RuntimeListener
from repro.runtime.interpreter import Interpreter


class TraceListener(RuntimeListener):
    """Records every fetch: (method, pc, mnemonic, operands), and the
    distinct (method, pc) pairs of application code the collector saw."""

    def __init__(self) -> None:
        self.trace: list[tuple] = []
        self.app_sites: set[tuple] = set()

    def on_instruction(self, frame, dex_pc, ins) -> None:
        signature = frame.method.ref.signature
        self.trace.append((signature, dex_pc, ins.name, ins.operands))
        if frame.method.declaring_class.source_dex is not None:
            self.app_sites.add((signature, dex_pc))


def _differential_corpus():
    """Every self-modifying sample plus one representative per category."""
    samples = droidbench_samples()
    picked, seen_categories = [], set()
    for sample in samples:
        if sample.category == "selfmod":
            picked.append(sample)
        elif sample.category not in seen_categories:
            seen_categories.add(sample.category)
            picked.append(sample)
    return picked


def _drive(sample, fast_path: bool):
    runtime = AndroidRuntime(device=sample.device, max_steps=3_000_000)
    runtime.interpreter = Interpreter(runtime, fast_path=fast_path)
    tracer = TraceListener()
    collector = DexLegoCollector()
    runtime.add_listener(tracer)
    runtime.add_listener(collector)
    report = AppDriver(runtime, sample.build_apk()).run_standard_session()
    leaks = {
        (event.sink_signature, tag)
        for event in runtime.observed_leaks()
        for tag in event.provenance
    }
    archive = CollectionArchive.from_collector(collector)
    return {
        "trace": tracer.trace,
        "stats": collector.stats(),
        "files": {name: archive._payload[name] for name in ALL_FILES},
        "interned": len(collector.interned),
        "app_sites": len(tracer.app_sites),
        "steps": runtime.steps,
        "leaks": leaks,
        "crashed": report.crashed,
    }


@pytest.mark.parametrize("sample", _differential_corpus(), ids=lambda s: s.name)
def test_fast_path_identical_to_reference(sample):
    fast = _drive(sample, fast_path=True)
    reference = _drive(sample, fast_path=False)
    assert fast["trace"] == reference["trace"]
    assert fast["stats"] == reference["stats"]
    assert fast["files"] == reference["files"]
    # Interning is bounded by code size: at most one entry per distinct
    # (method, pc) collected, and none for the reference loop's fresh
    # per-step decodes.
    for drive in (fast, reference):
        assert drive["interned"] <= drive["app_sites"]
    assert fast["interned"] > 0
    assert reference["interned"] == 0
    assert fast["steps"] == reference["steps"]
    assert fast["leaks"] == reference["leaks"]
    assert fast["crashed"] == reference["crashed"]


def test_corpus_includes_all_selfmod_samples():
    corpus = _differential_corpus()
    assert sum(1 for s in corpus if s.category == "selfmod") == 4
