"""Collection bytes pinned across releases, and the replay tree filter.

The collector interns instructions and replays ship only trees the
engine does not hold yet; neither may change a single byte of the
collection files.  The digests below were recorded before either
optimisation existed (every collection file of a force-execution reveal
at 2 iterations), and every replay backend must still produce them.
"""

import dataclasses
import hashlib
import sys

import pytest

from repro.benchsuite.categories.selfmod import samples as selfmod_samples
from repro.benchsuite.codegen import generate_app
from repro.core import Pipeline, ReplaySpec, RevealConfig
from repro.core.collection_files import ALL_FILES
from repro.core.replay import execute_replay

#: SHA-256 of ``[]``: the samples collect no fields or reflection.
_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


def _pin(class_data: str, method_data: str, bytecode: str) -> dict:
    return {
        "class_data.json": class_data,
        "field_data.json": _EMPTY,
        "method_data.json": method_data,
        "static_values.json": _EMPTY,
        "bytecode.json": bytecode,
        "reflection.json": _EMPTY,
    }


PINNED = {
    "SelfMod0": _pin(
        "6fdc079009c3c241c747f21f766b0ce8ded0a1c5b1cdaf4b1ada26f00abcc58f",
        "6535560be794960d40fa6a4f8200a9abced636129bc1840f3c123ad42558c2e6",
        "51a3a006b3fd88186724cdbe936388c742f8694f5186bf39f186ee207e84d69d"),
    "SelfMod1": _pin(
        "ec6796bc6b52a16046085ece7c5a42c28f8f8966c98242b2318ebb3e929a39bf",
        "88878227a24834e540b00f65642f12ea195880078c69e809145f129e71a19de3",
        "0d668752f29f661aa44bbfc5ec25f16d36381e697d8fb59da064a6536bcea49b"),
    "SelfMod2": _pin(
        "2a498dc0bb9ba2055530220ffa04a274becc1cc4ea48e79a7f84c707255def11",
        "e1994eba822aa0dd69e29a4c0c32509b41b405a8d20d470c930f316babe8f468",
        "76bde0206a27779980465acd98b82ca751f06f63501d1f7f5f771a7893d6c637"),
    "SelfMod3": _pin(
        "8187b4f486c18757e9d633cd64084c3caa0462d8ca017fca4ba1a5c34ffb66fa",
        "49b3e0d8bf46d6d24f85fd795026692a73654615997db2e1cda902119716d5db",
        "b8d995c2cd749eb3d64da2996e213cb8dd4bc9926efe2627432af427829adf02"),
    "generated": _pin(
        "b50e057a8d22f707226c94c7bfde16c8249984b6998a4d9f101bcf96e84fbbea",
        "2cd0bdcf146e3a9173248213c82228d5fa6c24d7c3124e6c5248449b49785ea9",
        "e66efd2acc2d3af42742faf0ddc463d1cbb0c38a42726052ce4cc2a1e08d9328"),
}

BACKENDS = [("thread", 1), ("thread", 2), ("process", 2)]


def _generated_apk():
    return generate_app("d.pinned", 300, seed=1).apk


def _builders() -> dict:
    builders = {sample.name: sample.build_apk for sample in selfmod_samples()}
    builders["generated"] = _generated_apk
    return builders


def _digests(name: str, backend: str, workers: int) -> dict:
    result = Pipeline(RevealConfig(
        use_force_execution=True, force_iterations=2,
        explore_backend=backend, explore_workers=workers,
    )).run(_builders()[name]())
    return {
        file: hashlib.sha256(
            result.archive._payload[file].encode("utf-8")).hexdigest()
        for file in ALL_FILES
    }


@pytest.mark.parametrize("backend,workers", BACKENDS,
                         ids=[f"{b}@{w}" for b, w in BACKENDS])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_collection_files_match_pinned_digests(name, backend, workers):
    assert _digests(name, backend, workers) == PINNED[name]


def test_shared_interning_table_under_rapid_thread_switching():
    # Eight replay threads on two cores share one interning table; a
    # switch every microsecond makes them interleave inside the
    # collector's check-then-intern as often as they can.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        digests = _digests("generated", "thread", 8)
    finally:
        sys.setswitchinterval(interval)
    assert digests == PINNED["generated"]


def test_pinned_generated_app_replays_paths():
    # Guard against vacuity: the generated app must actually run
    # replays, so the pins cover the filtered deltas of every backend.
    result = Pipeline(RevealConfig(
        use_force_execution=True, force_iterations=2,
    )).run(_generated_apk())
    assert result.force_report.paths_executed >= 2


def _trees(delta) -> list:
    return [tree for entry in delta.collector["methods"]
            for tree in entry["trees"]]


def test_replay_delta_leaves_out_known_trees():
    apk = _generated_apk().canonical()
    spec = ReplaySpec(apk.package, b"")
    full = execute_replay(spec, apk=apk)
    trees = _trees(full)
    assert len(trees) >= 4
    known = frozenset(tree.digest() for tree in trees[::2])
    filtered = execute_replay(
        dataclasses.replace(spec, known_trees=known), apk=apk)
    shipped = [tree.digest() for tree in _trees(filtered)]
    assert not set(shipped) & known
    # Everything else still ships, in the same order, and the rest of
    # the delta is untouched.
    assert shipped == [tree.digest() for tree in trees
                       if tree.digest() not in known]
    for key in ("classes", "reflection", "instructions_observed"):
        assert filtered.collector[key] == full.collector[key]
    assert filtered.trace == full.trace
