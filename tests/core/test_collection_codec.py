"""One codec for the collection files.

The archive files, the replay deltas and the resume merge all encode
and decode through the per-type ``to_dict``/``from_dict`` codecs, and
:meth:`DexLegoCollector.absorb` holds the only merge rules.  These
tests pin the round trips byte for byte on collectors that exercise
every record type: reflection sites, self-modified (divergent) trees,
dynamically loaded classes, real static values and a force-execution
exploration.
"""

import hashlib

import pytest

from repro.benchsuite import sample_by_name
from repro.core import (
    CollectionArchive,
    CollectStage,
    DexLegoCollector,
    ForceExecutionEngine,
    RevealConfig,
    resume_exploration,
)
from repro.core.collection_files import ALL_FILES
from repro.dex import assemble, write_dex
from repro.runtime import NEXUS_5X, AndroidRuntime, Apk, AppDriver

from tests.core.test_determinism import _branchy_apk
from tests.core.test_exploration import _multi_apk

#: DroidBench samples whose standard session covers the record types:
#: ReflectAdv4 resolves a reflective target, SelfMod0 patches its own
#: code, DynLoad0 runs classes from an asset DEX.
SAMPLES = ("ReflectAdv4", "SelfMod0", "DynLoad0")
STATICS = "static-values"
FORCED = "force-execution"


def _statics_apk() -> Apk:
    text = """
.class public Lcodec/Statics;
.super Landroid/app/Activity;
.field public static NAME:Ljava/lang/String; = "codec"
.field public static COUNT:I = 42
.field public static FLAG:Z = true

.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    sget v0, Lcodec/Statics;->COUNT:I
    add-int/lit8 v0, v0, 1
    sput v0, Lcodec/Statics;->COUNT:I
    return-void
.end method
"""
    return Apk("codec.statics", "Lcodec/Statics;", [assemble(text)])


def _driven_collector(apk: Apk, device=NEXUS_5X) -> DexLegoCollector:
    runtime = AndroidRuntime(device)
    collector = DexLegoCollector()
    runtime.add_listener(collector)
    AppDriver(runtime, apk).run_standard_session()
    return collector


def _forced_collector() -> DexLegoCollector:
    collector = DexLegoCollector()
    report = ForceExecutionEngine(_branchy_apk("codec.forced"),
                                  collector=collector,
                                  max_iterations=8).run()
    assert report.paths_executed >= 1  # replays were absorbed
    return collector


@pytest.fixture(scope="module")
def collectors() -> dict[str, DexLegoCollector]:
    found = {}
    for name in SAMPLES:
        sample = sample_by_name(name)
        found[name] = _driven_collector(sample.build_apk(), sample.device)
    found[STATICS] = _driven_collector(_statics_apk())
    found[FORCED] = _forced_collector()
    return found


def _files(archive: CollectionArchive) -> dict[str, str]:
    return {name: archive._payload[name] for name in ALL_FILES}


def _empty() -> CollectionArchive:
    return CollectionArchive.from_collector(DexLegoCollector())


class TestSamplesCoverEveryRecordType:
    def test_not_vacuous(self, collectors):
        assert collectors["ReflectAdv4"].reflection_sites
        statics = collectors[STATICS].classes["Lcodec/Statics;"]
        assert statics.initialized
        assert {f.name: f.static_value for f in statics.fields} == {
            "NAME": ("string", "codec"), "COUNT": ("int", 42),
            "FLAG": ("int", 1)}
        assert collectors["SelfMod0"].stats()["divergent_methods"] >= 1
        dynload = collectors["DynLoad0"]
        assert len(dynload.classes) >= 2  # the host plus the loaded class


@pytest.mark.parametrize("name", SAMPLES + (STATICS, FORCED))
class TestRoundTrips:
    def test_decode_then_encode_is_byte_identical(self, collectors, name):
        archive = CollectionArchive.from_collector(collectors[name])
        again = CollectionArchive.from_collector(archive._collector())
        assert _files(again) == _files(archive)

    def test_save_load_decode_is_byte_identical(self, collectors, name,
                                                tmp_path):
        archive = CollectionArchive.from_collector(collectors[name])
        archive.save(str(tmp_path))
        loaded = CollectionArchive.load(str(tmp_path))
        again = CollectionArchive.from_collector(loaded._collector())
        assert _files(again) == _files(archive)

    def test_merged_with_itself_or_empty_is_the_archive(self, collectors,
                                                        name):
        archive = CollectionArchive.from_collector(collectors[name])
        files = _files(archive)
        assert _files(CollectionArchive.merged(archive, archive)) == files
        assert _files(CollectionArchive.merged(archive, _empty())) == files

    def test_merged_leaves_its_inputs_alone(self, collectors, name):
        archive = CollectionArchive.from_collector(collectors[name])
        store = archive.method_store()
        trees = {sig: len(r.trees) for sig, r in store.records.items()}
        files = _files(archive)
        CollectionArchive.merged(archive, archive)
        assert _files(archive) == files
        assert archive.method_store() is store
        assert {sig: len(r.trees)
                for sig, r in store.records.items()} == trees

    def test_absorbed_delta_reencodes_to_the_same_archive(self, collectors,
                                                          name):
        collector = collectors[name]
        fresh = DexLegoCollector()
        fresh.absorb(collector.delta_dict())
        assert _files(CollectionArchive.from_collector(fresh)) == \
            _files(CollectionArchive.from_collector(collector))


class TestReaderViews:
    def test_accessors_share_one_decode(self, collectors):
        archive = CollectionArchive.from_collector(collectors["ReflectAdv4"])
        assert archive.method_store() is archive.method_store()
        classes = archive.collected_class_map()
        first = next(iter(classes))
        assert classes[first] is archive.collected_class_map()[first]
        with pytest.raises(TypeError):
            classes[first] = None  # a view, not the decode itself
        with pytest.raises(TypeError):
            archive.reflection_sites()[("x", 0)] = None


class TestResumedRevealDex:
    """The resume scenarios of ``test_exploration.py`` reassemble to the
    DEX they reassembled to before resume merged through ``absorb``
    (the bytecode file may be reordered; the DEX may not change)."""

    @pytest.mark.parametrize("package,same_config,digest", [
        ("x.resarch", False,
         "d02cb52e669b7bb54dc84e79b8071ec2649c25ae2e1a5aa0fbb22e835f293682"),
        ("x.merge", True,
         "434d666daf3b18e97d177fbdb1e9491de4036505824fc7c9dd2da3ee6dd5f850"),
    ])
    def test_resumed_dex_is_unchanged(self, tmp_path, package, same_config,
                                      digest):
        apk = _multi_apk(package)
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              force_iterations=8)
        CollectStage(config).run(apk).archive.save(str(tmp_path))
        resume_config = config if same_config else \
            RevealConfig(use_force_execution=True, force_iterations=8)
        result = resume_exploration(str(tmp_path), apk, config=resume_config)
        assert result.force_report.resumed
        assert hashlib.sha256(
            write_dex(result.reassembled_dex)).hexdigest() == digest
