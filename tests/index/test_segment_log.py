"""The segment log under CorpusIndex and ClusterStore.

Two contracts: stores written by earlier builds (the committed
``tests/fixtures/legacy_stores``) reopen unchanged and new writes keep
their exact bytes, and writers sharing one store — threads on one
instance, threads and processes on one fresh directory — never trip
over each other's temp files.
"""

import hashlib
import multiprocessing
import os
import shutil
import threading

import pytest

from repro.cluster.store import ClusterMember, ClusterStore
from repro.index.corpus import CorpusIndex, IndexEntry
from repro.index.fuzzy import fuzzy_digest
from repro.service import STATUS_OK, BatchRevealService

from tests.conftest import build_simple_apk

LEGACY = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                      "legacy_stores")


def _fuzzy(seed):
    out = b""
    counter = 0
    while len(out) < 400:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return fuzzy_digest(out[:400])


def legacy_entries():
    """The entries the fixture's index holds, split over two writers
    (the first four, then the rest)."""
    entries = [IndexEntry(kind="method", app_id=f"app{i % 2}",
                          class_desc=f"Lshared/Lib{i};",
                          method=f"Lshared/Lib{i};->m{i}()V",
                          exact=f"exact-{i}", norm=f"norm-{i % 3}",
                          fuzzy=_fuzzy(i) if i % 2 == 0 else None,
                          artifact="archive/app0" if i == 0 else None)
               for i in range(6)]
    entries.append(IndexEntry(kind="class", app_id="app0",
                              class_desc="Lshared/Lib0;", method=None,
                              exact=None, norm=None, fuzzy=_fuzzy(99)))
    return entries


def legacy_members():
    return [ClusterMember.from_index_entry(e) for e in legacy_entries()]


def _copy(name, tmp_path):
    return str(shutil.copytree(os.path.join(LEGACY, name), tmp_path / name))


def _segment_lines(root):
    segments = os.path.join(root, "segments")
    lines = []
    for name in os.listdir(segments):
        with open(os.path.join(segments, name), encoding="utf-8") as fh:
            lines += fh.read().splitlines()
    return sorted(lines)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestLegacyFormat:
    def test_index_reopens_with_identical_entries(self, tmp_path):
        index = CorpusIndex(_copy("index", tmp_path), create=False)
        entries = index.entries()
        assert len(entries) == len(legacy_entries())
        assert set(entries) == set(legacy_entries())
        assert index.get_body("exact-0") == [["const", 0]]
        stats = index.stats()
        assert stats["segments"] == 2
        assert stats["corrupt_lines"] == 0

    def test_cluster_store_reopens_with_identical_members(self, tmp_path):
        root = _copy("cluster", tmp_path)
        store = ClusterStore(root, create=False)
        members = store.members()
        assert len(members) == len(legacy_members())
        assert set(members) == set(legacy_members())
        assert store.families().to_json() == \
            _read(os.path.join(root, "families.json")).decode("utf-8")
        assert store.stats()["segments"] == 2
        assert store.corrupt_lines == 0

    def test_new_writes_keep_the_legacy_bytes(self, tmp_path):
        index = CorpusIndex(str(tmp_path / "index"))
        for entry in legacy_entries():
            index.add_entry(entry)
        index.put_body("exact-0", [["const", 0]])
        index.close()
        store = ClusterStore(str(tmp_path / "cluster"))
        for member in legacy_members():
            store.add_member(member)
        store.close()
        for name, meta in (("index", "index_meta.json"),
                           ("cluster", "cluster_meta.json")):
            fresh, legacy = str(tmp_path / name), os.path.join(LEGACY, name)
            assert _read(os.path.join(fresh, meta)) == \
                _read(os.path.join(legacy, meta))
            assert _segment_lines(fresh) == _segment_lines(legacy)
        body = os.path.join("bodies", "exact-0.json")
        assert _read(str(tmp_path / "index" / body)) == \
            _read(os.path.join(LEGACY, "index", body))


class TestConcurrentWriters:
    def test_threads_put_the_same_body_without_raising(self, tmp_path):
        root = str(tmp_path / "index")
        index = CorpusIndex(root)
        ops = [["const", n] for n in range(2000)]
        barrier = threading.Barrier(8)
        errors = []

        def put() -> None:
            barrier.wait(timeout=60)
            for n in range(20):
                try:
                    index.put_body(f"digest-{n}", ops)
                except Exception as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        reopened = CorpusIndex(root, create=False)
        for n in range(20):
            assert reopened.get_body(f"digest-{n}") == ops
        assert sorted(os.listdir(os.path.join(root, "bodies"))) == \
            sorted(f"digest-{n}.json" for n in range(20))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="forked participants share the test's barrier and queue",
    )
    def test_threads_and_processes_open_fresh_stores(self, tmp_path):
        # Two threads and two forked processes, released together,
        # open the same fresh index and cluster directories — many
        # rounds, so a race on the meta file has many chances to show —
        # then each reveals through a service over one more pair.
        root = str(tmp_path)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        results = ctx.Queue()
        processes = [ctx.Process(target=_open_and_reveal,
                                 args=(root, n, barrier, results))
                     for n in range(2)]
        for process in processes:
            process.start()
        threads = [threading.Thread(target=_open_and_reveal,
                                    args=(root, n, barrier, results))
                   for n in range(2, 4)]
        for thread in threads:
            thread.start()
        outcomes = [results.get(timeout=300) for _ in range(4)]
        for worker in threads + processes:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert sorted(outcomes) == \
            [(n, [], STATUS_OK, []) for n in range(4)]


ROUNDS = 25


def _open_and_reveal(root, n, barrier, results) -> None:
    """One participant: ``(n, open errors, reveal status, degraded)``."""
    errors = []
    for round_ in range(ROUNDS):
        barrier.wait(timeout=120)
        for cls, name in ((CorpusIndex, "index"), (ClusterStore, "cluster")):
            try:
                cls(os.path.join(root, f"{name}-{round_}")).close()
            except Exception as exc:
                errors.append(f"{name}-{round_}: {exc!r}")
    try:
        barrier.wait(timeout=120)
        service = BatchRevealService(
            index_dir=os.path.join(root, "index"),
            cluster_dir=os.path.join(root, "cluster"), workers=1)
        outcome = service.reveal_one(build_simple_apk(f"race.p{n}"))
        results.put((n, errors, outcome.status, outcome.degraded))
    except Exception as exc:  # reported, so the test never hangs
        results.put((n, errors, repr(exc), []))
