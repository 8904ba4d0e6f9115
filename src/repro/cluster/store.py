"""Persistent cluster store: LSH members + family assignments on disk.

Shares :class:`~repro.index.corpus.CorpusIndex`'s writer model so any
number of threads, processes or hosts can share one directory:

* ``cluster_meta.json`` + ``segments/seg-<writer>.jsonl`` — the member
  journal, a :class:`~repro.segment_log.SegmentLog`.
* ``families.json`` — the latest
  :class:`~repro.cluster.families.FamilyAssignment` snapshot, written
  atomically in canonical form (sorted keys), so equal partitions are
  byte-identical files.

The banded :class:`~repro.cluster.lsh.LshIndex` is rebuilt in memory at
open — it is a pure function of the member set, so persisting the
buckets themselves would only add an invalidation problem.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass

from repro import faults
from repro.cluster.families import (
    DEFAULT_FAMILY_THRESHOLD,
    FamilyAssignment,
    cluster_families,
)
from repro.cluster.lsh import LshIndex
from repro.cluster.profiles import build_profiles
from repro.index.digests import method_digests
from repro.segment_log import SegmentLog

CLUSTER_FORMAT_VERSION = 1

_META_FILE = "cluster_meta.json"
_FAMILIES_FILE = "families.json"


@dataclass(frozen=True)
class ClusterMember:
    """One clustered artefact: a method's digests plus provenance."""

    kind: str                 # "method" | "class"
    app_id: str
    class_desc: str
    method: str | None        # full signature for methods, None for classes
    norm: str | None          # structural digest (methods only)
    fuzzy: str | None         # TLSH-style digest, None when too small

    def key(self) -> tuple:
        return (self.kind, self.app_id, self.class_desc, self.method,
                self.norm, self.fuzzy)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["v"] = CLUSTER_FORMAT_VERSION
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterMember":
        return cls(
            kind=data["kind"],
            app_id=data["app_id"],
            class_desc=data["class_desc"],
            method=data.get("method"),
            norm=data.get("norm"),
            fuzzy=data.get("fuzzy"),
        )

    @classmethod
    def from_index_entry(cls, entry) -> "ClusterMember":
        """Project an :class:`~repro.index.corpus.IndexEntry` down."""
        return cls(
            kind=entry.kind,
            app_id=entry.app_id,
            class_desc=entry.class_desc,
            method=entry.method,
            norm=entry.norm,
            fuzzy=entry.fuzzy,
        )


class ClusterStore:
    """Family clustering state rooted at ``RevealConfig.cluster_dir``.

    Thread-safe; multi-process safe through per-writer segments and the
    atomic ``families.json`` snapshot.
    """

    def __init__(self, root: str | os.PathLike, create: bool = True) -> None:
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._members: list[ClusterMember] = []
        self._keys: set[tuple] = set()
        self._by_norm: dict[str, list[ClusterMember]] = {}
        self._lsh = LshIndex()
        self._families: FamilyAssignment | None = None
        self._log = SegmentLog(
            self.root, name="cluster store", site="cluster",
            meta_file=_META_FILE, version=CLUSTER_FORMAT_VERSION,
            required=("kind", "app_id", "class_desc"), create=create)
        for data in self._log.records():
            self._absorb(ClusterMember.from_dict(data))
        self._load_families()

    @property
    def corrupt_lines(self) -> int:
        return self._log.corrupt_lines

    def _load_families(self) -> None:
        path = os.path.join(self.root, _FAMILIES_FILE)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError:
            return
        except ValueError:
            self._log.corrupt_lines += 1
            return
        if isinstance(data, dict):
            self._families = FamilyAssignment.from_dict(data)

    def _absorb(self, member: ClusterMember) -> bool:
        """Index a member in memory; False when it was a duplicate."""
        key = member.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._members.append(member)
        if member.norm:
            self._by_norm.setdefault(member.norm, []).append(member)
        if member.fuzzy:
            self._lsh.add(member.fuzzy, member, sort_key=key)
        return True

    # -- writes -------------------------------------------------------------

    def add_member(self, member: ClusterMember) -> bool:
        """Absorb + journal one member; False when already present."""
        with self._lock:
            if not self._absorb(member):
                return False
            self._log.append(member.to_dict())
            return True

    def register_index(self, index) -> int:
        """Absorb every digest-bearing entry of a corpus index."""
        added = 0
        for entry in index.entries():
            if not entry.norm and not entry.fuzzy:
                continue
            if self.add_member(ClusterMember.from_index_entry(entry)):
                added += 1
        return added

    def register_records(self, app_id: str, records) -> int:
        """Absorb one reveal's executed method records."""
        added = 0
        for record in records:
            digests = method_digests(record)
            if not digests.norm and not digests.fuzzy:
                continue
            member = ClusterMember(
                kind="method",
                app_id=app_id,
                class_desc=record.class_desc,
                method=record.signature,
                norm=digests.norm,
                fuzzy=digests.fuzzy,
            )
            if self.add_member(member):
                added += 1
        return added

    def close(self) -> None:
        with self._lock:
            self._log.close()

    # -- queries ------------------------------------------------------------

    def members(self) -> list[ClusterMember]:
        with self._lock:
            return list(self._members)

    def members_with_norm(self, digest: str) -> list[ClusterMember]:
        with self._lock:
            return list(self._by_norm.get(digest, ()))

    def apps_with_norm(self, digest: str) -> list[str]:
        """'Which apps contain this method?' — by structural digest."""
        return sorted({m.app_id for m in self.members_with_norm(digest)})

    def nearest(self, fuzzy: str, limit: int = 5,
                exhaustive: bool = False) -> list[tuple[int, ClusterMember]]:
        """Nearest members of a fuzzy digest via the banded LSH."""
        with self._lock:
            return self._lsh.nearest(fuzzy, limit=limit,
                                     exhaustive=exhaustive)

    # -- families -----------------------------------------------------------

    def build_families(
        self,
        threshold: float = DEFAULT_FAMILY_THRESHOLD,
    ) -> FamilyAssignment:
        """(Re)cluster the member set and snapshot ``families.json``."""
        with self._lock:
            profiles = build_profiles(self._members)
        assignment = cluster_families(profiles, threshold=threshold)
        path = os.path.join(self.root, _FAMILIES_FILE)
        faults.atomic_write_text(path, assignment.to_json(),
                                 site="cluster.families.write")
        with self._lock:
            self._families = assignment
        return assignment

    def families(self) -> FamilyAssignment | None:
        with self._lock:
            return self._families

    def family_of(self, app_id: str) -> str:
        """The app's family id, or ``""`` when unclustered."""
        with self._lock:
            if self._families is None:
                return ""
            return self._families.family_of(app_id)

    # -- stats / maintenance ------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            methods = sum(1 for m in self._members if m.kind == "method")
            apps = {m.app_id for m in self._members}
            families = self._families
            lsh_stats = self._lsh.stats()
        return {
            "version": CLUSTER_FORMAT_VERSION,
            "members": methods,
            "apps": len(apps),
            "families": len(families.families) if families else 0,
            "family_threshold": families.threshold if families else None,
            "segments": self._log.segment_count(),
            "corrupt_lines": self.corrupt_lines,
            "lsh": lsh_stats,
        }

    def compact(self) -> int:
        """Fold every segment into one, atomically; returns member count."""
        with self._lock:
            self._log.compact(member.to_dict() for member in self._members)
            return len(self._members)
