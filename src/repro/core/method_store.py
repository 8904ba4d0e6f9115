"""Per-method storage of collected trees and metadata.

The paper keeps "only the unique trees" across multiple executions of a
method (§IV-A); :class:`MethodStore` deduplicates by tree fingerprint and
carries the structural metadata (register sizes, try blocks, access
flags) the reassembler needs to rebuild a method.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.tree import CollectionTree


@dataclass
class CollectedTry:
    """Snapshot of one try block (addresses in original dex_pc space)."""

    start_addr: int
    insn_count: int
    handlers: list[tuple[str, int]] = field(default_factory=list)
    catch_all: int | None = None

    def to_dict(self) -> dict:
        return {
            "start": self.start_addr,
            "count": self.insn_count,
            "handlers": [[t, a] for t, a in self.handlers],
            "catch_all": self.catch_all,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectedTry":
        return cls(
            data["start"],
            data["count"],
            [(t, a) for t, a in data["handlers"]],
            data["catch_all"],
        )


@dataclass
class MethodRecord:
    """Everything collected about one method."""

    signature: str
    class_desc: str
    name: str
    param_descs: tuple[str, ...]
    return_desc: str
    access_flags: int
    is_native: bool = False
    registers_size: int = 1
    ins_size: int = 0
    outs_size: int = 0
    tries: list[CollectedTry] = field(default_factory=list)
    trees: list[CollectionTree] = field(default_factory=list)
    _fingerprints: set = field(default_factory=set)
    # Guards the fingerprint check-then-append, which must stay atomic
    # when parallel force-execution replays share one collector; method
    # exit is cold enough that the lock is free in practice.
    _tree_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        """The method-data entry: everything but the trees, which the
        archive stores in its own file and a replay delta nests."""
        return {
            "signature": self.signature,
            "class": self.class_desc,
            "name": self.name,
            "params": list(self.param_descs),
            "return": self.return_desc,
            "access": self.access_flags,
            "native": self.is_native,
            "registers": self.registers_size,
            "ins": self.ins_size,
            "outs": self.outs_size,
            "tries": [t.to_dict() for t in self.tries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MethodRecord":
        return cls(
            signature=data["signature"],
            class_desc=data["class"],
            name=data["name"],
            param_descs=tuple(data["params"]),
            return_desc=data["return"],
            access_flags=data["access"],
            is_native=data["native"],
            registers_size=data["registers"],
            ins_size=data["ins"],
            outs_size=data["outs"],
            tries=[CollectedTry.from_dict(t) for t in data["tries"]],
        )

    def add_tree(self, tree: CollectionTree) -> bool:
        """Add a per-execution tree; returns False if it was a duplicate.

        The exact fingerprint (cached on the tree) decides; digests
        only ever filter trees out before they get here.
        """
        fingerprint = tree.fingerprint()
        with self._tree_lock:
            if fingerprint in self._fingerprints:
                return False
            self._fingerprints.add(fingerprint)
            self.trees.append(tree)
            return True

    @property
    def executed(self) -> bool:
        return bool(self.trees)

    def instruction_count(self) -> int:
        return sum(tree.instruction_count() for tree in self.trees)


class MethodStore:
    """signature -> MethodRecord for every linked method."""

    def __init__(self) -> None:
        self.records: dict[str, MethodRecord] = {}

    def ensure(self, record: MethodRecord) -> MethodRecord:
        # setdefault, not check-then-assign: re-linking must never
        # replace a record another replay thread already added trees to.
        return self.records.setdefault(record.signature, record)

    def get(self, signature: str) -> MethodRecord | None:
        return self.records.get(signature)

    def __len__(self) -> int:
        return len(self.records)

    def add_tree(self, signature: str, tree: CollectionTree) -> bool:
        record = self.records.get(signature)
        if record is None:
            return False
        return record.add_tree(tree)

    def executed_records(self) -> list[MethodRecord]:
        return [r for r in self.records.values() if r.executed]

    def total_collected_instructions(self) -> int:
        return sum(r.instruction_count() for r in self.records.values())
