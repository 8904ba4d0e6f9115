"""Collection tree: the data structure of paper Figure 3 / Algorithm 1.

Each execution of a method produces one :class:`CollectionTree`.  Nodes
hold an Instruction List (IL, first-execution order) and an Instruction
Index Map (IIM, ``dex_pc`` -> IL index).  A *divergence* — a different
instruction observed at an already-recorded ``dex_pc`` — forks a child
node (``sm_start``); the child *converges* back to its parent when an
instruction matching the parent's record reappears (``sm_end``).  Nested
self-modification simply nests nodes.

A finished tree's identity is its :meth:`CollectionTree.fingerprint`
(the exact dedup key) and a short :meth:`CollectionTree.digest` of it;
both are computed once per tree and cached on it.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass

from repro.dex.instructions import Instruction


@dataclass(frozen=True)
class CollectedInstruction:
    """One recorded instruction: position, raw units and optional payload.

    ``units`` (the raw encoding) is the identity used by ``SameIns``;
    ``payload_units`` snapshots switch/array data referenced by 31t
    instructions so the reassembler can re-materialise it; ``symbol`` is
    the constant-pool reference resolved at collection time (string value,
    type descriptor, field or method signature) — the "related objects"
    the paper collects alongside each instruction, which is what lets the
    offline reassembler re-intern references into a fresh DEX without the
    original constant pool.  Immutable, so the collector hands one record
    to every tree that records the same decoded instruction.
    """

    dex_pc: int
    units: tuple[int, ...]
    payload_units: tuple[int, ...] | None = None
    symbol: str | None = None

    @property
    def instruction(self) -> Instruction:
        return Instruction.decode_at(list(self.units), 0)


class TreeNode:
    """One node of the collection tree (paper Figure 3, left)."""

    __slots__ = ("il", "iim", "sm_start", "sm_end", "parent", "children")

    def __init__(self, parent: "TreeNode | None" = None, sm_start: int = 0) -> None:
        self.il: list[CollectedInstruction] = []
        self.iim: dict[int, int] = {}
        self.sm_start = sm_start
        self.sm_end = -1
        self.parent = parent
        self.children: list[TreeNode] = []
        if parent is not None:
            parent.children.append(self)

    def record(self, collected: CollectedInstruction) -> None:
        self.iim[collected.dex_pc] = len(self.il)
        self.il.append(collected)

    def lookup(self, dex_pc: int) -> CollectedInstruction | None:
        index = self.iim.get(dex_pc)
        return self.il[index] if index is not None else None

    def instruction_count(self, recursive: bool = True) -> int:
        total = len(self.il)
        if recursive:
            total += sum(c.instruction_count(True) for c in self.children)
        return total

    def depth(self) -> int:
        """Nesting depth below this node (0 for a leaf)."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def to_dict(self) -> dict:
        return {
            "sm_start": self.sm_start,
            "sm_end": self.sm_end,
            "il": [
                {
                    "dex_pc": c.dex_pc,
                    "units": list(c.units),
                    **(
                        {"payload": list(c.payload_units)}
                        if c.payload_units is not None
                        else {}
                    ),
                    **({"symbol": c.symbol} if c.symbol is not None else {}),
                }
                for c in self.il
            ],
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict, parent: "TreeNode | None" = None) -> "TreeNode":
        node = cls(parent, data["sm_start"])
        node.sm_end = data["sm_end"]
        for entry in data["il"]:
            node.record(
                CollectedInstruction(
                    entry["dex_pc"],
                    tuple(entry["units"]),
                    tuple(entry["payload"]) if "payload" in entry else None,
                    entry.get("symbol"),
                )
            )
        for child_data in data["children"]:
            cls.from_dict(child_data, node)
        return node

    def fingerprint(self) -> tuple:
        """Canonical identity used to deduplicate trees across executions."""
        return (
            self.sm_start,
            tuple([(c.dex_pc, c.units, c.payload_units) for c in self.il]),
            tuple(child.fingerprint() for child in self.children),
        )


class CollectionTree:
    """Per-execution tree plus method metadata the reassembler needs."""

    def __init__(
        self,
        method_signature: str,
        registers_size: int,
        ins_size: int,
        outs_size: int,
    ) -> None:
        self.method_signature = method_signature
        self.registers_size = registers_size
        self.ins_size = ins_size
        self.outs_size = outs_size
        self.root = TreeNode()
        self.current = self.root
        self._fingerprint: tuple | None = None
        self._digest: bytes | None = None

    # -- Algorithm 1 ------------------------------------------------------

    def observe(self, collected: CollectedInstruction) -> None:
        """Feed one executing instruction through Algorithm 1."""
        current = self.current
        dex_pc = collected.dex_pc
        existing = current.lookup(dex_pc)
        if existing is not None:
            if existing.units == collected.units:
                return  # same instruction at same position: skip
            # Divergence: the instruction at this dex_pc changed.
            child = TreeNode(parent=current, sm_start=dex_pc)
            self.current = child
            self.current.record(collected)
            self._fingerprint = self._digest = None
            return
        if current.parent is not None:
            parent_existing = current.parent.lookup(dex_pc)
            if parent_existing is not None and \
                    parent_existing.units == collected.units:
                # Convergence: this layer of self-modification ended.
                current.sm_end = dex_pc
                self.current = current.parent
                return
        current.record(collected)
        self._fingerprint = self._digest = None

    # -- stats / serialisation ---------------------------------------------

    def node_count(self) -> int:
        def count(node: TreeNode) -> int:
            return 1 + sum(count(c) for c in node.children)

        return count(self.root)

    def instruction_count(self) -> int:
        return self.root.instruction_count(recursive=True)

    def has_divergence(self) -> bool:
        return bool(self.root.children)

    def fingerprint(self) -> tuple:
        """The exact dedup key (:meth:`MethodRecord.add_tree`), built on
        first use and cached until the tree records another instruction."""
        if self._fingerprint is None:
            self._fingerprint = (self.method_signature,
                                 self.root.fingerprint())
        return self._fingerprint

    def digest(self) -> bytes:
        """A 128-bit BLAKE2b digest of the fingerprint.

        Short enough to ship as a set across a process boundary.  With
        the signature as bytes, the fingerprint holds only bytes, ints,
        tuples and None, which marshal format 2 encodes canonically (no
        shared-object references), so equal fingerprints give equal
        digests in the engine and in every worker it forks.  Digests
        are never stored.
        """
        if self._digest is None:
            signature, node = self.fingerprint()
            self._digest = hashlib.blake2b(
                marshal.dumps((signature.encode(), node), 2),
                digest_size=16).digest()
        return self._digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, CollectionTree):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __getstate__(self) -> dict:
        # The cached identity is cheap to rebuild and about as large as
        # the tree itself, so it never travels.
        return {**self.__dict__, "_fingerprint": None, "_digest": None}

    def to_dict(self) -> dict:
        return {
            "method": self.method_signature,
            "registers_size": self.registers_size,
            "ins_size": self.ins_size,
            "outs_size": self.outs_size,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectionTree":
        tree = cls(
            data["method"],
            data["registers_size"],
            data["ins_size"],
            data["outs_size"],
        )
        tree.root = TreeNode.from_dict(data["root"])
        tree.current = tree.root
        return tree
