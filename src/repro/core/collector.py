"""Just-in-Time collection (paper §III-A, §IV-A, §IV-C, Figure 2).

:class:`DexLegoCollector` attaches to the runtime as a listener and
collects, the moment ART touches them:

* class metadata at class-link time (superclass, interfaces, fields,
  method structures, try blocks);
* static field values at initialization time;
* executed instructions at interpreter-fetch time, fed through
  Algorithm 1 into per-execution collection trees (one interned record
  per distinct decoded instruction);
* resolved reflective-call targets at ``Method.invoke`` dispatch.

Only application classes (those backed by a DEX file) are collected —
framework classes are boot-classpath noise, exactly as on ART.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.method_store import CollectedTry, MethodRecord, MethodStore
from repro.core.tree import CollectedInstruction, CollectionTree
from repro.dex.opcodes import IndexKind
from repro.dex.payloads import payload_unit_count
from repro.runtime.hooks import RuntimeListener
from repro.runtime.values import VmString


@dataclass
class CollectedField:
    name: str
    type_desc: str
    access_flags: int
    static_value: tuple = ("null",)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.type_desc,
            "access": self.access_flags,
            "value": list(self.static_value),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectedField":
        return cls(
            data["name"],
            data["type"],
            data["access"],
            tuple(data["value"]),
        )


@dataclass
class CollectedClass:
    """Class metadata captured at link/init time (class data file)."""

    descriptor: str
    superclass_desc: str | None
    interface_descs: tuple[str, ...]
    access_flags: int
    fields: list[CollectedField] = field(default_factory=list)
    method_signatures: list[str] = field(default_factory=list)
    initialized: bool = False

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "superclass": self.superclass_desc,
            "interfaces": list(self.interface_descs),
            "access": self.access_flags,
            "initialized": self.initialized,
            "methods": list(self.method_signatures),
            "fields": [f.to_dict() for f in self.fields],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectedClass":
        return cls(
            descriptor=data["descriptor"],
            superclass_desc=data["superclass"],
            interface_descs=tuple(data["interfaces"]),
            access_flags=data["access"],
            fields=[CollectedField.from_dict(f) for f in data["fields"]],
            method_signatures=list(data["methods"]),
            initialized=bool(data["initialized"]),
        )


@dataclass
class ReflectionSite:
    """One reflective invoke site and the targets resolved there.

    The insertion-ordered ``target_static`` dict is the single source
    of truth and is only ever mutated via ``setdefault`` — atomic under
    the GIL, so concurrent force-execution replays sharing a collector
    can never drop a resolved target.
    """

    caller_signature: str
    dex_pc: int
    target_static: dict[str, bool] = field(default_factory=dict)

    @property
    def targets(self) -> list[str]:
        """Target signatures in first-observed order."""
        return list(self.target_static)

    def add_target(self, signature: str, is_static: bool) -> None:
        self.target_static.setdefault(signature, is_static)

    def to_dict(self) -> dict:
        return {
            "caller": self.caller_signature,
            "dex_pc": self.dex_pc,
            "targets": [
                {"signature": sig, "static": static}
                for sig, static in self.target_static.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReflectionSite":
        site = cls(data["caller"], data["dex_pc"])
        for target in data["targets"]:
            site.add_target(target["signature"], target["static"])
        return site


class DexLegoCollector(RuntimeListener):
    """The JIT collection component of DexLego.

    ``interned`` is the instruction interning table: ``id(ins)`` ->
    ``(ins, source dex, dex_pc, CollectedInstruction)``.  Collectors
    that execute the same live APK one after another (the replays of
    one force-execution run, or of one worker process) pass the same
    dict, so each distinct decoded instruction is collected once.

    ``known`` holds the digests (:meth:`CollectionTree.digest`) of trees
    the receiver of this collector's delta already holds.  A finished
    tree whose digest is in it is dropped at frame exit instead of
    being shipped, which cannot change the merged result: the receiver
    would reject it as a duplicate.
    """

    def __init__(self, interned: dict | None = None,
                 known: frozenset = frozenset()) -> None:
        self.classes: dict[str, CollectedClass] = {}
        self.method_store = MethodStore()
        self.reflection_sites: dict[tuple[str, int], ReflectionSite] = {}
        self.interned: dict = {} if interned is None else interned
        self._known = known
        # Fingerprints of finished trees already stored or dropped, so
        # a repeat skips the digest (only used when ``known`` is set).
        self._seen: set = set()
        # frame -> [tree, source dex, instructions observed].  The
        # count is folded into instructions_observed at method exit
        # under the lock: a frame belongs to exactly one thread, so the
        # hot per-instruction increment never contends, and the shared
        # total never loses updates when parallel force-execution
        # replays share this collector.
        self._frames: dict = {}
        self.instructions_observed = 0
        self._stats_lock = threading.Lock()

    # -- class linking (metadata collection) --------------------------------

    def on_class_loaded(self, klass) -> None:
        if klass.source_dex is None:
            return  # framework class: not part of the application
        collected = CollectedClass(
            descriptor=klass.descriptor,
            superclass_desc=(
                klass.superclass.descriptor if klass.superclass else None
            ),
            interface_descs=tuple(i.descriptor for i in klass.interfaces),
            access_flags=klass.access_flags,
        )
        for runtime_field in klass.fields.values():
            collected.fields.append(
                CollectedField(
                    runtime_field.name,
                    runtime_field.type_desc,
                    runtime_field.access_flags,
                )
            )
        for method in klass.methods.values():
            if method.declaring_class is not klass:
                continue
            record = MethodRecord(
                signature=method.ref.signature,
                class_desc=klass.descriptor,
                name=method.ref.name,
                param_descs=method.ref.param_descs,
                return_desc=method.ref.return_desc,
                access_flags=method.access_flags,
                is_native=method.is_native,
            )
            if method.code is not None:
                record.registers_size = method.code.registers_size
                record.ins_size = method.code.ins_size
                record.outs_size = method.code.outs_size
                dex = klass.source_dex
                for try_block in method.code.tries:
                    record.tries.append(
                        CollectedTry(
                            try_block.start_addr,
                            try_block.insn_count,
                            [
                                (dex.type_descriptor(t), addr)
                                for t, addr in try_block.handlers
                            ],
                            try_block.catch_all,
                        )
                    )
            self.method_store.ensure(record)
            collected.method_signatures.append(method.ref.signature)
        # setdefault, not assignment: a replay thread may already have
        # linked this class (and recorded init state on its object).
        self.classes.setdefault(klass.descriptor, collected)

    def on_class_initialized(self, klass) -> None:
        collected = self.classes.get(klass.descriptor)
        if collected is None:
            return
        collected.initialized = True
        defaults = getattr(klass, "_static_value_defaults", None) or {}
        for collected_field in collected.fields:
            if collected_field.name in defaults:
                collected_field.static_value = _encode_static(
                    defaults[collected_field.name]
                )

    # -- bytecode collection (Algorithm 1) -------------------------------------

    def on_method_enter(self, frame) -> None:
        method = frame.method
        dex = method.declaring_class.source_dex
        if dex is None or method.code is None:
            return
        code = method.code
        tree = CollectionTree(
            method.ref.signature,
            code.registers_size,
            code.ins_size,
            code.outs_size,
        )
        self._frames[frame] = [tree, dex, 0]

    def on_instruction(self, frame, dex_pc: int, ins) -> None:
        state = self._frames.get(frame)
        if state is None:
            return
        state[2] += 1
        hit = self.interned.get(id(ins))
        if hit is not None and hit[0] is ins and hit[1] is state[1] \
                and hit[2] == dex_pc:
            collected = hit[3]
            # Algorithm 1's commonest case, decided without the call:
            # the same record at the same position is skipped.
            current = state[0].current
            index = current.iim.get(dex_pc)
            if index is not None and current.il[index] is collected:
                return
        else:
            collected = self._collect(frame, dex_pc, ins, state[1])
        state[0].observe(collected)

    def _collect(self, frame, dex_pc: int, ins, dex) -> CollectedInstruction:
        """Build the record for one fetch from the live code units.

        The record is interned only when ``ins`` is the code item's
        shared decode at ``dex_pc``: that object was decoded from the
        raw units the shared store keeps, and the interpreter reuses it
        only while the live bytes still equal them.  A fresh decode
        (the reference interpreter, or self-modified code) never
        matches, so the table stays bounded by code size, and 31t
        instructions are never interned because their payload is read
        live on every fetch.
        """
        code_units = frame.code_units
        units = tuple(code_units[dex_pc : dex_pc + ins.unit_count])
        symbol = self._resolve_symbol(dex, ins)
        if ins.opcode.fmt == "31t":
            payload_units = None
            target = dex_pc + ins.branch_target
            if 0 <= target < len(code_units):
                count = payload_unit_count(code_units, target)
                payload_units = tuple(code_units[target : target + count])
            return CollectedInstruction(dex_pc, units, payload_units, symbol)
        collected = CollectedInstruction(dex_pc, units, None, symbol)
        shared = getattr(code_units, "shared", None)
        entry = shared.get(dex_pc) if shared is not None else None
        if entry is not None and entry[1] is ins:
            self.interned[id(ins)] = (ins, dex, dex_pc, collected)
        return collected

    @staticmethod
    def _resolve_symbol(dex, ins) -> str | None:
        """Resolve the pool reference to its symbolic form (JIT collection
        of the "related objects" — string / type / field / method)."""
        kind = ins.opcode.index_kind
        if kind is IndexKind.NONE:
            return None
        index = ins.pool_index
        if kind is IndexKind.STRING:
            return dex.string(index)
        if kind is IndexKind.TYPE:
            return dex.type_descriptor(index)
        if kind is IndexKind.FIELD:
            return dex.field_ref(index).signature
        return dex.method_ref(index).signature

    def on_method_exit(self, frame, result) -> None:
        state = self._frames.pop(frame, None)
        if state is None:
            return
        tree, _dex, observed = state
        if observed:
            with self._stats_lock:
                self.instructions_observed += observed
        if tree.root.il:
            self._keep(tree)

    def _keep(self, tree: CollectionTree) -> None:
        """Store a finished tree unless the receiver already holds it."""
        if self._known:
            fingerprint = tree.fingerprint()
            if fingerprint in self._seen:
                return
            self._seen.add(fingerprint)
            if tree.digest() in self._known:
                return
        self.method_store.add_tree(tree.method_signature, tree)

    # -- reflection (§IV-D) -------------------------------------------------------

    def on_reflective_call(self, frame, target_method, receiver, args) -> None:
        if frame is None:
            return
        caller = frame.method
        if caller.declaring_class.source_dex is None:
            return
        key = (caller.ref.signature, frame.dex_pc)
        site = self.reflection_sites.get(key)
        if site is None:
            # setdefault keeps the race between concurrent replays
            # benign: whichever site object wins, every thread adds its
            # target to that one.
            site = self.reflection_sites.setdefault(
                key, ReflectionSite(caller.ref.signature, frame.dex_pc)
            )
        site.add_target(target_method.ref.signature, target_method.is_static)

    # -- deltas (process-parallel exploration, archive decode, resume) ------

    def delta_dict(self) -> dict:
        """Everything this collector holds, as one merge unit.

        The unit a replay ships back to the engine: a private
        per-replay collector hands over its records and the engine
        absorbs the deltas strictly in pop order, so the merged
        collector is identical no matter which backend or worker count
        executed the replays.  Every frame has exited by the time a
        drive returns (the interpreter fires ``on_method_exit`` in a
        ``finally``, also when a crash or an exhausted budget unwinds
        it), so the delta carries every observed instruction count and
        every finished tree that is not in ``known``.  Classes, method
        records and reflection sites encode through their own
        ``to_dict``, the same codec the collection files use; the trees
        stay :class:`CollectionTree` objects (by reference in-process,
        pickled by a process pool) and become dicts only at a JSON
        boundary (:func:`delta_to_json`).
        """
        return {
            "classes": [c.to_dict() for c in self.classes.values()],
            "methods": [
                {**record.to_dict(), "trees": list(record.trees)}
                for record in self.method_store.records.values()
            ],
            "reflection": [site.to_dict()
                           for site in self.reflection_sites.values()],
            "instructions_observed": self.instructions_observed,
        }

    def absorb(self, delta: dict) -> None:
        """Merge one replay's delta into this collector.

        The merge rules mirror what a directly-attached shared
        collector does event-by-event — classes keyed by descriptor,
        method records by signature with fingerprint-deduped trees,
        reflection targets unioned in first-observed order — except
        that here the order is the engine's deterministic merge order
        rather than thread-completion order.  A delta that initialized
        a class carries its real static values, so it overwrites
        link-time defaults (and, like a later run re-entering
        ``<clinit>``, any earlier values).  These are the only merge
        rules: resuming an archive absorbs the new session's records
        into the decoded old ones.
        """
        self._merge(delta)

    @classmethod
    def from_delta(cls, delta: dict) -> "DexLegoCollector":
        """A fresh collector holding exactly ``delta``'s records."""
        collector = cls()
        collector._merge(delta)
        return collector

    def _merge(self, delta: dict) -> None:
        # ``absorb``'s body.  Decoding (``from_delta``) merges into an
        # empty collector through here, so ``absorb`` itself only ever
        # sees replay deltas and resume merges.
        for entry in delta.get("classes", ()):
            collected = self.classes.get(entry["descriptor"])
            if collected is None:
                self.classes[entry["descriptor"]] = \
                    CollectedClass.from_dict(entry)
            else:
                known = set(collected.method_signatures)
                collected.method_signatures.extend(
                    sig for sig in entry["methods"] if sig not in known
                )
                if entry["initialized"]:
                    collected.initialized = True
                    values = {f["name"]: tuple(f["value"])
                              for f in entry["fields"]}
                    for collected_field in collected.fields:
                        if collected_field.name in values:
                            collected_field.static_value = \
                                values[collected_field.name]
        for entry in delta.get("methods", ()):
            record = self.method_store.get(entry["signature"]) or \
                self.method_store.ensure(MethodRecord.from_dict(entry))
            for tree in entry["trees"]:
                record.add_tree(tree)
        for entry in delta.get("reflection", ()):
            incoming = ReflectionSite.from_dict(entry)
            site = self.reflection_sites.setdefault(
                (incoming.caller_signature, incoming.dex_pc), incoming)
            for signature, is_static in incoming.target_static.items():
                site.add_target(signature, is_static)
        observed = delta.get("instructions_observed", 0)
        if observed:
            with self._stats_lock:
                self.instructions_observed += observed

    # -- summary ---------------------------------------------------------------

    def stats(self) -> dict:
        executed = self.method_store.executed_records()
        return {
            "classes_collected": len(self.classes),
            "methods_linked": len(self.method_store.records),
            "methods_executed": len(executed),
            "unique_trees": sum(len(r.trees) for r in executed),
            "divergent_methods": sum(
                1
                for r in executed
                if any(t.has_divergence() for t in r.trees)
            ),
            "instructions_observed": self.instructions_observed,
            "collected_instructions": self.method_store.total_collected_instructions(),
            "reflection_sites": len(self.reflection_sites),
        }


def delta_to_json(delta: dict) -> dict:
    """A :meth:`DexLegoCollector.delta_dict` value made JSON-safe: the
    trees become dicts.  :func:`delta_from_json` inverts it."""
    return {**delta, "methods": [
        {**entry, "trees": [tree.to_dict() for tree in entry["trees"]]}
        for entry in delta.get("methods", ())
    ]}


def delta_from_json(data: dict) -> dict:
    """A delta decoded from JSON, trees rebuilt as objects."""
    return {**data, "methods": [
        {**entry, "trees": [CollectionTree.from_dict(tree)
                            for tree in entry["trees"]]}
        for entry in data.get("methods", ())
    ]}


def _encode_static(value) -> tuple:
    """Encode a VM static value into a serialisable tagged tuple."""
    if value is None:
        return ("null",)
    if isinstance(value, VmString):
        return ("string", value.value)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    return ("null",)
