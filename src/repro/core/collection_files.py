"""Collection files: the on-disk intermediate of Figure 2.

The paper's modified ART writes five kinds of files during execution —
class data, field data, method data, static values and bytecode — which
the offline reassembler later combines.  :class:`CollectionArchive`
implements that boundary: it serialises a collector's state to a
directory (or measures its size in memory for Table VI) and loads it back
for offline reassembly, proving collection and reassembly share no
in-process state.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Mapping
from types import MappingProxyType

from repro import faults
from repro.core.collector import CollectedClass, DexLegoCollector, ReflectionSite
from repro.core.method_store import MethodStore
from repro.core.tree import CollectionTree
from repro.runtime.predecode import validate_predecode_index

CLASS_DATA_FILE = "class_data.json"
FIELD_DATA_FILE = "field_data.json"
METHOD_DATA_FILE = "method_data.json"
STATIC_VALUES_FILE = "static_values.json"
BYTECODE_FILE = "bytecode.json"
REFLECTION_FILE = "reflection.json"
EXPLORATION_STATE_FILE = "exploration_state.json"
PREDECODE_INDEX_FILE = "predecode_index.json"

logger = logging.getLogger(__name__)

ALL_FILES = (
    CLASS_DATA_FILE,
    FIELD_DATA_FILE,
    METHOD_DATA_FILE,
    STATIC_VALUES_FILE,
    BYTECODE_FILE,
    REFLECTION_FILE,
)

#: Files an archive may carry but reassembly does not require.
#: ``exploration_state.json`` is the force-execution frontier snapshot
#: (scheduler state, covered-outcome map, counters) that lets a resumed
#: run continue an interrupted exploration instead of restarting.
#: ``predecode_index.json`` is the serialised warm decode state
#: (:mod:`repro.runtime.predecode`) so the resuming session — and its
#: replay worker processes — warm-start instead of re-decoding.
OPTIONAL_FILES = (EXPLORATION_STATE_FILE, PREDECODE_INDEX_FILE)

#: Exploration-state format versions this build can hydrate.  Checked
#: eagerly on load (and again on access): a frontier written by a
#: different format must fail with one clear line *before* any
#: exploration state is rebuilt from it, not corrupt a resumed run.
SUPPORTED_EXPLORATION_STATE_VERSIONS = (1,)


class CollectionArchive:
    """Serialised collection output (the paper's "Collected Files").

    Every record type goes through its one ``to_dict``/``from_dict``
    codec — the same one a replay delta uses at a JSON boundary — so
    an archive is the delta form of a collector split across the
    Figure-2 files.  Reading decodes the files once into a collector
    (trees rebuilt as objects, then :meth:`DexLegoCollector.from_delta`);
    the reader accessors are views of that decode (until
    :meth:`drop_decoded`).  The two optional state files are written
    compact; the collection files keep their indented layout.
    """

    def __init__(self, payload: dict[str, str]) -> None:
        self._payload = payload  # filename -> JSON text
        self._decoded: DexLegoCollector | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_collector(cls, collector: DexLegoCollector) -> "CollectionArchive":
        class_data = []
        field_data = []
        static_values = []
        for collected in collector.classes.values():
            entry = collected.to_dict()
            class_data.append(entry)
            for field_entry in entry.pop("fields"):
                field_data.append({"class": collected.descriptor,
                                   **field_entry})
                static_values.append({"class": collected.descriptor,
                                      "field": field_entry["name"],
                                      "value": field_entry["value"]})
        records = collector.method_store.records.values()
        payload = {
            CLASS_DATA_FILE: class_data,
            FIELD_DATA_FILE: field_data,
            METHOD_DATA_FILE: [record.to_dict() for record in records],
            STATIC_VALUES_FILE: static_values,
            BYTECODE_FILE: [tree.to_dict() for record in records
                            for tree in record.trees],
            REFLECTION_FILE: [site.to_dict() for site in
                              collector.reflection_sites.values()],
        }
        return cls({name: json.dumps(data, indent=1)
                    for name, data in payload.items()})

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, text in self._payload.items():
            # Atomic per file: a crash mid-save can lose whole files
            # (load will say which) but never leaves a half-written one
            # masquerading as collected data.
            faults.atomic_write_text(os.path.join(directory, name), text,
                                     site="archive.save")
        # Optional files this archive does not carry must not survive
        # from an earlier save — a stale exploration_state.json would
        # resurrect a foreign frontier on the next load/resume.
        for name in OPTIONAL_FILES:
            if name not in self._payload:
                path = os.path.join(directory, name)
                if os.path.exists(path):
                    os.remove(path)

    @classmethod
    def load(cls, directory: str,
             strict: bool = True) -> "CollectionArchive":
        faults.check("archive.load")
        payload = {}
        for name in ALL_FILES:
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                payload[name] = fh.read()
        for name in OPTIONAL_FILES:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    payload[name] = fh.read()
        archive = cls(payload)
        # Version-validate the stateful optional files *now*: every
        # consumer that hydrates exploration state (reassemble CLI,
        # resume, reveal_from_archive) goes through load, so a foreign
        # format fails here with one line instead of deep in a resume.
        # The exploration frontier is correctness-bearing and always
        # strict; the predecode index is a pure warm-start optimisation,
        # so ``strict=False`` (the service's degradation mode) drops a
        # foreign or unreadable one with a warning instead of failing
        # the load.
        archive.exploration_state()
        try:
            archive.predecode_index()
        except ValueError:
            if strict:
                raise
            logger.warning(
                "dropping unreadable predecode index from archive at %s "
                "(cold decode instead of warm start)", directory)
            archive._payload.pop(PREDECODE_INDEX_FILE, None)
        return archive

    def total_size_bytes(self) -> int:
        """Dump-file size (Table VI's "Dump File Size" column).

        Counts only the Figure-2 collection files; optional
        bookkeeping (the exploration-state snapshot) is not part of the
        paper's metric.
        """
        return sum(
            len(text.encode("utf-8"))
            for name, text in self._payload.items()
            if name not in OPTIONAL_FILES
        )

    # -- merging (resume) ---------------------------------------------------

    @classmethod
    def merged(cls, base: "CollectionArchive",
               update: "CollectionArchive") -> "CollectionArchive":
        """Union of two archives: everything either session collected.

        A resumed exploration collects only its own session's runs, so
        its archive must be merged with the archive it resumed from or
        code executed only by the earlier session (the baseline drive,
        prior replays) would vanish from the reveal.  ``base`` is
        decoded into a fresh collector and ``update`` absorbed into it,
        so :meth:`DexLegoCollector.absorb` holds the merge rules;
        neither input changes.  The exploration state is ``update``'s
        (it supersedes the frontier it was resumed from).
        """
        collector = DexLegoCollector.from_delta(
            base._collector().delta_dict())
        collector.absorb(update._collector().delta_dict())
        archive = cls.from_collector(collector)
        archive.set_exploration_state(update.exploration_state())
        # Warm decode state: the update session re-exported its stores
        # after running, so its index supersedes; an update without one
        # (e.g. a no-op resume) keeps the base's warmth.
        archive.set_predecode_index(update.predecode_index()
                                    or base.predecode_index())
        return archive

    # -- exploration state (force-execution resume) -------------------------

    def exploration_state(self) -> dict | None:
        """The serialised force-execution frontier, or None.

        Raises ``ValueError`` (one line) when the archive carries a
        frontier in a format version this build cannot hydrate.
        """
        text = self._payload.get(EXPLORATION_STATE_FILE)
        if text is None:
            return None
        state = json.loads(text)
        version = state.get("version")
        if version not in SUPPORTED_EXPLORATION_STATE_VERSIONS:
            raise ValueError(
                f"unsupported exploration state version {version!r} in "
                f"{EXPLORATION_STATE_FILE} (this build reads "
                f"{SUPPORTED_EXPLORATION_STATE_VERSIONS})"
            )
        return state

    def set_exploration_state(self, state: dict | None) -> None:
        """Attach (or clear) the frontier snapshot carried by save/load."""
        if state is None:
            self._payload.pop(EXPLORATION_STATE_FILE, None)
        else:
            self._payload[EXPLORATION_STATE_FILE] = json.dumps(
                state, separators=(",", ":"))

    # -- predecode index (warm decode state) --------------------------------

    def predecode_index(self) -> dict | None:
        """The serialised warm decode state, or None.

        Raises ``ValueError`` on a foreign index format version — warm
        state is an optimisation, but silently adopting entries whose
        layout this build misreads would be a correctness bug.
        """
        text = self._payload.get(PREDECODE_INDEX_FILE)
        if text is None:
            return None
        return validate_predecode_index(json.loads(text))

    def set_predecode_index(self, index: dict | None) -> None:
        """Attach (or clear) the warm decode state carried by save/load."""
        if index is None:
            self._payload.pop(PREDECODE_INDEX_FILE, None)
        else:
            self._payload[PREDECODE_INDEX_FILE] = json.dumps(
                index, separators=(",", ":"))

    # -- deserialisation into reassembler inputs ----------------------------

    def _collector(self) -> DexLegoCollector:
        """The collection files decoded, once per archive."""
        if self._decoded is None:
            fields: dict[str, list[dict]] = {}
            for entry in self._load(FIELD_DATA_FILE):
                fields.setdefault(entry["class"], []).append(entry)
            trees: dict[str, list[CollectionTree]] = {}
            for entry in self._load(BYTECODE_FILE):
                trees.setdefault(entry["method"], []).append(
                    CollectionTree.from_dict(entry))
            self._decoded = DexLegoCollector.from_delta({
                "classes": [
                    {**entry, "fields": fields.get(entry["descriptor"], [])}
                    for entry in self._load(CLASS_DATA_FILE)
                ],
                "methods": [
                    {**entry, "trees": trees.get(entry["signature"], [])}
                    for entry in self._load(METHOD_DATA_FILE)
                ],
                "reflection": self._load(REFLECTION_FILE),
            })
        return self._decoded

    def _load(self, name: str) -> list[dict]:
        return json.loads(self._payload[name])

    def drop_decoded(self) -> None:
        """Free the decode behind the reader views; the files stay.

        For holders that keep an archive past its reassembly, such as
        a finished reveal's result: a later accessor decodes again.
        """
        self._decoded = None

    # The reader accessors share one decode, so callers must treat what
    # they return as read-only.

    def method_store(self) -> MethodStore:
        return self._collector().method_store

    def collected_class_map(self) -> Mapping[str, CollectedClass]:
        """Class metadata with fields and static values, by descriptor."""
        return MappingProxyType(self._collector().classes)

    def reflection_sites(self) -> Mapping[tuple[str, int], ReflectionSite]:
        return MappingProxyType(self._collector().reflection_sites)
