"""SegmentLog: the versioned, per-writer JSONL journal behind the stores.

:class:`~repro.index.corpus.CorpusIndex` and
:class:`~repro.cluster.store.ClusterStore` persist their records here:

* ``<meta_file>`` — ``{"version": N}``; created when missing (or
  ``FileNotFoundError`` with ``create=False``), refused with a one-line
  ``ValueError`` when unreadable or foreign-versioned.
* ``segments/seg-<writer>.jsonl`` — every open log appends to its *own*
  segment (a fresh writer id per open), so threads, processes or hosts
  sharing the directory never contend on a file; readers merge all
  segments at open.  Corrupt or truncated lines are skipped and counted
  — a crashed writer costs at most its final line.

The log holds no lock: each store serialises appends and compaction
under the lock that guards its in-memory maps.
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from typing import Iterable, Iterator

from repro import faults

SEGMENTS_DIR = "segments"

logger = logging.getLogger(__name__)


class SegmentLog:
    """One store's journal rooted at ``root``.

    ``name`` is the store's human name in error texts (``"corpus
    index"``); ``site`` prefixes its fault-injection sites
    (``<site>.segment.append``, ``<site>.compact``).  A valid record is
    a JSON object carrying ``"v": version`` and every key in
    ``required``.
    """

    def __init__(self, root: str | os.PathLike, *, name: str, site: str,
                 meta_file: str, version: int, required: Iterable[str],
                 create: bool = True) -> None:
        self.root = os.fspath(root)
        self.segments_dir = os.path.join(self.root, SEGMENTS_DIR)
        self.version = version
        self.corrupt_lines = 0
        self._required = tuple(required)
        self._append_site = f"{site}.segment.append"
        self._compact_site = f"{site}.compact"
        self._writer_id = uuid.uuid4().hex[:12]
        self._handle = None
        self._open_meta(name, meta_file, create)

    def _open_meta(self, name: str, meta_file: str, create: bool) -> None:
        meta_path = os.path.join(self.root, meta_file)
        if not os.path.isfile(meta_path):
            if not create:
                raise FileNotFoundError(
                    f"no {name} at {self.root!r} (missing {meta_file})")
            os.makedirs(self.segments_dir, exist_ok=True)
            faults.atomic_write_json(meta_path, {"version": self.version})
            return
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:
            raise ValueError(
                f"{name} at {self.root!r} has an unreadable "
                f"{meta_file}: {exc}"
            ) from exc
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != self.version:
            raise ValueError(
                f"{name} at {self.root!r} has format version "
                f"{version!r}; this build supports {self.version}"
            )
        os.makedirs(self.segments_dir, exist_ok=True)

    # -- read ---------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Every valid record of every segment, segments in name order."""
        for name in sorted(os.listdir(self.segments_dir)):
            if not name.endswith(".jsonl"):
                continue
            try:
                with open(os.path.join(self.segments_dir, name),
                          encoding="utf-8") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        record = self._parse(line)
                        if record is not None:
                            yield record
            except OSError:
                self.corrupt_lines += 1

    def _parse(self, line: str) -> dict | None:
        try:
            data = json.loads(line)
        except ValueError:
            self.corrupt_lines += 1
            return None
        if not isinstance(data, dict) or data.get("v") != self.version \
                or any(key not in data for key in self._required):
            self.corrupt_lines += 1
            return None
        return data

    def segment_count(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.segments_dir)
                       if name.endswith(".jsonl"))
        except OSError:
            return 0

    # -- write --------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Journal one record to this writer's segment."""
        if self._handle is None:
            path = os.path.join(self.segments_dir,
                                f"seg-{self._writer_id}.jsonl")
            self._handle = open(path, "a", encoding="utf-8")
        faults.append_line(self._handle,
                           json.dumps(record, sort_keys=True) + "\n",
                           site=self._append_site)
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def compact(self, records: Iterable[dict]) -> None:
        """Replace every segment with one holding ``records``.

        The merged segment is written to a temp file and renamed into
        place before the old segments are removed, so a reader opening
        mid-compaction sees either layout, never neither.
        """
        self.close()
        old = [name for name in os.listdir(self.segments_dir)
               if name.endswith(".jsonl")]
        merged = f"seg-compact-{uuid.uuid4().hex[:12]}.jsonl"
        payload = "".join(json.dumps(record, sort_keys=True) + "\n"
                          for record in records)
        faults.atomic_write_text(os.path.join(self.segments_dir, merged),
                                 payload, site=self._compact_site)
        for name in old:
            try:
                os.unlink(os.path.join(self.segments_dir, name))
            except OSError:
                logger.warning("compact: could not remove segment %s", name)
