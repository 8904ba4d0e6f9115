"""Deterministic, seeded fault injection at I/O and IPC boundaries.

The service layers promise exactly-once job completion and
byte-identical artifacts; those claims are only worth anything if they
survive the failures a real deployment sees — torn writes, truncated
journal lines, dropped connections, killed workers.  This module is the
single switchboard for *injecting* those failures deterministically so
the chaos suite can replay any schedule from its seed.

Design constraints, in order:

1. **Zero cost unarmed.**  Every injection point is a call to
   :func:`check` (or routes a write through :func:`atomic_write_bytes`
   / :func:`append_line`); with no plan armed those helpers hit a
   single module-global ``is None`` test and return.  The bench-smoke
   regression gate runs with nothing armed.
2. **Deterministic across processes.**  A :class:`FaultPlan` is seeded
   via :meth:`FaultPlan.seeded` with ``random.Random`` string seeding
   (which hashes bytes, not ``hash()``, so ``PYTHONHASHSEED`` is
   irrelevant) and ships to subprocess workers through
   :meth:`FaultPlan.to_dict`.  The same seed always yields the same
   schedule.
3. **Bounded.**  Every :class:`FaultRule` fires a finite number of
   times (``times``), so bounded-retry clients eventually succeed and
   chaos runs converge instead of starving.

Injection points are *named sites* (see :data:`SITE_KINDS`); a rule's
``site`` may be an exact name or an ``fnmatch`` pattern (``"jobstore.*"``).
Faults raise :class:`FaultInjected` — an ``OSError`` subclass, so the
production error handling that deals with real I/O failures handles
injected ones identically; timeout and connection-reset kinds also
subclass ``TimeoutError`` / ``ConnectionResetError`` so transport-level
``isinstance`` checks behave as they would for the real thing.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase

# -- fault kinds --------------------------------------------------------------

FAULT_OS_ERROR = "os-error"              #: plain OSError from the call
FAULT_TORN_TMP = "torn-tmp"              #: half-written ``.tmp`` left behind
FAULT_TRUNCATED_LINE = "truncated-line"  #: partial JSONL line appended
FAULT_PARTIAL_REPLACE = "partial-replace"  #: ``.tmp`` durable, replace lost
FAULT_HTTP_500 = "http-500"              #: gateway answers 500
FAULT_HTTP_TIMEOUT = "http-timeout"      #: request never answered in time
FAULT_CONN_RESET = "conn-reset"          #: connection dropped mid-request
FAULT_DELAY = "delay"                    #: slow response / slow disk
FAULT_KILL = "kill"                      #: process dies on the spot

ALL_FAULT_KINDS = (
    FAULT_OS_ERROR,
    FAULT_TORN_TMP,
    FAULT_TRUNCATED_LINE,
    FAULT_PARTIAL_REPLACE,
    FAULT_HTTP_500,
    FAULT_HTTP_TIMEOUT,
    FAULT_CONN_RESET,
    FAULT_DELAY,
    FAULT_KILL,
)

#: Exit code used by :data:`FAULT_KILL` so a supervisor (or the chaos
#: suite) can tell an injected death from a genuine crash.
KILL_EXIT_CODE = 86

# -- injection sites ----------------------------------------------------------

#: Every named injection point, mapped to the fault kinds that make
#: sense there.  This is both documentation and the pool
#: :meth:`FaultPlan.seeded` draws from.  Atomic-write sites understand
#: the torn-tmp / partial-replace kinds; append sites understand
#: truncated-line; network sites understand the HTTP kinds; every site
#: accepts plain os-error and delay.
SITE_KINDS = {
    # job store (queue records, event journal, claim tokens)
    "jobstore.record.write": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                              FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "jobstore.events.append": (FAULT_OS_ERROR, FAULT_TRUNCATED_LINE,
                               FAULT_DELAY),
    "jobstore.claim.token": (FAULT_OS_ERROR, FAULT_DELAY),
    # artifact store
    "artifacts.put": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                      FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "artifacts.get": (FAULT_OS_ERROR, FAULT_DELAY),
    # corpus index / cluster store segments
    "index.segment.append": (FAULT_OS_ERROR, FAULT_TRUNCATED_LINE,
                             FAULT_DELAY),
    "index.body.write": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                         FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "index.compact": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                      FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "cluster.segment.append": (FAULT_OS_ERROR, FAULT_TRUNCATED_LINE,
                               FAULT_DELAY),
    "cluster.families.write": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                               FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "cluster.compact": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                        FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    # reveal cache (disk backend)
    "cache.write": (FAULT_OS_ERROR, FAULT_TORN_TMP,
                    FAULT_PARTIAL_REPLACE, FAULT_DELAY),
    "cache.read": (FAULT_OS_ERROR, FAULT_DELAY),
    # collection archives
    "archive.save": (FAULT_OS_ERROR, FAULT_TORN_TMP, FAULT_DELAY),
    "archive.load": (FAULT_OS_ERROR, FAULT_DELAY),
    # HTTP boundary
    "gateway.request": (FAULT_HTTP_500, FAULT_CONN_RESET, FAULT_DELAY),
    "client.request": (FAULT_OS_ERROR, FAULT_HTTP_TIMEOUT,
                       FAULT_CONN_RESET, FAULT_DELAY),
    # worker loop
    "worker.claim": (FAULT_OS_ERROR, FAULT_DELAY, FAULT_KILL),
    "worker.heartbeat": (FAULT_OS_ERROR, FAULT_DELAY, FAULT_KILL),
    "worker.complete": (FAULT_OS_ERROR, FAULT_DELAY, FAULT_KILL),
}

KNOWN_SITES = tuple(sorted(SITE_KINDS))

#: Site groups the chaos suite composes schedules from.
STORE_SITES = tuple(s for s in KNOWN_SITES
                    if s.split(".", 1)[0] in
                    ("jobstore", "artifacts", "index", "cluster",
                     "cache", "archive"))
NETWORK_SITES = ("gateway.request", "client.request")
WORKER_SITES = ("worker.claim", "worker.heartbeat", "worker.complete")


# -- exceptions ---------------------------------------------------------------

class FaultInjected(OSError):
    """An injected fault.  Subclasses ``OSError`` deliberately: code
    hardened against real I/O failures must not need special cases for
    injected ones."""

    def __init__(self, site: str, kind: str) -> None:
        super().__init__(f"injected fault: {kind} at {site}")
        self.site = site
        self.kind = kind


class InjectedTimeout(FaultInjected, TimeoutError):
    """Injected request timeout (``isinstance(exc, TimeoutError)``)."""

    def __init__(self, site: str) -> None:
        FaultInjected.__init__(self, site, FAULT_HTTP_TIMEOUT)


class InjectedConnectionReset(FaultInjected, ConnectionResetError):
    """Injected connection reset (``isinstance(exc, ConnectionResetError)``)."""

    def __init__(self, site: str) -> None:
        FaultInjected.__init__(self, site, FAULT_CONN_RESET)


# -- rules and plans ----------------------------------------------------------

@dataclass
class FaultRule:
    """One scheduled fault: at matched hits ``after .. after+times-1``
    of ``site`` (exact name or fnmatch pattern), inject ``kind``."""

    site: str
    kind: str
    times: int = 1
    after: int = 0
    delay_s: float = 0.02

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatchcase(site, self.site)

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "times": self.times,
            "after": self.after,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        return cls(
            site=data["site"],
            kind=data["kind"],
            times=int(data.get("times", 1)),
            after=int(data.get("after", 0)),
            delay_s=float(data.get("delay_s", 0.02)),
        )


class FaultPlan:
    """A deterministic schedule of faults.

    Each rule keeps its own matched-hit counter: the *n*-th time a site
    matching the rule is reached, the rule fires iff
    ``after <= n < after + times``.  Counters advance for every
    matching rule even when another rule fires first, so two rules on
    one site trigger at independent, predictable hits.  Thread-safe;
    ship to subprocess workers via :meth:`to_dict`.
    """

    def __init__(self, rules, seed: int = 0, name: str = "") -> None:
        self.rules = list(rules)
        self.seed = seed
        self.name = name
        self._lock = threading.Lock()
        self._hits = [0] * len(self.rules)
        #: Log of fired faults (site, kind, matched-hit index), for
        #: reproducing and reporting a chaos run.
        self.fired: list[dict] = []

    @classmethod
    def seeded(cls, seed: int, sites=None, faults: int = 4,
               max_skip: int = 2, name: str = "") -> "FaultPlan":
        """Generate a schedule from ``seed``: ``faults`` rules drawn
        from ``sites`` (default: every known site), each firing once
        after 0..``max_skip`` clean hits, with a kind valid for its
        site.  String seeding keeps this identical across processes
        regardless of ``PYTHONHASHSEED``."""
        rng = random.Random(f"repro.faults:{seed}")
        pool = tuple(sites) if sites else KNOWN_SITES
        rules = []
        for _ in range(max(0, faults)):
            site = rng.choice(pool)
            kinds = SITE_KINDS.get(site, (FAULT_OS_ERROR, FAULT_DELAY))
            rules.append(FaultRule(
                site=site,
                kind=rng.choice(kinds),
                times=1,
                after=rng.randrange(max_skip + 1),
            ))
        return cls(rules, seed=seed, name=name or f"seed-{seed}")

    def decide(self, site: str) -> FaultRule | None:
        """Advance every matching rule's counter; return the first rule
        whose window covers this hit (or ``None``)."""
        fired = None
        with self._lock:
            for i, rule in enumerate(self.rules):
                if not rule.matches(site):
                    continue
                hit = self._hits[i]
                self._hits[i] = hit + 1
                if fired is None and rule.after <= hit < rule.after + rule.times:
                    fired = rule
                    self.fired.append(
                        {"site": site, "kind": rule.kind, "hit": hit})
        return fired

    def exhausted(self) -> bool:
        """True once every rule's firing window has passed."""
        with self._lock:
            return all(hits >= rule.after + rule.times
                       for rule, hits in zip(self.rules, self._hits))

    def describe(self) -> str:
        """One line per rule — printed by the chaos suite on failure so
        any run reproduces from its seed."""
        head = f"FaultPlan {self.name!r} seed={self.seed}"
        lines = [f"  {r.site} -> {r.kind} (after={r.after}, times={r.times})"
                 for r in self.rules]
        return "\n".join([head] + lines)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "rules": [r.to_dict() for r in self.rules],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            [FaultRule.from_dict(r) for r in data.get("rules", [])],
            seed=int(data.get("seed", 0)),
            name=data.get("name", ""),
        )


# -- arming and triggering ----------------------------------------------------

_armed: FaultPlan | None = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide.  Injection points are no-ops until
    this is called."""
    global _armed
    _armed = plan
    return plan


def disarm() -> FaultPlan | None:
    """Disarm; returns the plan that was armed (with its fired log)."""
    global _armed
    plan = _armed
    _armed = None
    return plan


def active() -> FaultPlan | None:
    return _armed


@contextmanager
def armed(plan: FaultPlan):
    """``with faults.armed(plan): ...`` — arm for the block, always
    disarm after."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def _trigger(site: str, rule: FaultRule) -> None:
    kind = rule.kind
    if kind == FAULT_DELAY:
        time.sleep(rule.delay_s)
        return
    if kind == FAULT_KILL:
        os._exit(KILL_EXIT_CODE)
    if kind == FAULT_HTTP_TIMEOUT:
        raise InjectedTimeout(site)
    if kind == FAULT_CONN_RESET:
        raise InjectedConnectionReset(site)
    raise FaultInjected(site, kind)


def check(site: str) -> None:
    """The generic injection point.  No plan armed: one ``is None``
    test and out."""
    plan = _armed
    if plan is None:
        return
    rule = plan.decide(site)
    if rule is not None:
        _trigger(site, rule)


def decide(site: str) -> FaultRule | None:
    """Consult the armed plan without triggering — for boundaries (the
    HTTP gateway, the client transport) that must translate a fault
    kind into their own wire behaviour."""
    plan = _armed
    if plan is None:
        return None
    return plan.decide(site)


# -- faultable I/O helpers ----------------------------------------------------
#
# These unify the ``.tmp`` + ``os.replace`` pattern used across the
# stores and mechanise the write-shaped fault kinds: torn-tmp stops
# half-way through the temp file, partial-replace persists the temp
# file but never publishes it.  Both leave exactly the debris a real
# crash at that instant would.

def atomic_write_bytes(path, data: bytes, site: str = "") -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``),
    subject to any armed fault at ``site``.

    The temp name is unique per call: concurrent writers of one path
    (threads sharing a store, processes or hosts sharing a directory)
    must never rename each other's temp file away.
    """
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    rule = _decide(site)
    if rule is not None and rule.kind == FAULT_TORN_TMP:
        with open(tmp, "wb") as handle:
            handle.write(data[: max(1, len(data) // 2)])
        raise FaultInjected(site, FAULT_TORN_TMP)
    if rule is not None and rule.kind != FAULT_PARTIAL_REPLACE:
        _trigger(site, rule)
    with open(tmp, "wb") as handle:
        handle.write(data)
    if rule is not None and rule.kind == FAULT_PARTIAL_REPLACE:
        raise FaultInjected(site, FAULT_PARTIAL_REPLACE)
    os.replace(tmp, path)


def atomic_write_text(path, text: str, site: str = "",
                      encoding: str = "utf-8") -> None:
    atomic_write_bytes(path, text.encode(encoding), site=site)


def atomic_write_json(path, payload, site: str = "", **dumps_kwargs) -> None:
    atomic_write_text(path, json.dumps(payload, **dumps_kwargs), site=site)


def append_line(handle, line: str, site: str = "") -> None:
    """Append one line to an open text handle, subject to the
    truncated-line fault (which flushes a torn prefix, exactly what a
    crash mid-append leaves)."""
    rule = _decide(site)
    if rule is not None and rule.kind == FAULT_TRUNCATED_LINE:
        handle.write(line[: max(1, len(line) // 2)])
        handle.flush()
        raise FaultInjected(site, FAULT_TRUNCATED_LINE)
    if rule is not None:
        _trigger(site, rule)
    handle.write(line)


def _decide(site: str) -> FaultRule | None:
    plan = _armed
    if plan is None or not site:
        return None
    return plan.decide(site)
