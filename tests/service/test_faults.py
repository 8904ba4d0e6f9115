"""repro.faults: seeded plans, bounded rules, faultable I/O helpers."""

import json
import os

import pytest

from repro import faults
from repro.faults import (
    ALL_FAULT_KINDS,
    FAULT_CONN_RESET,
    FAULT_HTTP_TIMEOUT,
    FAULT_OS_ERROR,
    FAULT_PARTIAL_REPLACE,
    FAULT_TORN_TMP,
    FAULT_TRUNCATED_LINE,
    KNOWN_SITES,
    NETWORK_SITES,
    SITE_KINDS,
    STORE_SITES,
    WORKER_SITES,
    FaultInjected,
    FaultPlan,
    FaultRule,
    InjectedConnectionReset,
    InjectedTimeout,
)


@pytest.fixture(autouse=True)
def _always_disarmed():
    # Any test that arms a plan must not leak it into the next test.
    yield
    faults.disarm()


class TestPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(42, faults=6)
        b = FaultPlan.seeded(42, faults=6)
        assert [r.to_dict() for r in a.rules] == \
               [r.to_dict() for r in b.rules]
        assert [r.to_dict() for r in FaultPlan.seeded(43, faults=6).rules] \
               != [r.to_dict() for r in a.rules]

    def test_seeded_kinds_are_valid_for_their_sites(self):
        for seed in range(20):
            for rule in FaultPlan.seeded(seed, faults=8).rules:
                assert rule.kind in SITE_KINDS[rule.site]

    def test_rule_fires_inside_its_window_only(self):
        plan = FaultPlan([FaultRule("s", FAULT_OS_ERROR,
                                    times=2, after=1)])
        decisions = [plan.decide("s") for _ in range(5)]
        assert [d is not None for d in decisions] == \
               [False, True, True, False, False]
        assert plan.exhausted()

    def test_rule_counters_advance_independently(self):
        plan = FaultPlan([
            FaultRule("s", FAULT_OS_ERROR, after=0),
            FaultRule("s", FAULT_TORN_TMP, after=1),
        ])
        first = plan.decide("s")
        second = plan.decide("s")
        assert first.kind == FAULT_OS_ERROR
        # Both counters advanced on hit 0, so rule 2 fires on hit 1.
        assert second.kind == FAULT_TORN_TMP

    def test_fnmatch_site_patterns(self):
        plan = FaultPlan([FaultRule("jobstore.*", FAULT_OS_ERROR,
                                    times=3)])
        assert plan.decide("jobstore.record.write") is not None
        assert plan.decide("jobstore.events.append") is not None
        assert plan.decide("artifacts.put") is None

    def test_plan_round_trips_through_dict(self):
        plan = FaultPlan.seeded(7, faults=5, name="ship-me")
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.seed == 7
        assert clone.name == "ship-me"
        assert [r.to_dict() for r in clone.rules] == \
               [r.to_dict() for r in plan.rules]

    def test_describe_names_seed_and_rules(self):
        plan = FaultPlan.seeded(9, faults=2, name="chaos-9")
        text = plan.describe()
        assert "chaos-9" in text and "seed=9" in text
        for rule in plan.rules:
            assert rule.site in text

    def test_site_groups_cover_known_sites(self):
        grouped = set(STORE_SITES) | set(NETWORK_SITES) | set(WORKER_SITES)
        assert grouped == set(KNOWN_SITES)
        # Every declared kind is reachable from at least one site.
        assert set(ALL_FAULT_KINDS) == {
            k for kinds in SITE_KINDS.values() for k in kinds
        }


class TestArming:
    def test_unarmed_check_is_a_noop(self):
        assert faults.active() is None
        faults.check("jobstore.record.write")  # must not raise

    def test_armed_context_restores_disarmed(self):
        plan = FaultPlan([FaultRule("x", FAULT_OS_ERROR)])
        with faults.armed(plan):
            assert faults.active() is plan
            with pytest.raises(FaultInjected):
                faults.check("x")
        assert faults.active() is None

    def test_fired_log_records_what_happened(self):
        plan = FaultPlan([FaultRule("x", FAULT_OS_ERROR)])
        with faults.armed(plan):
            with pytest.raises(FaultInjected):
                faults.check("x")
        assert plan.fired == [{"site": "x", "kind": FAULT_OS_ERROR,
                               "hit": 0}]

    def test_typed_exceptions_match_production_isinstance_checks(self):
        plan = FaultPlan([
            FaultRule("t", FAULT_HTTP_TIMEOUT),
            FaultRule("r", FAULT_CONN_RESET),
        ])
        with faults.armed(plan):
            with pytest.raises(TimeoutError) as t:
                faults.check("t")
            with pytest.raises(ConnectionResetError) as r:
                faults.check("r")
        assert isinstance(t.value, InjectedTimeout)
        assert isinstance(t.value, OSError)
        assert isinstance(r.value, InjectedConnectionReset)


class TestFaultableWrites:
    def test_atomic_write_is_atomic_without_faults(self, tmp_path):
        path = tmp_path / "out.json"
        faults.atomic_write_json(path, {"ok": 1})
        assert json.loads(path.read_text()) == {"ok": 1}
        assert not os.path.exists(str(path) + ".tmp")

    def test_torn_tmp_leaves_half_written_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        plan = FaultPlan([FaultRule("site", FAULT_TORN_TMP)])
        with faults.armed(plan):
            with pytest.raises(FaultInjected):
                faults.atomic_write_bytes(path, b"x" * 100, site="site")
        assert not path.exists()
        # Temp names are unique per writer; the debris is found by glob.
        [torn] = tmp_path.glob("out.bin.*.tmp")
        assert 0 < torn.stat().st_size < 100

    def test_partial_replace_keeps_old_content_visible(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        plan = FaultPlan([FaultRule("site", FAULT_PARTIAL_REPLACE)])
        with faults.armed(plan):
            with pytest.raises(FaultInjected):
                faults.atomic_write_text(path, "new", site="site")
        # The replace never ran: readers still see the old bytes, the
        # fully-written temp file is stranded debris.
        assert path.read_text() == "old"
        [stranded] = tmp_path.glob("out.txt.*.tmp")
        assert stranded.read_text() == "new"

    def test_truncated_line_flushes_a_torn_prefix(self, tmp_path):
        path = tmp_path / "log.jsonl"
        line = json.dumps({"k": "v" * 20}) + "\n"
        plan = FaultPlan([FaultRule("site", FAULT_TRUNCATED_LINE)])
        with faults.armed(plan):
            with open(path, "a", encoding="utf-8") as fh:
                with pytest.raises(FaultInjected):
                    faults.append_line(fh, line, site="site")
        tail = path.read_text()
        assert 0 < len(tail) < len(line)
        with pytest.raises(ValueError):
            json.loads(tail)

    def test_exhausted_rule_lets_the_retry_through(self, tmp_path):
        path = tmp_path / "out.txt"
        plan = FaultPlan([FaultRule("site", FAULT_TORN_TMP, times=1)])
        with faults.armed(plan):
            with pytest.raises(FaultInjected):
                faults.atomic_write_text(path, "payload", site="site")
            faults.atomic_write_text(path, "payload", site="site")
        assert path.read_text() == "payload"
        assert plan.exhausted()
