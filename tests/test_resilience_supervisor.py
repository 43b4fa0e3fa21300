"""LinkSupervisor: chaos soaks, failover, recovery, and the verdicts."""

import pytest

from repro.errors import LinkDownError
from repro.resilience import (
    PROTECT,
    WORKING,
    ChaosEvent,
    LinkSupervisor,
    SupervisorConfig,
)
from repro.resilience.guard import GuardMode
from repro.resilience.aps import ApsRequest


def small_config(**overrides):
    base = dict(
        intervals=120, frames_per_interval=4, chaos_events=6, seed=3
    )
    base.update(overrides)
    return SupervisorConfig(**base)


@pytest.fixture(scope="module")
def soak_result():
    """One shared small soak (module-scoped: the soak is ~0.3 s)."""
    return LinkSupervisor(small_config()).run_soak()


class TestCleanLink:
    def test_chaos_free_soak_is_lossless(self):
        sup = LinkSupervisor(small_config(), chaos=[])
        result = sup.run_soak()
        assert result.ok
        assert result.frames_lost == 0
        assert result.frames_delivered == result.frames_submitted
        assert not result.switchovers
        assert result.final_active == WORKING

    def test_deterministic_from_seed(self):
        first = LinkSupervisor(small_config()).run_soak()
        second = LinkSupervisor(small_config()).run_soak()
        assert first.frames_lost == second.frames_lost
        assert [r.as_dict() for r in first.switchovers] == [
            r.as_dict() for r in second.switchovers
        ]
        assert first.log.as_dicts() == second.log.as_dicts()


class TestChaosSoak:
    def test_all_invariants_hold(self, soak_result):
        assert soak_result.violations == []
        assert soak_result.ok

    def test_no_undetected_corruption(self, soak_result):
        assert soak_result.undetected_corruptions == 0

    def test_working_cut_forces_failover_and_reversion(self, soak_result):
        requests = [r.request for r in soak_result.switchovers]
        assert ApsRequest.SIGNAL_FAIL in requests
        assert ApsRequest.WAIT_TO_RESTORE in requests
        assert soak_result.reversions >= 1
        assert soak_result.final_active == WORKING

    def test_switchover_loss_stays_within_budget(self, soak_result):
        budget = soak_result.config.switchover_loss_budget
        assert soak_result.switch_losses
        for entry in soak_result.switch_losses:
            assert entry["loss"] <= budget

    def test_sabotage_degrades_fastpath_but_traffic_flows(self, soak_result):
        quarantines = sum(
            len(lane["guard"]["quarantines"])
            for lane in soak_result.lanes.values()
        )
        assert quarantines >= 1
        assert soak_result.degraded_delivered >= 1
        # Every lane ends reinstated, back in fast mode.
        for lane in soak_result.lanes.values():
            assert lane["guard"]["mode"] == GuardMode.FAST.value

    def test_event_log_covers_every_category(self, soak_result):
        categories = {e.category for e in soak_result.log.events}
        assert {"chaos", "aps", "fastpath"} <= categories
        assert soak_result.log.select(category="aps", kind="switch")

    def test_lcp_ends_opened_on_both_lanes(self, soak_result):
        for lane in soak_result.lanes.values():
            assert lane["lcp_state"] == "OPENED"


class TestLinkDown:
    def double_cut(self, at=30, duration=80):
        return [
            ChaosEvent(at, WORKING, "cut", duration=duration),
            ChaosEvent(at, PROTECT, "cut", duration=duration),
        ]

    def test_both_lanes_cut_raises_typed_error(self):
        sup = LinkSupervisor(small_config(), chaos=self.double_cut())
        with pytest.raises(LinkDownError) as excinfo:
            sup.run_soak()
        assert "both lanes down" in str(excinfo.value)
        # The exception carries the structured black-box log.
        assert excinfo.value.events
        assert any(e.kind == "link-down" for e in excinfo.value.events)

    def test_ladder_climbed_before_quarantine(self):
        sup = LinkSupervisor(small_config(), chaos=self.double_cut())
        with pytest.raises(LinkDownError) as excinfo:
            sup.run_soak()
        steps = [
            e.kind for e in excinfo.value.events if e.category == "ladder"
        ]
        for rung in ("resync", "flush", "renegotiate", "switch"):
            assert rung in steps
        # LCP renegotiation on a cut lane drains TO+ to TO- (RFC 1661).
        renegs = [
            e for e in excinfo.value.events
            if e.kind == "renegotiate-result"
        ]
        assert renegs and renegs[0].detail["opened"] is False

    def test_raise_can_be_disabled(self):
        sup = LinkSupervisor(
            small_config(raise_on_quarantine=False),
            chaos=self.double_cut(),
        )
        result = sup.run_soak()
        assert sup.quarantine_declared
        assert result.log.select(category="ladder", kind="link-down")

    def test_link_recovers_when_the_cut_heals(self):
        """A short double cut is survived: ladder recovers, no raise."""
        sup = LinkSupervisor(
            small_config(),
            chaos=[
                ChaosEvent(30, WORKING, "cut", duration=2),
                ChaosEvent(30, PROTECT, "cut", duration=2),
            ],
        )
        result = sup.run_soak()
        assert result.undetected_corruptions == 0
        assert result.final_active == WORKING


class TestConfig:
    def test_loss_budget_formula(self):
        cfg = SupervisorConfig(hold_off=2, frames_per_interval=16)
        assert cfg.switchover_loss_budget == (2 + 3) * 16

    def test_smoke_scale_meets_acceptance_floor(self):
        cfg = SupervisorConfig()
        assert cfg.intervals * cfg.frames_per_interval >= 10_000
        assert cfg.chaos_events >= 20
