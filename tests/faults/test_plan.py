"""FaultPlan / Fault model: validation, determinism, fingerprints."""

import pickle

import pytest

from repro.faults import Fault, FaultKind, FaultPlan


class TestFaultValidation:
    def test_kind_coerced_from_string(self):
        f = Fault(kind="dead_switch", level=1, index=0)
        assert f.kind is FaultKind.DEAD_SWITCH

    def test_positions(self):
        assert Fault(kind="stuck_at", level=1, index=3).positions == (6, 7)

    def test_bad_level(self):
        with pytest.raises(ValueError, match="level"):
            Fault(kind="stuck_at", level=0, index=0)

    def test_bad_stuck_setting(self):
        with pytest.raises(ValueError, match="stuck_setting"):
            Fault(kind="stuck_at", level=1, index=0, stuck_setting=2)

    def test_bad_drop_rate(self):
        with pytest.raises(ValueError, match="drop_rate"):
            Fault(kind="flaky_link", level=1, index=0, drop_rate=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Fault(kind="melted", level=1, index=0)


class TestFaultPlanValidation:
    def test_level_out_of_range_for_n(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan(8, (Fault(kind="stuck_at", level=4, index=0),))

    def test_index_out_of_range_for_n(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultPlan(8, (Fault(kind="stuck_at", level=1, index=4),))

    def test_duplicate_cell_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                8,
                (
                    Fault(kind="stuck_at", level=2, index=1),
                    Fault(kind="dead_switch", level=2, index=1),
                ),
            )

    def test_faults_sorted_by_cell(self):
        plan = FaultPlan(
            8,
            (
                Fault(kind="stuck_at", level=3, index=0),
                Fault(kind="stuck_at", level=1, index=2),
            ),
        )
        assert [(f.level, f.index) for f in plan.faults] == [(1, 2), (3, 0)]
        assert plan.levels == (1, 3)
        assert len(plan.at_level(3)) == 1

    def test_empty(self):
        plan = FaultPlan.empty(16)
        assert plan.is_empty and plan.levels == ()


class TestSeededConstructors:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_single_switch_deterministic(self, n):
        a = FaultPlan.single_switch(n, seed=5)
        b = FaultPlan.single_switch(n, seed=5)
        assert a == b and len(a.faults) == 1

    def test_single_switch_pins_coordinates(self):
        plan = FaultPlan.single_switch(
            16, kind=FaultKind.DEAD_SWITCH, level=2, index=3
        )
        (f,) = plan.faults
        assert (f.kind, f.level, f.index) == (FaultKind.DEAD_SWITCH, 2, 3)

    def test_seeds_cover_the_fault_space(self):
        cells = {
            FaultPlan.single_switch(8, seed=s).faults[0].index
            for s in range(64)
        }
        assert len(cells) == 4  # all of 0..3 reached

    def test_random_counts_and_determinism(self):
        a = FaultPlan.random(16, faults=5, seed=9)
        assert len(a.faults) == 5
        assert a == FaultPlan.random(16, faults=5, seed=9)
        assert a != FaultPlan.random(16, faults=5, seed=10)

    def test_random_too_many_faults(self):
        with pytest.raises(ValueError, match="cannot place"):
            FaultPlan.random(8, faults=13)

    def test_random_kind_restriction(self):
        plan = FaultPlan.random(16, faults=4, seed=1, kinds=["flaky_link"])
        assert {f.kind for f in plan.faults} == {FaultKind.FLAKY_LINK}


class TestDeterministicDrops:
    def test_drop_mask_stable_per_attempt(self):
        f = Fault(kind="flaky_link", level=2, index=1, drop_rate=0.5, seed=3)
        masks = [f.drop_mask(a) for a in range(6)]
        assert masks == [f.drop_mask(a) for a in range(6)]
        assert any(m != masks[0] for m in masks)  # attempts re-draw

    def test_drop_rate_extremes(self):
        never = Fault(kind="flaky_link", level=1, index=0, drop_rate=0.0)
        always = Fault(kind="flaky_link", level=1, index=0, drop_rate=1.0)
        for attempt in range(4):
            assert never.drop_mask(attempt) == (False, False)
            assert always.drop_mask(attempt) == (True, True)


class TestFingerprint:
    def test_content_addressed(self):
        a = FaultPlan.single_switch(16, kind="stuck_at", level=2, index=1)
        b = FaultPlan(16, (Fault(kind="stuck_at", level=2, index=1, seed=0),))
        assert a.fingerprint() == b.fingerprint()

    def test_distinguishes_plans(self):
        a = FaultPlan.single_switch(16, kind="stuck_at", level=2, index=1)
        b = FaultPlan.single_switch(16, kind="dead_switch", level=2, index=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != FaultPlan.empty(16).fingerprint()

    def test_golden_fingerprint(self):
        # Pinned: the fingerprint keys cached routing plans, so it must
        # be stable across processes and Python versions.
        plan = FaultPlan(8, (Fault(kind="dead_switch", level=1, index=2),))
        assert plan.fingerprint() == (
            "3db625fd83189f856a28819585d52b63cc3134838872cc23e481c021aeb11251"
        )

    def test_fingerprint_is_computed_once(self, monkeypatch):
        plan = FaultPlan(8, (Fault(kind="dead_switch", level=1, index=2),))
        calls = []
        as_dict = Fault.as_dict
        monkeypatch.setattr(
            Fault, "as_dict", lambda f: calls.append(f) or as_dict(f)
        )
        assert {plan.fingerprint() for _ in range(5)} == {
            "3db625fd83189f856a28819585d52b63cc3134838872cc23e481c021aeb11251"
        }
        assert len(calls) == 1
        # The memo is not a field: equality, hashing and pickles ignore it.
        twin = FaultPlan(8, plan.faults)
        assert twin == plan and hash(twin) == hash(plan)
        assert pickle.loads(pickle.dumps(plan)) == plan
