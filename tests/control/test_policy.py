"""ControlPolicy: the envelope validates every bound by name."""

import pytest

from repro.control import ControlPolicy


class TestDefaults:
    def test_defaults_construct(self):
        p = ControlPolicy()
        assert p.tick_frames == 1
        assert p.window_ticks == 4
        assert p.rate_floor <= p.rate_ceiling
        assert p.backlog_low <= p.backlog_high

    def test_frozen(self):
        with pytest.raises(Exception):
            ControlPolicy().tick_frames = 2


class TestValidationNamesTheField:
    """Every rejection names the offending field and its range —
    satellite (2): actionable config errors."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"tick_frames": 0}, "tick_frames"),
            ({"window_ticks": 0}, "window_ticks"),
            ({"rate_floor": 0.0}, "rate_floor"),
            ({"rate_floor": 4.0, "rate_ceiling": 2.0}, "rate_ceiling"),
            ({"rate_increase": -0.1}, "rate_increase"),
            ({"rate_decrease": 0.0}, "rate_decrease"),
            ({"rate_decrease": 1.5}, "rate_decrease"),
            ({"reserve_step": -1.0}, "reserve_step"),
            ({"reserve_max": -1.0}, "reserve_max"),
            ({"backlog_high": -1.0}, "backlog_high"),
            ({"backlog_low": -1.0}, "backlog_low"),
            ({"backlog_high": 1.0, "backlog_low": 2.0}, "backlog_high"),
        ],
    )
    def test_bad_value_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ControlPolicy(**kwargs)

    def test_error_carries_the_offending_value(self):
        with pytest.raises(ValueError, match="-3"):
            ControlPolicy(reserve_max=-3.0)
