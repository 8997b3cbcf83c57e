"""The single event model: frame labels, table coverage, unknown events."""

import pytest

from repro.obs import Event, MetricsObserver, Observer, TracingObserver
from repro.obs.metrics_observer import FAMILIES

from test_event_stream_golden import CAMPAIGNS

#: Events the golden campaigns emit that no metric family consumes.
UNCONSUMED = {("cluster", "drain"), ("cluster", "snapshot")}


def frame_start(fid, engine, mode):
    return Event(
        "frame_start",
        "brsmn",
        fid,
        fields={"n": 8, "engine": engine, "mode": mode, "frames": 1,
                "active_inputs": 2, "fanout": 3},
    )


def frame_done(fid, engine, mode, frames):
    return Event(
        "frame_done",
        "brsmn",
        fid,
        fields={"engine": engine, "mode": mode, "frames": frames,
                "deliveries": 3, "splits": 1, "switch_ops": 12,
                "duration_ns": 1000, "cache_hit": None},
    )


class TestFrameLabels:
    def test_interleaved_networks_keep_their_own_labels(self):
        """Two networks (or threads) sharing one observer: each frame is
        labelled by its own ``frame_done``, not by whichever frame
        started last."""
        mo = MetricsObserver()
        for event in (
            frame_start(0, "reference", "oracle"),
            frame_start(0, "fast", "selfrouting"),
            frame_done(0, "reference", "oracle", 1),
            frame_start(1, "reference", "oracle"),
            frame_done(0, "fast", "selfrouting", 4),
            frame_done(1, "reference", "oracle", 1),
        ):
            mo.on_event(event)
        frames = mo.registry.get("repro_frames_total")
        assert frames.value(engine="reference", mode="oracle") == 2
        assert frames.value(engine="fast", mode="selfrouting") == 4
        assert frames.value(engine="fast", mode="oracle") == 0
        latency = mo.registry.get("repro_frame_ns")
        assert latency.count(engine="reference") == 2
        assert latency.count(engine="fast") == 1


class _PairRecorder(Observer):
    def __init__(self):
        self.pairs = set()

    def on_event(self, event):
        self.pairs.add((event.stage, event.kind))


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_every_emitted_event_feeds_a_family(campaign):
    rec = _PairRecorder()
    CAMPAIGNS[campaign](rec)
    consumed = {key for family in FAMILIES for key in family.events}
    assert rec.pairs - consumed <= UNCONSUMED


def test_unconsumed_list_is_exact():
    """The exemption list names only events that really go unconsumed."""
    consumed = {key for family in FAMILIES for key in family.events}
    assert not UNCONSUMED & consumed


UNKNOWN = [
    Event("mystery", "brsmn"),
    Event("shed", "nowhere"),
    Event("frame_done", "elsewhere", 3),
    Event("hit", "fastplan.plan_cache.v2", fields={"key": "k"}),
]


class TestUnknownEventsAreIgnored:
    @pytest.mark.parametrize("event", UNKNOWN, ids=lambda e: f"{e.stage}:{e.kind}")
    def test_base_observer(self, event):
        Observer().on_event(event)

    @pytest.mark.parametrize("event", UNKNOWN, ids=lambda e: f"{e.stage}:{e.kind}")
    def test_metrics_observer(self, event):
        mo = MetricsObserver()
        before = mo.registry.as_dict()
        mo.on_event(event)
        assert mo.registry.as_dict() == before

    @pytest.mark.parametrize("event", UNKNOWN, ids=lambda e: f"{e.stage}:{e.kind}")
    def test_tracing_observer(self, event):
        tr = TracingObserver()
        tr.on_event(event)
        assert tr.events == [] and tr.queue_samples == []
        assert tr.timelines() == []
