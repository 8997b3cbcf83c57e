"""Parallel config through the session facades."""

from __future__ import annotations

import pytest

from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.workloads.hotspot import hotspot_session


def test_config_validates_parallel_fields():
    cfg = NetworkConfig(16, engine="fast", workers=4)
    assert cfg.workers == 4
    with pytest.raises(ValueError):
        NetworkConfig(16, engine="fast", workers=0)
    with pytest.raises(ValueError):
        NetworkConfig(16, workers=2)  # reference engine


def test_close_is_idempotent_and_restartable():
    fabric = MulticastFabric(NetworkConfig(16, engine="fast", workers=2))
    frames = hotspot_session(16, frames=4, seed=1)
    fabric.run(frames)
    fabric.close()
    fabric.close()
    fabric.run(frames)  # pool restarts transparently
    fabric.close()
    assert fabric.stats.frames == 8
