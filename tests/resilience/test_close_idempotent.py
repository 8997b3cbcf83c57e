"""Regression: double close() is safe at every layer.

RollingRestart drains close an already-closed fabric (the replica was
killed, then cycled); that second close must not re-run snapshot
auto-persistence — overwriting the file with post-drain state — or
raise.  ``BRSMN.close`` documents idempotency; this pins it.
"""

import json
import os
import random

from repro import BRSMN, MulticastFabric, NetworkConfig

from conftest import make_random_assignment


def frames(n=16, count=8, seed=0):
    rng = random.Random(seed)
    return [make_random_assignment(n, rng) for _ in range(count)]


class TestFabricDoubleClose:
    def test_double_close_does_not_repersist_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        fabric = MulticastFabric(
            NetworkConfig(16, engine="fast", snapshot_path=str(path))
        )
        for a in frames():
            fabric.submit(a)
        fabric.close()
        first = path.read_bytes()
        stamp = os.stat(path).st_mtime_ns
        fabric.close()  # must not rewrite (or raise)
        assert path.read_bytes() == first
        assert os.stat(path).st_mtime_ns == stamp

    def test_submit_after_close_rearms_persistence(self, tmp_path):
        """A closed fabric transparently restarts on submit; the next
        close must persist the newly-learned state."""
        path = tmp_path / "snap.json"
        fabric = MulticastFabric(
            NetworkConfig(16, engine="fast", snapshot_path=str(path))
        )
        for a in frames(seed=1, count=3):
            fabric.submit(a)
        fabric.close()
        before = len(json.loads(path.read_text())["assignments"])
        for a in frames(seed=2, count=3):
            fabric.submit(a)
        fabric.close()
        after = len(json.loads(path.read_text())["assignments"])
        assert after > before

    def test_double_close_without_snapshot(self):
        fabric = MulticastFabric(NetworkConfig(16, engine="fast"))
        for a in frames():
            fabric.submit(a)
        fabric.close()
        fabric.close()

    def test_double_close_with_standby_plane(self):
        from repro.faults import FaultPlan

        fabric = MulticastFabric(
            NetworkConfig(
                16,
                engine="fast",
                fault_plan=FaultPlan.random(16, faults=1, seed=1),
            )
        )
        for a in frames():
            fabric.submit(a)
        fabric.close()
        fabric.close()


class TestBRSMNDoubleClose:
    def test_plain(self):
        net = BRSMN(NetworkConfig(16, engine="fast"))
        net.close()
        net.close()
