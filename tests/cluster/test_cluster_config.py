"""ClusterConfig: validation, composition with NetworkConfig."""

import pytest

from repro import ClusterConfig, NetworkConfig


def net(**kw):
    return NetworkConfig(16, engine="fast", **kw)


class TestValidation:
    def test_minimal(self):
        cfg = ClusterConfig(replicas=2, network=net())
        assert cfg.replicas == 2
        assert cfg.placement_seed == 0
        assert cfg.spill_over is True
        assert cfg.drain_frames == 4
        assert cfg.snapshot_dir is None

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_replicas_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="replicas"):
            ClusterConfig(replicas=bad, network=net())

    @pytest.mark.parametrize("bad", [2.0, "2", True, None])
    def test_replicas_must_be_int(self, bad):
        with pytest.raises(TypeError, match="replicas"):
            ClusterConfig(replicas=bad, network=net())

    def test_network_must_be_config(self):
        with pytest.raises(TypeError, match="network"):
            ClusterConfig(replicas=2, network=16)

    def test_network_snapshot_path_rejected(self):
        """The cluster manages snapshots; K replicas must not share a
        single auto-persist path."""
        with pytest.raises(ValueError, match="snapshot_path"):
            ClusterConfig(
                replicas=2, network=net(snapshot_path="/tmp/one.json")
            )

    @pytest.mark.parametrize("bad", [1.5, "0", True])
    def test_placement_seed_must_be_int(self, bad):
        with pytest.raises(TypeError, match="placement_seed"):
            ClusterConfig(replicas=2, network=net(), placement_seed=bad)

    def test_drain_frames_validated(self):
        with pytest.raises(ValueError, match="drain_frames"):
            ClusterConfig(replicas=2, network=net(), drain_frames=-1)
        with pytest.raises(TypeError, match="drain_frames"):
            ClusterConfig(replicas=2, network=net(), drain_frames=1.0)

    def test_frozen(self):
        cfg = ClusterConfig(replicas=2, network=net())
        with pytest.raises(Exception):
            cfg.replicas = 3


class TestDerive:
    def test_derive_overrides_and_revalidates(self):
        cfg = ClusterConfig(replicas=2, network=net(), placement_seed=5)
        out = cfg.derive(replicas=4)
        assert out.replicas == 4
        assert out.placement_seed == 5
        assert cfg.replicas == 2
        with pytest.raises(ValueError):
            cfg.derive(replicas=0)

    def test_derive_network(self):
        cfg = ClusterConfig(replicas=2, network=net())
        out = cfg.derive(network=cfg.network.derive(plan_cache_size=64))
        assert out.network.plan_cache_size == 64
