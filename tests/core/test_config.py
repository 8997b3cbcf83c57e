"""NetworkConfig: validation, construction, derive(), and the removed
legacy keyword surface."""

from dataclasses import fields

import pytest

from repro.control import ControlPolicy
from repro.core.brsmn import BRSMN
from repro.core.config import IMPLEMENTATIONS, ENGINES, NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.core.feedback import FeedbackBRSMN
from repro.core.routing import build_network, route_multicast
from repro.obs import NullSink, TracingObserver

EXAMPLE = {0: [1, 2], 3: [0]}


class TestValidation:
    def test_defaults(self):
        cfg = NetworkConfig(8)
        assert cfg.implementation == "unrolled"
        assert cfg.engine == "reference"
        assert cfg.plan_cache_size == 256
        assert cfg.observer is None

    def test_registered_vocabularies(self):
        assert "unrolled" in IMPLEMENTATIONS and "feedback" in IMPLEMENTATIONS
        assert "reference" in ENGINES and "fast" in ENGINES

    def test_bad_size_rejected(self):
        with pytest.raises(Exception):
            NetworkConfig(7)

    def test_bad_implementation_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(8, implementation="quantum")

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(8, engine="warp")

    def test_feedback_fast_combination_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(8, implementation="feedback", engine="fast")

    def test_bad_cache_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(8, plan_cache_size=0)

    def test_bad_executor_rejected(self):
        """The removed ``executor`` option is an unknown field."""
        with pytest.raises(TypeError, match="executor"):
            NetworkConfig(8, executor="thread")
        with pytest.raises(ValueError, match="executor"):
            NetworkConfig(8, engine="fast").derive(executor="thread")
        assert "executor" not in {f.name for f in fields(NetworkConfig)}

    def test_compile_ahead_removed(self):
        """The removed compile-ahead knobs are unknown fields."""
        with pytest.raises(TypeError, match="compile_ahead"):
            NetworkConfig(8, engine="fast", compile_ahead=2)
        with pytest.raises(ValueError, match="compile_ahead"):
            NetworkConfig(8, engine="fast").derive(compile_ahead=2)
        assert "compile_ahead" not in {f.name for f in fields(NetworkConfig)}
        for name in ("depth_min", "depth_max", "drop_threshold"):
            with pytest.raises(TypeError, match=name):
                ControlPolicy(**{name: 4})

    def test_workers_removed(self):
        """The removed thread-sharding knobs are unknown fields."""
        with pytest.raises(TypeError, match="workers"):
            NetworkConfig(64, workers=2)
        with pytest.raises(ValueError, match="workers"):
            NetworkConfig(8, engine="fast").derive(workers=2)
        assert "workers" not in {f.name for f in fields(NetworkConfig)}
        with pytest.raises(TypeError, match="worker_min"):
            ControlPolicy(worker_min=1)
        with pytest.raises(ImportError):
            from repro.parallel import ShardedBatchRouter  # noqa: F401

    def test_frozen(self):
        cfg = NetworkConfig(8)
        with pytest.raises(Exception):
            cfg.engine = "fast"

    def test_observer_excluded_from_equality(self):
        assert NetworkConfig(8, observer=NullSink()) == NetworkConfig(8)

    def test_with_observer(self):
        obs = NullSink()
        cfg = NetworkConfig(8).with_observer(obs)
        assert cfg.observer is obs
        assert cfg.n == 8 and cfg.engine == "reference"

    def test_build(self):
        assert isinstance(NetworkConfig(8).build(), BRSMN)
        assert isinstance(
            NetworkConfig(8, implementation="feedback").build(), FeedbackBRSMN
        )


class TestConfigAcceptedEverywhere:
    def test_brsmn(self):
        net = BRSMN(NetworkConfig(8, engine="fast"))
        assert net.n == 8 and net.engine == "fast"

    def test_build_network(self):
        assert isinstance(
            build_network(NetworkConfig(8, implementation="feedback")),
            FeedbackBRSMN,
        )

    def test_route_multicast(self):
        res = route_multicast(NetworkConfig(8, engine="fast"), EXAMPLE)
        assert res.engine == "fast"
        assert res.delivered[1].source == 0

    def test_fabric_records_config(self):
        cfg = NetworkConfig(8, engine="fast", plan_cache_size=7)
        fabric = MulticastFabric(cfg)
        assert fabric.config == cfg
        assert fabric.engine == "fast"


class TestLegacyKwargsRemoved:
    """v1 dropped the pre-config keyword surface (docs/migration_v1.md):
    tuning goes through ``NetworkConfig`` only."""

    def test_bare_int_is_silent(self, recwarn):
        build_network(8)
        BRSMN(8)
        MulticastFabric(8)
        route_multicast(8, EXAMPLE)
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_brsmn_rejects_engine_kwarg(self):
        with pytest.raises(TypeError):
            BRSMN(8, engine="fast")

    def test_build_network_rejects_implementation_kwarg(self):
        with pytest.raises(TypeError):
            build_network(8, implementation="feedback")

    def test_build_network_rejects_positional_implementation(self):
        with pytest.raises(TypeError):
            build_network(8, "feedback")

    def test_route_multicast_rejects_engine_kwarg(self):
        with pytest.raises(TypeError):
            route_multicast(8, EXAMPLE, engine="fast")

    def test_fabric_rejects_engine_kwarg(self):
        with pytest.raises(TypeError):
            MulticastFabric(8, engine="fast")

    def test_observer_kwarg_still_accepted(self, recwarn):
        MulticastFabric(8, observer=TracingObserver())
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]

    def test_config_replaces_legacy_spellings(self):
        modern = route_multicast(NetworkConfig(8, engine="fast"), EXAMPLE)
        reference = route_multicast(8, EXAMPLE)
        assert {o: m.source for o, m in modern.delivered.items()} == {
            o: m.source for o, m in reference.delivered.items()
        }


class TestDerive:
    def test_overrides_fields(self):
        cfg = NetworkConfig(8).derive(engine="fast", plan_cache_size=2)
        assert cfg.engine == "fast" and cfg.plan_cache_size == 2
        assert cfg.n == 8

    def test_keeps_unrelated_fields(self):
        base = NetworkConfig(8, plan_cache_size=7)
        assert base.derive(engine="fast").plan_cache_size == 7

    def test_revalidates(self):
        with pytest.raises(ValueError, match="plan_cache_size"):
            NetworkConfig(8).derive(plan_cache_size=0)

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ValueError, match="implemenation"):
            NetworkConfig(8).derive(implemenation="feedback")

    def test_no_overrides_is_identity(self):
        cfg = NetworkConfig(8, engine="fast")
        assert cfg.derive() == cfg
