"""The four serving workloads: their inputs, program calls and checks.

Each workload is one closed loop with one client: the harness in
``child.py`` asks for the next call, times it, and hands the result
back for checking.  Inputs are generated here from the seed, outside
the timed call; the program only ever receives the generated
assignments and payloads.  Every check compares a result against the
input it was generated from, never against the program's own
verification.

A workload object has this life cycle::

    wl = WORKLOADS[name](seed)      # harness inputs (not timed)
    wl.build()                      # construction + warm-up (setup_s)
    fn, args = wl.next_call()       # next input (not timed)
    result = fn(*args)              # the timed public call
    served = wl.record(result, sample)
    facts = wl.finish()             # final accounting checks

The loop stops only after a whole number of ``wl.window`` calls, and
the metrics are computed per window of that many calls.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro import (
    BRSMN,
    AdmissionPolicy,
    ClusterConfig,
    FabricCluster,
    FabricSnapshot,
    FaultKind,
    FaultPlan,
    MetricsObserver,
    MulticastFabric,
    NetworkConfig,
    ShedFrame,
)
from repro.workloads.hotspot import hotspot_multicast
from repro.workloads.random_assignments import random_multicast

__all__ = ["WORKLOADS", "assignment_pool"]


def stratified_loads(count: int, rng) -> np.ndarray:
    """``count`` loads from U[0.5, 1], one per equal-width stratum.

    Each load is still uniform on [0.5, 1]; stratifying only removes
    the chance that a seed draws a pool that is all light or all
    heavy, which would move the latency percentiles from seed to seed.
    """
    return 0.5 + 0.5 * (np.arange(count) + rng.uniform(size=count)) / count


def assignment_pool(n: int, size: int, rng) -> list:
    """Half ``hotspot_multicast``, half ``random_multicast`` assignments.

    Both halves use loads from :func:`stratified_loads`.  The hotspot
    half leaves ``1 - load`` of its cold outputs unused, so both
    families spread over the same range of used outputs, and a frame's
    cost depends on its load more than on its family.
    """
    half = size // 2
    hot = [
        hotspot_multicast(n, hot_fraction=1.0 - float(load), seed=rng)
        for load in rng.permutation(stratified_loads(half, rng))
    ]
    rand = [
        random_multicast(n, load=float(load), seed=rng)
        for load in rng.permutation(stratified_loads(size - half, rng))
    ]
    return hot + rand


def delivery_errors(outputs, inverse, *, partial=False) -> list:
    """Mismatches between delivered sources and ``inverse_map()``.

    With ``partial`` (a healed result), an output may be empty — a
    lost terminal — but never deliver from the wrong source.
    """
    got = {o: m.source for o, m in enumerate(outputs) if m is not None}
    if partial:
        wrong = {o: s for o, s in got.items() if inverse.get(o) != s}
        return [f"wrong deliveries {sorted(wrong.items())[:4]}"] if wrong else []
    if got != inverse:
        return [f"delivery map differs on {len(set(got.items()) ^ set(inverse.items()))} entries"]
    return []


def _source_vector(n: int, inverse: dict) -> np.ndarray:
    src = np.full(n, -1, dtype=np.int64)
    for o, s in inverse.items():
        src[o] = s
    return src


class WarmCluster:
    """n=256, two replicas, 32 recurring assignments: the warm path.

    Every timed frame hits a plan cache, so fingerprinting, building
    the result's ``Message`` objects and ``verify_result`` are nearly
    all the work.
    """

    name = "warm_cluster"
    frames_per_call = 1
    window = 500

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.pool = assignment_pool(256, 32, self.rng)
        self.inverse = [a.inverse_map() for a in self.pool]
        self.failures: list = []

    def build(self) -> None:
        self.cluster = FabricCluster(
            ClusterConfig(
                replicas=2,
                network=NetworkConfig(256, engine="fast"),
                placement_seed=self.seed,
            )
        )
        for assignment in self.pool:
            self.cluster.submit(assignment)
        self.submits = len(self.pool)
        self.warm_misses = self.cluster.stats.plan_cache_misses

    def next_call(self):
        self.current = int(self.rng.integers(len(self.pool)))
        self.submits += 1
        return self.cluster.submit, (self.pool[self.current],)

    def record(self, result, sample: bool) -> int:
        if isinstance(result, ShedFrame):
            return 0
        if sample:
            self.failures += delivery_errors(
                result.outputs, self.inverse[self.current]
            )
        return 1

    def finish(self) -> dict:
        stats = self.cluster.stats
        if stats.frames + stats.shed_frames != self.submits:
            self.failures.append(
                f"served {stats.frames} + shed {stats.shed_frames} != "
                f"attempted {self.submits}"
            )
        if stats.plan_cache_misses != self.warm_misses:
            self.failures.append(
                f"{stats.plan_cache_misses - self.warm_misses} plan "
                "compiles after warm-up"
            )
        self.cluster.close()
        return {"shed": stats.shed_frames}


class ColdChurn:
    """n=1024, one fabric with a 64-plan cache, every frame new.

    Every frame misses, compiles, inserts and evicts: the write side
    of the plan cache and the compile path.
    """

    name = "cold_churn"
    frames_per_call = 1
    window = 100
    N = 1024

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.failures: list = []

    def _fresh(self):
        load = float(self.rng.uniform(0.5, 1.0))
        return random_multicast(self.N, load=load, seed=self.rng)

    def build(self) -> None:
        warm = [self._fresh() for _ in range(2)]
        self.fabric = MulticastFabric(
            NetworkConfig(self.N, engine="fast", plan_cache_size=64)
        )
        for assignment in warm:
            self.fabric.submit(assignment)
        self.submits = len(warm)

    def next_call(self):
        self.current = self._fresh()
        self.submits += 1
        return self.fabric.submit, (self.current,)

    def record(self, result, sample: bool) -> int:
        if sample:
            self.failures += delivery_errors(
                result.outputs, self.current.inverse_map()
            )
        return 1

    def finish(self) -> dict:
        stats = self.fabric.stats
        if not stats.plan_cache_misses == stats.frames == self.submits:
            self.failures.append(
                f"plan-cache misses {stats.plan_cache_misses}, frames "
                f"{stats.frames}, attempted {self.submits}: every frame "
                "must miss"
            )
        self.fabric.close()
        return {"shed": 0}


class BatchStream:
    """n=1024 ``route_batch`` on 64-frame int64 payload matrices.

    Per-frame overhead is amortised over 64 frames, so the batch
    gather dominates.
    """

    name = "batch_stream"
    frames_per_call = 64
    window = 1000
    N = 1024

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.assignments = [
            random_multicast(self.N, load=float(load), seed=rng)
            for load in rng.permutation(stratified_loads(8, rng))
        ]
        self.sources = [
            _source_vector(self.N, a.inverse_map()) for a in self.assignments
        ]
        # Nonzero payloads, so an idle output (delivers 0) can never
        # pass for a delivered one.
        self.matrices = [
            rng.integers(1, 2**62, size=(64, self.N), dtype=np.int64)
            for _ in range(4)
        ]
        self.k = 0
        self.failures: list = []

    def build(self) -> None:
        self.network = BRSMN(NetworkConfig(self.N, engine="fast"))
        for assignment in self.assignments:
            self.network.route_batch(assignment, self.matrices[0])

    def next_call(self):
        self.a = self.k % len(self.assignments)
        self.m = self.k % len(self.matrices)
        self.k += 1
        return self.network.route_batch, (
            self.assignments[self.a],
            self.matrices[self.m],
        )

    def record(self, result, sample: bool) -> int:
        if sample:
            src = self.sources[self.a]
            expected = np.where(
                src >= 0, self.matrices[self.m][:, np.maximum(src, 0)], 0
            )
            if not np.array_equal(result.delivery_src, src):
                self.failures.append("delivery_src differs from inverse_map")
            if not np.array_equal(result.payloads, expected):
                self.failures.append(
                    "delivered columns differ from their source columns"
                )
        return result.frames

    def finish(self) -> dict:
        self.network.close()
        return {"shed": 0}


class FaultedOverload:
    """n=64, three replicas under faults, overload, a kill and restarts.

    The fault map is the environment and stays fixed; the traffic is
    seeded.  Work is counted in frames, never wall time (no
    ``deadline_ms``), so each episode's outcome is a pure function of
    the seed.  An episode is one fixed frame sequence on a fresh
    cluster, and a window is one episode, so every window holds the
    same work and every episode must end in the same ``summary()``.
    """

    name = "faulted_overload"
    frames_per_call = 1
    N = 64
    EPISODE = window = 1000
    FAULTS = FaultPlan.random(
        64, faults=4, seed=1, kinds=[FaultKind.STUCK_AT, FaultKind.DEAD_SWITCH]
    )

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pool = assignment_pool(self.N, 16, rng)
        self.inverse = [a.inverse_map() for a in self.pool]
        self.sequence = [
            int(i) for i in rng.integers(len(self.pool), size=self.EPISODE)
        ]
        self.warm = FabricSnapshot(
            n=self.N,
            assignments=[
                {str(i): sorted(a[i]) for i in a.active_inputs}
                for a in self.pool
            ],
        )
        self.failures: list = []
        self.digests: set = set()
        self.totals = dict.fromkeys(
            (
                "episodes",
                "shed",
                "lost_frames",
                "lost_terminals",
                "recovered_terminals",
                "spillovers",
                "requeues",
            ),
            0,
        )

    def build(self) -> None:
        self._start_episode()

    def _start_episode(self) -> None:
        self.cluster = FabricCluster(
            ClusterConfig(
                replicas=3,
                network=NetworkConfig(
                    self.N,
                    engine="fast",
                    fault_plan=self.FAULTS,
                    admission=AdmissionPolicy(rate=0.5, burst=4),
                    observer=MetricsObserver(),
                ),
                placement_seed=self.seed,
            )
        )
        for replica in self.cluster.replicas:
            self.warm.restore(replica.fabric)
        self.cluster.kill_replica(1, at_frame=self.EPISODE // 4)
        self.cluster.rolling_restart().plan_campaign(self.EPISODE)
        self.pos = 0

    def _end_episode(self) -> None:
        summary = self.cluster.summary()
        self.cluster.close()
        if summary["frames"] + summary["shed"] != self.EPISODE:
            self.failures.append(
                f"served {summary['frames']} + shed {summary['shed']} != "
                f"attempted {self.EPISODE}"
            )
        self.digests.add(
            hashlib.sha256(
                json.dumps(summary, sort_keys=True).encode()
            ).hexdigest()
        )
        totals = self.totals
        totals["episodes"] += 1
        for key in ("shed", "lost_frames", "lost_terminals",
                    "recovered_terminals", "spillovers", "requeues"):
            totals[key] += summary[key]

    def next_call(self):
        if self.pos == self.EPISODE:
            self._end_episode()
            self._start_episode()
        self.current = self.sequence[self.pos]
        self.pos += 1
        return self.cluster.submit, (self.pool[self.current],)

    def record(self, result, sample: bool) -> int:
        if isinstance(result, ShedFrame):
            return 0
        if sample:
            inverse = self.inverse[self.current]
            healed = hasattr(result, "outcomes")
            self.failures += delivery_errors(
                result.outputs, inverse, partial=healed
            )
            if healed and sorted(result.outcomes) != sorted(inverse):
                self.failures.append("healed outcomes miss some terminals")
        return 1

    def finish(self) -> dict:
        self._end_episode()
        if len(self.digests) != 1:
            self.failures.append(
                f"{len(self.digests)} distinct summaries over "
                f"{self.totals['episodes']} identical episodes"
            )
        return dict(self.totals, digest=sorted(self.digests)[0])


WORKLOADS = {
    cls.name: cls
    for cls in (WarmCluster, ColdChurn, BatchStream, FaultedOverload)
}
