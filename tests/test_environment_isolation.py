"""Environments are cheap to re-instantiate and share no mutable state.

The fleet design (:mod:`repro.fleet`) leans on both properties: a
:class:`FleetManager` eagerly builds one full
:class:`CloudBurstEnvironment` per shard, and the determinism contract
says nothing a shard computes may depend on any other shard. These tests
pin that — K same-config environments are independent objects, driving
one cannot perturb another, and re-instantiation is fast enough that
"one environment per shard" stays a reasonable architecture.
"""

from __future__ import annotations

import time

from repro.fleet import FleetConfig, TenantSpec
from repro.fleet.sharding import BrokerShard
from repro.sim.environment import CloudBurstEnvironment, RunPlugin, SystemConfig


def make_env(seed: int = 7) -> CloudBurstEnvironment:
    return CloudBurstEnvironment(SystemConfig(seed=seed))


class TestNoSharedMutableState:
    def test_instances_own_their_containers(self):
        a, b = make_env(), make_env()
        assert a.plugins is not b.plugins
        assert a._states is not b._states
        assert a.sites is not b.sites
        before = list(b.plugins)
        RunPlugin(a)
        assert b.plugins == before

    def test_same_seed_instances_are_equal_but_distinct(self):
        a, b = make_env(seed=11), make_env(seed=11)
        assert a.config == b.config
        assert a.sim is not b.sim
        assert a.rng is not b.rng
        assert a.qrsm is not b.qrsm
        # Advancing one RNG leaves the twin untouched.
        first_draw = a.rng.random()
        assert b.rng.random() == first_draw

    def test_pretraining_one_estimator_leaves_the_twin_unfitted(self):
        shard_config = FleetConfig(n_shards=1, pretrain_jobs=40)
        untrained = make_env()
        shard = BrokerShard(
            0, shard_config, [TenantSpec(tenant_id="only")]
        )
        assert shard.env.qrsm.coef_ is not None
        assert untrained.qrsm.coef_ is None


class TestInterleavedShardsStayIndependent:
    """Driving shard X between any two steps of shard Y changes nothing."""

    def drive(self, shard: BrokerShard, groups: int) -> None:
        for _ in range(groups):
            arrival_time, jobs = shard.synthesize_jobs(3)
            shard.submit("only", jobs, arrival_time=arrival_time)

    def test_interleaved_run_hashes_equal_sequential_run(self):
        config = FleetConfig(n_shards=1, seed=2024, pretrain_jobs=40)
        tenants = [TenantSpec(tenant_id="only")]

        solo = BrokerShard(0, config, tenants)
        self.drive(solo, 6)
        solo_hash = solo.finish().trace_sha256

        subject = BrokerShard(0, config, tenants)
        noisy_neighbor = BrokerShard(
            0, FleetConfig(n_shards=1, seed=999, pretrain_jobs=40), tenants
        )
        for _ in range(6):
            self.drive(subject, 1)
            self.drive(noisy_neighbor, 2)
        noisy_neighbor.finish()
        assert subject.finish().trace_sha256 == solo_hash


class TestCheapReinstantiation:
    def test_twenty_environments_construct_quickly(self):
        """Construction must stay O(milliseconds); the bound is loose
        enough for a noisy shared container but catches an accidental
        heavyweight (e.g. training or file IO) landing in __init__."""
        t0 = time.perf_counter()
        envs = [make_env(seed=i) for i in range(20)]
        wall = time.perf_counter() - t0
        assert len({id(e.sim) for e in envs}) == 20
        assert wall < 5.0, f"20 environments took {wall:.2f}s to construct"
