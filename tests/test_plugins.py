"""The environment's one plugin list: attach, dispatch order, finalize."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import EnvironmentInvariants, install_invariants
from repro.econ import EconConfig, EconRuntime, SpotMarketConfig, attach_econ
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one
from repro.obs import attach_obs
from repro.policy import PolicyConfig, ScalingPolicy, attach_policy
from repro.sim.environment import CloudBurstEnvironment, RunPlugin, SystemConfig
from repro.workload.distributions import Bucket

FAST = ExperimentSpec(
    bucket=Bucket.UNIFORM, n_batches=2, mean_jobs_per_batch=6,
    system=SystemConfig(ic_machines=4, ec_machines=2, seed=77),
)

#: Configs whose attach schedules events, so a refused attach that got
#: as far as scheduling would show in ``env.sim.pending``.
SPOT = EconConfig(spot=SpotMarketConfig(bid_usd_per_hour=0.2))
HOLD = PolicyConfig(policies=(ScalingPolicy(name="hold", action="target", amount=3),))


class TestAttach:
    @pytest.mark.parametrize("attach, again", [
        pytest.param(lambda env: attach_econ(env, SPOT),
                     lambda env: attach_econ(env, SPOT), id="econ"),
        pytest.param(attach_obs, attach_obs, id="obs"),
        pytest.param(lambda env: attach_policy(env, HOLD),
                     lambda env: attach_policy(env, HOLD), id="policy"),
        # install_invariants returns the checker REPRO_INVARIANTS may
        # already have attached; a second constructor call is refused.
        pytest.param(install_invariants, EnvironmentInvariants, id="invariants"),
    ])
    def test_double_attach_refused(self, fast_config, attach, again):
        env = CloudBurstEnvironment(fast_config)
        attach(env)
        pending, plugins = env.sim.pending, list(env.plugins)
        with pytest.raises(RuntimeError, match="already attached"):
            again(env)
        assert env.sim.pending == pending
        assert env.plugins == plugins

    def test_install_invariants_reuses_the_attached_checker(self, fast_config):
        env = CloudBurstEnvironment(fast_config)
        checker = install_invariants(env)
        assert install_invariants(env) is checker
        assert env.plugin(EnvironmentInvariants) is checker

    def test_plugin_lookup(self, fast_config):
        env = CloudBurstEnvironment(fast_config)
        assert env.plugin(EconRuntime) is None
        econ = attach_econ(env)
        assert env.plugin(EconRuntime) is econ
        assert env.plugin(RunPlugin) is env.plugins[0]


def recorder(name: str, log: list, block):
    """A fresh plugin class (one per call, so two may share an env)."""

    class Recorder(RunPlugin):
        key = name

        def on_plan(self, plan):
            log.append((name, "plan"))

        def on_admit(self, record):
            log.append((name, "admit"))

        def on_complete(self, record):
            log.append((name, "complete"))

        def finalize(self, trace):
            log.append((name, "finalize"))
            return block

    return Recorder


class TestLifecycle:
    def test_hooks_fire_in_attach_order_and_blocks_land_under_key(self):
        log: list = []
        first = recorder("first", log, {"x": 1})
        second = recorder("second", log, None)

        def hook(env):
            first(env)
            second(env)

        trace = run_one("Op", FAST, env_hook=hook)
        # Every hook call reaches both plugins, first then second.
        assert [name for name, _ in log[0::2]] == ["first"] * (len(log) // 2)
        assert [name for name, _ in log[1::2]] == ["second"] * (len(log) // 2)
        assert [kind for _, kind in log[0::2]] == [kind for _, kind in log[1::2]]
        kinds = [kind for _, kind in log[0::2]]
        assert kinds.count("plan") == FAST.n_batches
        assert kinds.count("admit") == kinds.count("complete") == len(trace.records)
        assert kinds[-1] == "finalize" and kinds.count("finalize") == 1
        assert trace.metadata["first"] == {"x": 1}
        assert "second" not in trace.metadata
