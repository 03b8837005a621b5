"""Telemetry is a pure observer: digests must not move when it attaches.

These are the acceptance tests for the observability PR's core contract:
``hash_trace`` over a run with :func:`attach_obs` equals the bare run,
and a fleet run with ``telemetry=True`` produces the same fleet sha256
as ``telemetry=False``. The obs output itself (metric snapshot, spans)
rides in ``trace.metadata`` — which the hash deliberately excludes — and
must be deterministic across repeated runs of the same seed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.determinism import (
    Cell,
    CellRun,
    Same,
    hash_trace,
    run_checks,
)
from repro.experiments.runner import make_scheduler
from repro.obs import ObsConfig, ObsRuntime, attach_obs
from repro.sim.environment import CloudBurstEnvironment
from repro.sim.tracing import RunTrace
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def run_trace(config, *, instrument: bool):
    env = CloudBurstEnvironment(config)
    gen = WorkloadGenerator(bucket=Bucket.UNIFORM, seed=11)
    env.pretrain_qrsm(*gen.sample_training_set(150))
    obs = attach_obs(env, ObsConfig()) if instrument else None
    workload = gen.generate(
        WorkloadConfig(bucket=Bucket.UNIFORM, n_batches=4, mean_jobs_per_batch=6, seed=11)
    )
    trace = env.run(workload, make_scheduler("Op", env))
    return trace, obs


class TestTraceParity:
    def test_trace_hash_unchanged_by_instrumentation(self, fast_config):
        bare, _ = run_trace(fast_config, instrument=False)
        instrumented, obs = run_trace(fast_config, instrument=True)
        assert hash_trace(instrumented) == hash_trace(bare)
        assert isinstance(obs, ObsRuntime)

    def test_obs_output_lands_in_metadata_only(self, fast_config):
        bare, _ = run_trace(fast_config, instrument=False)
        instrumented, _ = run_trace(fast_config, instrument=True)
        assert "obs" not in bare.metadata
        meta = instrumented.metadata["obs"]
        assert meta["registry_sha256"]
        assert meta["registry"]["families"]
        assert meta["spans"]["summary"]["kept"] > 0

    def test_obs_metadata_deterministic_across_runs(self, fast_config):
        first, _ = run_trace(fast_config, instrument=True)
        second, _ = run_trace(fast_config, instrument=True)
        assert first.metadata["obs"] == second.metadata["obs"]


class TestCheckObsParity:
    def test_check_reports_invisible(self):
        fleet = Cell(executor="inprocess", shards=2, jobs=80)
        trace_result, fleet_result = run_checks(
            [
                Same(Cell(), Cell(obs=True), ("trace",)),
                Same(fleet, replace(fleet, obs=True), ("fleet",)),
            ]
        )
        assert trace_result.ok
        assert fleet_result.ok
        assert trace_result.counts["families"] >= 10
        assert trace_result.counts["spans"] > 0
        assert "OK" in trace_result.render()
        assert "OK" in fleet_result.render()

    def test_render_flags_divergence(self):
        trace = RunTrace()
        runs = {
            Cell(): CellRun(trace, {"trace": "aaaa"}, {"records": 1}),
            Cell(obs=True): CellRun(trace, {"trace": "bbbb"}, {"records": 1}),
        }
        broken = Same(Cell(), Cell(obs=True), ("trace",)).verify(
            lambda cell, fresh=False: runs[cell]
        )
        assert not broken.ok
        assert "FAIL" in broken.render()
        assert "trace aaaa vs bbbb" in broken.render()
