"""The drain contract: a shard ships its digest and its books, not its trace.

At drain every shard hashes its own trace, and its :class:`ShardResult`
carries that ``trace_sha256`` and a record count in place of the trace.
The front then folds digests: it never unpickles, re-hashes or copies a
job record. Pinned here for ``drain`` on both executors and for the
books a SIGTERM'd worker pushes unasked.
"""

from __future__ import annotations

import io
import os
import pickle
import signal

import pytest

from repro.fleet import (
    EXECUTOR_NAMES,
    FleetConfig,
    FleetManager,
    TenantRegistry,
    TenantSpec,
)
from repro.fleet.aggregate import aggregate_shards
from repro.fleet.executor import MultiprocessExecutor
from repro.sim.tracing import JobRecord, RunTrace, hash_trace


class _NoTraces(pickle.Pickler):
    """Pickles like the pipe does, but refuses any job record or trace."""

    def reducer_override(self, obj: object) -> object:
        if isinstance(obj, (JobRecord, RunTrace)):
            raise AssertionError(f"a {type(obj).__name__} is reachable")
        return NotImplemented


def assert_no_traces(payload: object) -> None:
    _NoTraces(io.BytesIO()).dump(payload)


def small_manager(executor: str) -> FleetManager:
    registry = TenantRegistry(
        [TenantSpec(tenant_id=f"acme-{i:03d}") for i in range(1, 5)]
    )
    manager = FleetManager(
        FleetConfig(n_shards=2, seed=2024, pretrain_jobs=20, executor=executor),
        registry,
    )
    # Real work on both shards, so each trace holds records to leak.
    homes: dict[int, str] = {}
    for tenant in registry:
        homes.setdefault(manager.shard_index_for(tenant.tenant_id), tenant.tenant_id)
    for tenant_id in homes.values():
        manager.submit_count(tenant_id, 3)
    return manager


def test_the_check_sees_a_nested_record():
    with pytest.raises(AssertionError, match="JobRecord"):
        assert_no_traces({"books": [JobRecord(1, 1, 0.0, 1.0, 1.0)]})
    with pytest.raises(AssertionError, match="RunTrace"):
        assert_no_traces((0, RunTrace()))


@pytest.mark.parametrize("executor", EXECUTOR_NAMES)
def test_no_record_crosses_the_drain(executor):
    manager = small_manager(executor)
    try:
        results, lost = manager.executor.drain()
    finally:
        manager.executor.close()
    assert lost == {}
    assert [r.index for r in results] == [0, 1]
    for result in results:
        assert_no_traces(result)
        assert result.n_records > 0
        assert len(result.trace_sha256) == 64


def test_no_record_crosses_a_sigterm_push():
    manager = small_manager("multiprocess")
    executor = manager.executor
    assert isinstance(executor, MultiprocessExecutor)
    handle = executor._handles[0]
    try:
        os.kill(handle.process.pid, signal.SIGTERM)
        handle.process.join(timeout=30)
        assert not handle.process.is_alive()
        results, lost = executor.drain()
    finally:
        executor.close()
    assert lost == {}
    # The pushed books came under the unsolicited tag, not a drain reply.
    assert handle.term_result is not None
    assert results[0] is handle.term_result
    assert_no_traces(handle.term_result)
    assert handle.term_result.n_records > 0


def test_shard_digest_is_the_hash_of_its_trace():
    manager = small_manager("inprocess")
    results, _ = manager.executor.drain()
    for shard, result in zip(manager.shards, results):
        trace = shard.broker._session.trace
        assert result.trace_sha256 == hash_trace(trace)
        assert result.n_records == len(trace.records)
    report = aggregate_shards(manager.config, manager.registry, results)
    assert report.shard_hashes == [r.trace_sha256 for r in results]
    assert report.n_records == sum(r.n_records for r in results)


def test_report_counts_surviving_shards_only():
    manager = small_manager("inprocess")
    results, _ = manager.executor.drain()
    cause = "worker process died during 'submit' command"
    report = aggregate_shards(
        manager.config, manager.registry, results[1:], lost={0: cause}
    )
    assert report.shard_hashes == [f"LOST({cause})", results[1].trace_sha256]
    assert report.n_records == results[1].n_records
    assert report.lost_shards == {0: cause}
