"""Fleet executor layer: parity, crash handling, drains, deprecations.

The contracts under test, from ISSUE 8:

* **executor parity** — the in-process and multiprocess executors fold
  the same seeded workload into one byte-identical ``fleet_sha256``;
* **worker loss** — killing a worker mid-run surfaces a deterministic
  "shard lost" error, surviving shards still fold in shard-index order,
  and two runs losing the same shard the same way agree on the digest;
  a death mid-command shows at once, a wedged worker is lost, then
  killed, and workers never outlive their parent;
* **graceful drain** — a SIGTERM'd worker finishes its shard and its
  books fold in exactly as if the parent had drained it;
* **strict mode** — ``repro fleet loadgen --strict`` exits nonzero when
  any shard was lost;
* **expired aliases stay gone** — ``Tenant`` and ``pretrain_samples``
  are rejected, an old-shape error body parses as ``code="unknown"``,
  and positional config construction fails loudly.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import pytest

import repro
from repro.fleet import (
    EXECUTOR_NAMES,
    FleetAPIError,
    FleetAPIServer,
    FleetClient,
    FleetConfig,
    FleetManager,
    QuotaExceededError,
    ShardLostError,
    TenantRegistry,
    TenantSpec,
    run_fleet_load,
    serve_in_thread,
)
from repro.fleet.client import parse_error
from repro.fleet.executor import MultiprocessExecutor, _picklable
from repro.service.loadgen import LoadGenConfig


def small_registry() -> TenantRegistry:
    # Four tenants that land on both shards of a 2-shard fleet.
    return TenantRegistry(
        [TenantSpec(tenant_id=f"acme-{i:03d}") for i in range(1, 5)]
    )


def small_config(**overrides) -> FleetConfig:
    defaults = dict(n_shards=2, seed=2024, pretrain_jobs=20)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def tenants_by_shard(manager: FleetManager) -> dict[int, str]:
    """One representative tenant per shard index."""
    out: dict[int, str] = {}
    for tenant in manager.registry:
        out.setdefault(manager.shard_index_for(tenant.tenant_id), tenant.tenant_id)
    return out


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
class TestExecutorParity:
    def test_both_executors_produce_one_digest(self):
        from repro.analysis.determinism import Cell, Same, run_checks

        fleet = Cell(executor="inprocess", shards=2, jobs=80)
        [result] = run_checks(
            [Same(fleet, replace(fleet, executor="multiprocess"), ("fleet",))],
            seed=7,
        )
        assert result.ok, result.render()
        assert "OK" in result.render()

    def test_manager_ops_agree_across_executors(self):
        # The command protocol's submit/quote/stats/accounts ops must
        # return the same answers the in-process dispatch does.
        outcomes = {}
        for executor in ("inprocess", "multiprocess"):
            manager = FleetManager(
                small_config(executor=executor), small_registry()
            )
            tenant_id = tenants_by_shard(manager)[0]
            arrival, submitted = manager.submit_count(tenant_id, 3)
            quote = manager.quote(tenant_id)
            account = manager.account(tenant_id)
            report = manager.finish()
            outcomes[executor] = (
                arrival,
                [(o.job.job_id, o.result.decision) for o in submitted],
                (quote.promise_s, quote.est_completion),
                account.admitted_jobs,
                report.sha256,
            )
        assert outcomes["inprocess"] == outcomes["multiprocess"]

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_shard_timings_ship_totals_only(self, executor):
        # Per-job quote latency is run_load's figure alone; a shard's
        # timing pickled home by a worker carries counters, no list.
        result = run_fleet_load(
            small_config(executor=executor),
            LoadGenConfig(n_jobs=60, rate_per_s=50.0, process="bursty", seed=3),
            registry=small_registry(),
        )
        assert sum(t.n_submitted for t in result.shard_timings) == 60
        for timing in result.shard_timings:
            assert not any(isinstance(v, list) for v in vars(timing).values())

    def test_unknown_executor_name_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown executor"):
            FleetManager(small_config(executor="threads"), small_registry())

    def test_direct_shard_access_requires_inprocess(self):
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        try:
            with pytest.raises(RuntimeError, match="in-process"):
                manager.shards
        finally:
            manager.finish()


# ----------------------------------------------------------------------
# Worker loss
# ----------------------------------------------------------------------
class TestWorkerLoss:
    def kill_worker(self, manager: FleetManager, index: int) -> None:
        executor = manager.executor
        assert isinstance(executor, MultiprocessExecutor)
        process = executor._handles[index].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)

    def one_lossy_run(self) -> "object":
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        victims = tenants_by_shard(manager)
        # Both shards do real work first, then shard 0's worker dies.
        manager.submit_count(victims[0], 2)
        manager.submit_count(victims[1], 2)
        self.kill_worker(manager, 0)
        with pytest.raises(ShardLostError, match="shard 0 lost"):
            manager.submit_count(victims[0], 1)
        return manager.finish()

    def test_killed_worker_surfaces_deterministic_loss(self):
        report = self.one_lossy_run()
        assert list(report.lost_shards) == [0]
        cause = report.lost_shards[0]
        # Stable cause string: no pids, ports or timestamps.
        assert cause == "worker process died during 'submit' command"
        # The lost shard holds its index position in the fold; the
        # surviving shard's books still made it in.
        assert report.shard_hashes[0] == f"LOST({cause})"
        assert not report.shard_hashes[1].startswith("LOST")
        assert report.trace.metadata["fleet"]["lost_shards"] == {"0": cause}
        assert "LOST shard 0" in report.render()

    def test_same_loss_reproduces_the_same_digest(self):
        report_a = self.one_lossy_run()
        report_b = self.one_lossy_run()
        assert report_a.sha256 == report_b.sha256
        assert report_a.shard_hashes == report_b.shard_hashes

    def test_lost_shard_digest_differs_from_intact_run(self):
        lossy = self.one_lossy_run()
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        victims = tenants_by_shard(manager)
        manager.submit_count(victims[0], 2)
        manager.submit_count(victims[1], 2)
        intact = manager.finish()
        assert not intact.lost_shards
        assert lossy.sha256 != intact.sha256

    def test_every_shard_lost_is_an_error(self):
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        victims = tenants_by_shard(manager)
        self.kill_worker(manager, 0)
        self.kill_worker(manager, 1)
        for index in (0, 1):
            with pytest.raises(ShardLostError):
                manager.submit_count(victims[index], 1)
        with pytest.raises(ValueError, match="every shard was lost"):
            manager.finish()

    def test_health_reports_the_dead_worker(self):
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        try:
            assert all(h.alive for h in manager.health())
            self.kill_worker(manager, 1)
            health = {h.index: h.alive for h in manager.health()}
            assert health[0] is True
            assert health[1] is False
        finally:
            manager.finish()

    def test_wedged_worker_is_lost_then_killed(self):
        manager = FleetManager(
            small_config(executor="multiprocess", command_timeout_s=0.5),
            small_registry(),
        )
        process = manager.executor._handles[0].process
        os.kill(process.pid, signal.SIGSTOP)
        try:
            with pytest.raises(ShardLostError, match="command timed out"):
                manager.submit_count(tenants_by_shard(manager)[0], 1)
            retries = manager.executor.telemetry.get("fleet_executor_retries_total")
            assert retries.counter_labels("submit").value == 1
            start = time.monotonic()
            report = manager.finish()
            assert time.monotonic() - start < 5.0
        finally:
            if process.is_alive():
                process.kill()
        assert report.lost_shards == {0: "command timed out during 'submit' command"}
        # A stopped worker never runs its SIGTERM drain: close kills it.
        assert not process.is_alive()

    def one_run_killed_mid_command(self) -> "object":
        manager = FleetManager(
            small_config(executor="multiprocess", command_timeout_s=10.0),
            small_registry(),
        )
        process = manager.executor._handles[0].process
        # Stopped, the worker cannot read the submit; it dies holding it.
        os.kill(process.pid, signal.SIGSTOP)
        killer = threading.Timer(0.3, os.kill, (process.pid, signal.SIGKILL))
        killer.start()
        start = time.monotonic()
        with pytest.raises(
            ShardLostError, match="worker process died during 'submit' command"
        ):
            manager.submit_count(tenants_by_shard(manager)[0], 1)
        assert time.monotonic() - start < 3.0
        killer.join(timeout=5)
        # Its pipe closes a moment before the killed process is reapable.
        process.join(timeout=5)
        assert not process.is_alive()
        return manager.finish()

    def test_death_mid_command_surfaces_at_once(self):
        report_a = self.one_run_killed_mid_command()
        report_b = self.one_run_killed_mid_command()
        assert report_a.lost_shards == {
            0: "worker process died during 'submit' command"
        }
        assert report_a.sha256 == report_b.sha256

    def test_workers_exit_when_their_parent_is_killed(self):
        code = (
            "import time\n"
            "from repro.fleet import FleetConfig, FleetManager, TenantRegistry, TenantSpec\n"
            "registry = TenantRegistry([TenantSpec(tenant_id=f'acme-{i:03d}') for i in range(1, 5)])\n"
            "manager = FleetManager(FleetConfig(n_shards=2, pretrain_jobs=20,"
            " executor='multiprocess'), registry)\n"
            "print(*[h.pid for h in manager.health()], flush=True)\n"
            "time.sleep(600)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        parent = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            # The pid line comes after the fleet boots; never wait forever.
            ready, _, _ = select.select([parent.stdout], [], [], 120.0)
            if not ready:
                pytest.fail("the fleet subprocess printed no worker pids in 120 s")
            pids = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        assert len(pids) == 2

        def running(pid: int) -> bool:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"  # a zombie has exited; only its reaper is missing

        deadline = time.monotonic() + 5.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        left = [pid for pid in pids if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []

    def test_abandoned_reply_is_skipped(self):
        # A signal that interrupts the wait for a reply (SIGTERM to
        # ``fleet serve``) leaves that reply unread on the pipe.
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        executor = manager.executor
        try:
            # Shard 1: the stale reply sits ahead of the next call's.
            executor._send(executor._handles[1], "stats", ())
            assert executor.call(1, "stats").index == 1
            # Shard 0: the stale reply is waiting when the drain begins.
            executor._send(executor._handles[0], "stats", ())
            assert executor._handles[0].conn.poll(30.0)
        finally:
            report = manager.finish()
        assert report.lost_shards == {}

    def test_worker_error_in_run_load_leaves_no_reply_behind(self):
        manager = FleetManager(
            small_config(executor="multiprocess"), small_registry()
        )
        stream = LoadGenConfig(n_jobs=10, rate_per_s=50.0, seed=3)
        try:
            # Shard 0 fails on a malformed stream while shard 1 drives
            # its own; shard 1's reply must not be left for a later op.
            with pytest.raises(AttributeError):
                manager.executor.run_load({0: (None, 3), 1: (stream, 3)})
            assert manager.executor.call(1, "stats").index == 1
        finally:
            report = manager.finish()
        assert not report.lost_shards

    def test_strict_loadgen_exits_nonzero_on_loss(self, monkeypatch, capsys):
        import repro.cli as cli
        import repro.fleet.loadgen as loadgen_mod

        class FakeResult:
            lost_shards = {1: "worker process died during 'load' command"}

            def render(self) -> str:
                return "fake fleet load"

        monkeypatch.setattr(
            loadgen_mod, "run_fleet_load", lambda *a, **kw: FakeResult()
        )
        rc = cli.main(["fleet", "loadgen", "--jobs", "10", "--strict"])
        assert rc == 3
        assert "1 shard(s) lost" in capsys.readouterr().err
        # Without --strict the same loss is reported, not fatal.
        rc = cli.main(["fleet", "loadgen", "--jobs", "10"])
        assert rc == 0


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_sigterm_worker_drains_and_folds_in(self):
        def one_run(send_term: bool) -> "object":
            manager = FleetManager(
                small_config(executor="multiprocess"), small_registry()
            )
            victims = tenants_by_shard(manager)
            manager.submit_count(victims[0], 2)
            manager.submit_count(victims[1], 2)
            if send_term:
                executor = manager.executor
                process = executor._handles[0].process
                os.kill(process.pid, signal.SIGTERM)
                process.join(timeout=30)
                assert not process.is_alive()
            return manager.finish()

        terminated = one_run(send_term=True)
        control = one_run(send_term=False)
        # The TERM'd worker finished its shard and pushed its books: no
        # loss, and the digest matches the undisturbed run exactly.
        assert not terminated.lost_shards
        assert terminated.sha256 == control.sha256


# ----------------------------------------------------------------------
# FleetClient round trip
# ----------------------------------------------------------------------
class TestFleetClient:
    def test_round_trip_against_live_server(self):
        manager = FleetManager(small_config(), small_registry())
        server = FleetAPIServer(manager, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with FleetClient(server.url) as client:
                health = client.health()
                assert health.n_shards == 2
                assert health.executor == "inprocess"
                tenants = client.tenants()
                assert {t.tenant_id for t in tenants} == {
                    t.tenant_id for t in small_registry()
                }
                submitted = client.submit(tenants[0].tenant_id, 2)
                assert len(submitted.outcomes) == 2
                assert submitted.n_admitted <= 2
                quote = client.quote(tenants[0].tenant_id)
                assert quote.est_completion_s > 0
                stats = client.stats()
                assert stats.fleet["submitted"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_new_envelope_parses_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = parse_error(
                404,
                {"error": {"code": "unknown_tenant", "message": "m",
                           "path": "/v1/jobs"}},
            )
        assert err.status == 404
        assert err.code == "unknown_tenant"
        assert err.path == "/v1/jobs"

    def test_old_envelope_falls_to_unknown_code(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = parse_error(
                400,
                {"error": {"type": "schema_violation", "message": "bad",
                           "details": [{"path": "$.n_jobs"}]}},
            )
        assert err.status == 400
        assert err.code == "unknown"
        assert "schema_violation" in str(err)

    def test_https_refused(self):
        with pytest.raises(ValueError, match="plain http"):
            FleetClient("https://example.com")


# ----------------------------------------------------------------------
# One shard command per request
# ----------------------------------------------------------------------
def capped_registry() -> TenantRegistry:
    return TenantRegistry(
        [*small_registry(), TenantSpec(tenant_id="capped", quota_jobs=2)]
    )


class TestOneCommandPerRequest:
    def test_each_post_is_one_submit_command(self):
        manager = FleetManager(
            small_config(executor="multiprocess"), capped_registry()
        )
        posts = [("acme-001", 3), ("capped", 5), ("acme-002", 2),
                 ("capped", 1), ("acme-004", 1)]
        refused = []
        try:
            with serve_in_thread(manager) as server, FleetClient(server.url) as client:
                for tenant_id, n_jobs in posts:
                    try:
                        client.submit(tenant_id, n_jobs)
                    except FleetAPIError as exc:
                        refused.append((tenant_id, exc.status))
                scrape = client.metrics()
        finally:
            manager.finish()
        assert refused == [("capped", 429)]
        commands = scrape.family("fleet_worker_commands_total")
        assert commands.value(op="submit") == len(posts)
        assert "account" not in {s.label("op") for s in commands.samples}

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_exhausted_quota_is_a_429_under_both_executors(self, executor):
        manager = FleetManager(small_config(executor=executor), capped_registry())
        try:
            with serve_in_thread(manager) as server, FleetClient(server.url) as client:
                client.submit("capped", 5)
                with pytest.raises(FleetAPIError) as info:
                    client.submit("capped", 1)
        finally:
            manager.finish()
        assert info.value.status == 429
        assert info.value.code == "quota_exhausted"
        assert "'capped'" in str(info.value)

    def test_quota_error_pickles_with_its_fields(self):
        error = QuotaExceededError("capped", 2)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is QuotaExceededError
        assert (copy.tenant_id, copy.quota_jobs) == ("capped", 2)
        assert str(copy) == str(error)
        # So a worker ships it home as itself, not a RuntimeError summary.
        assert _picklable(error) is error


# ----------------------------------------------------------------------
# Expired aliases stay gone; loud failures
# ----------------------------------------------------------------------
class TestDeprecationAliases:
    def test_tenant_alias_removed(self):
        import repro.fleet as fleet
        import repro.fleet.tenants as tenants_mod

        for module in (fleet, tenants_mod):
            assert not hasattr(module, "Tenant")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # What `from module import *` resolves.
                for name in module.__all__:
                    getattr(module, name)

    def test_pretrain_samples_kwarg_rejected(self):
        with pytest.raises(TypeError, match="pretrain_samples"):
            FleetConfig(n_shards=2, pretrain_samples=33)
        assert not hasattr(FleetConfig(n_shards=2), "pretrain_samples")

    def test_command_queue_depth_kwarg_rejected(self):
        with pytest.raises(TypeError, match="command_queue_depth"):
            FleetConfig(n_shards=2, command_queue_depth=16)

    def test_configs_reject_positional_construction(self):
        with pytest.raises(TypeError):
            FleetConfig(8)
        with pytest.raises(TypeError):
            LoadGenConfig(100)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
