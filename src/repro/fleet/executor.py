"""Executor layer: *who drives the shards* is now a pluggable choice.

PR 6 built the fleet as N independent :class:`~repro.fleet.sharding.
BrokerShard` partitions but drove them sequentially in one process. This
module separates the *what* (shard operations) from the *where* (which
process runs them) behind one small command protocol:

============ ========================================================
op           behaviour
============ ========================================================
``submit``   synthesise ``n_jobs`` for a tenant from the seeded API
             substream and quote/admit/dispatch them; an exhausted
             tenant raises ``QuotaExceededError`` before synthesis
``quote``    price one synthesised job for a tenant, no admission
``accounts`` every tenant's books (a point-in-time copy off-process)
``stats``    live counters snapshot (:class:`ShardStatsSnapshot`)
``load``     drive one open-loop arrival stream to completion
``drain``    finish the shard and return its :class:`ShardResult`:
             the trace's digest and the books, no job records
============ ========================================================

Two executors implement it:

* :class:`InProcessExecutor` — shards live in this process and ops are
  plain method calls. The default: tests poke shard internals directly
  and nothing forks.
* :class:`MultiprocessExecutor` — one **worker process per shard**
  (``multiprocessing`` *spawn* context — no fork inheriting a warm
  interpreter; every worker rebuilds its shard from ``(index, config,
  tenants)``, which is exactly the determinism contract). Commands
  travel over one duplex pipe per worker with timeout + retry-once
  semantics; workers publish health beats; a dead or wedged worker is
  detected and surfaced as a deterministic :class:`ShardLostError`
  whose reason string (no pids, no addresses, no times) flows into the
  aggregation digest. SIGTERM to a worker triggers a graceful drain: the
  shard is finished and its result handed back before the process
  exits.
  Workers boot with one OpenBLAS thread, inherited from the default
  ``import repro`` sets, and import only the shard stack.

Both executors route every op through the same :func:`_apply` dispatch,
so the shard-index-order fold under one ``fleet_sha256`` is byte-identical
across executors by construction — and the ``repro check`` executor
parity pass re-proves it on every run.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional, Protocol, Sequence

from ..obs import MetricsRegistry
from .sharding import BrokerShard, FleetConfig, ShardResult
from .tenants import TenantRegistry, TenantSpec

__all__ = [
    "EXECUTOR_NAMES",
    "ShardLostError",
    "ShardStatsSnapshot",
    "WorkerHealth",
    "ShardExecutor",
    "InProcessExecutor",
    "MultiprocessExecutor",
    "make_executor",
]

#: The registered executor names, in documentation order.
EXECUTOR_NAMES = ("inprocess", "multiprocess")

#: Reply tags outside the command-id space: worker boot handshake and
#: the unsolicited result a SIGTERM'd worker pushes while draining.
_BOOT_TAG = -1
_TERM_TAG = -2

#: Seconds a worker may take to import + rebuild its shard (numpy/scipy
#: imports and QRSM pretraining happen inside the child on spawn).
_BOOT_TIMEOUT_S = 120.0

#: Health-beat publication period (worker side).
_BEAT_INTERVAL_S = 0.2

#: CPU-clock buckets for worker command handling (seconds of process
#: time — these are real-machine measurements, not simulation time).
_CMD_CPU_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)


class ShardLostError(RuntimeError):
    """A shard's worker died or stopped responding.

    The message is deliberately deterministic — index, op and a stable
    cause, never pids/ports/timestamps — because it becomes the lost
    shard's entry in the aggregation digest: two runs that lose the same
    shard at the same point must still agree bit-for-bit.
    """

    def __init__(self, index: int, op: str, cause: str) -> None:
        self.index = index
        self.op = op
        self.cause = cause
        super().__init__(f"shard {index} lost: {cause} during {op!r} command")


@dataclass(frozen=True)
class ShardStatsSnapshot:
    """One shard's live counters, safe to ship across a process boundary."""

    index: int
    tenant_ids: tuple[str, ...]
    counters: dict[str, Any]
    lost: Optional[str] = None
    #: Telemetry registry snapshot piggybacked on the same reply — the
    #: executor plane ships its metrics without a second round trip.
    obs: Optional[dict[str, Any]] = None


@dataclass(frozen=True)
class WorkerHealth:
    """Liveness of one shard's driver as the parent sees it."""

    index: int
    alive: bool
    beat_age_s: float
    pid: Optional[int] = None


def _apply(shard: BrokerShard, op: str, args: tuple[Any, ...]) -> Any:
    """Run one protocol op against a shard.

    The single dispatch both executors share: the in-process executor
    calls it directly, the worker main loop calls it in the child — so
    an op cannot mean different things on different executors.
    """
    if op == "submit":
        return shard.submit_count(*args)
    if op == "quote":
        (tenant_id,) = args
        _, [job] = shard.synthesize_jobs(1)
        return shard.quote(tenant_id, job)
    if op == "accounts":
        return dict(shard.accounts)
    if op == "stats":
        return ShardStatsSnapshot(
            index=shard.index,
            tenant_ids=tuple(shard.tenant_ids),
            counters=shard.stats.counters_dict(),
            obs=shard.obs_snapshot(),
        )
    if op == "load":
        from .loadgen import drive_shard_load

        stream, rotation_seed = args
        return drive_shard_load(shard, stream, rotation_seed)
    if op == "drain":
        return shard.finish()
    raise ValueError(f"unknown shard op {op!r}")


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a summary."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(
    index: int,
    config: FleetConfig,
    tenants: Sequence[TenantSpec],
    conn: "multiprocessing.connection.Connection",
    beat: Any,
) -> None:
    """One shard's worker process: rebuild, then serve the command loop.

    SIGTERM is a *drain* request, not a kill: the loop notices the flag,
    finishes the shard, pushes the result under ``_TERM_TAG`` and exits —
    so an orchestrator scaling the fleet down never loses books.
    End-of-file (or a reset) on ``conn`` means the parent closed it or
    died: the worker exits without draining.
    """
    term = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: term.set())
    try:
        shard = BrokerShard(index, config, list(tenants))
    except BaseException as exc:  # noqa: BLE001 — boot errors go to the parent
        conn.send((_BOOT_TAG, "error", _picklable(exc)))
        return

    # Worker-plane telemetry lands in the shard's own registry, so it
    # ships home piggybacked on the stats/drain replies every other
    # counter already rides — no new round trips, and the parent's
    # shard-index-order fold picks it up like any other family.
    obs = shard.obs
    if obs is not None:
        _cmd_counter = obs.registry.counter(
            "fleet_worker_commands_total",
            "Commands handled by this shard's worker, by op.",
            labels=("op",),
        )
        _cmd_cpu = obs.registry.histogram(
            "fleet_worker_command_cpu_seconds",
            "Worker CPU clock spent handling one command, by op.",
            buckets=_CMD_CPU_BUCKETS,
            labels=("op",),
        )

    stop_beat = threading.Event()

    def _publish_beats() -> None:
        while not stop_beat.is_set():
            beat.value = time.monotonic()  # repro: allow[DET001] liveness beat, not sim state
            stop_beat.wait(_BEAT_INTERVAL_S)

    beat_thread = threading.Thread(
        target=_publish_beats, name=f"fleet-beat-{index}", daemon=True
    )
    beat_thread.start()

    drained = False
    try:
        conn.send((_BOOT_TAG, "ok", index))
        while True:
            if term.is_set():
                if not drained:
                    try:
                        conn.send((_TERM_TAG, "ok", shard.finish()))
                    except BaseException:  # noqa: BLE001 — exiting anyway
                        pass
                break
            if not conn.poll(0.1):
                continue
            cmd_id, op, args = conn.recv()
            if obs is not None:
                cpu0 = time.process_time()  # repro: allow[DET001] worker command-latency meter
            try:
                payload = _apply(shard, op, args)
            except BaseException as exc:  # noqa: BLE001 — report, keep serving
                conn.send((cmd_id, "error", _picklable(exc)))
                continue
            finally:
                if obs is not None:
                    _cmd_counter.counter_labels(op).inc()
                    _cmd_cpu.histogram_labels(op).observe(
                        time.process_time() - cpu0  # repro: allow[DET001] worker command-latency meter
                    )
            if op == "drain":
                drained = True
            conn.send((cmd_id, "ok", payload))
    except (EOFError, OSError):
        pass  # the parent closed its end or died: nothing left to serve
    finally:
        stop_beat.set()


class ShardExecutor(Protocol):
    """The contract both executors satisfy (structural, no base class)."""

    name: str
    #: Control-plane telemetry owned by the executor itself (reply
    #: retries, lost shards) — merged into the fleet metrics view after
    #: the per-shard registries.
    telemetry: MetricsRegistry

    @property
    def n_shards(self) -> int: ...

    @property
    def lost(self) -> dict[int, str]: ...

    def call(self, index: int, op: str, *args: Any) -> Any: ...

    def run_load(
        self, assignments: dict[int, tuple[Any, int]]
    ) -> dict[int, Optional[Any]]: ...

    def drain(self) -> tuple[list[ShardResult], dict[int, str]]: ...

    def health(self) -> list[WorkerHealth]: ...

    def close(self) -> None: ...


class InProcessExecutor:
    """Shards in this process, ops as method calls — the test default."""

    name = "inprocess"

    def __init__(self, config: FleetConfig, registry: TenantRegistry) -> None:
        self.config = config
        self.telemetry = MetricsRegistry()
        self.shards = [
            BrokerShard(i, config, registry.tenants_for_shard(i, config.n_shards))
            for i in range(config.n_shards)
        ]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def lost(self) -> dict[int, str]:
        return {}

    def call(self, index: int, op: str, *args: Any) -> Any:
        return _apply(self.shards[index], op, args)

    def run_load(
        self, assignments: dict[int, tuple[Any, int]]
    ) -> dict[int, Optional[Any]]:
        # Sequential, in shard-index order — the interleave cannot change
        # any result (shards share nothing), only the wall clock.
        return {
            index: self.call(index, "load", stream, rotation_seed)
            for index, (stream, rotation_seed) in sorted(assignments.items())
        }

    def drain(self) -> tuple[list[ShardResult], dict[int, str]]:
        return [shard.finish() for shard in self.shards], {}

    def health(self) -> list[WorkerHealth]:
        return [
            WorkerHealth(index=i, alive=True, beat_age_s=0.0)
            for i in range(self.n_shards)
        ]

    def close(self) -> None:
        return None


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one shard worker."""

    index: int
    process: Any
    conn: Any
    beat: Any
    next_cmd_id: int = 0
    lost_cause: Optional[str] = None
    term_result: Optional[ShardResult] = None


class MultiprocessExecutor:
    """One spawn-context worker process per shard.

    Robustness model:

    * **one duplex pipe per worker** — at most one command is in
      flight per worker, so every reply answers the command just sent;
    * **timeout + retry-once** on replies — a reply window that expires
      while the worker is still alive is granted exactly one more
      window (slow ≠ dead); a second expiry loses the shard;
    * **crash detection** — a dead worker shows at once as end-of-file
      on its pipe (as does a boot that dies), and raises
      :class:`ShardLostError` with a stable cause string;
    * **graceful drain** — SIGTERM'd workers finish their shard and push
      the result before exiting; :meth:`drain` folds those results in
      exactly as if the parent had asked;
    * **no leftover processes** — :meth:`close` escalates to a kill
      for a worker that will not exit, and an orphaned worker sees
      end-of-file and exits.

    A shard, once lost, stays lost: every later op fails fast with the
    recorded cause, and :meth:`drain` reports it to aggregation instead
    of a :class:`ShardResult`.
    """

    name = "multiprocess"

    def __init__(self, config: FleetConfig, registry: TenantRegistry) -> None:
        self.config = config
        self.telemetry = MetricsRegistry()
        self._retries = self.telemetry.counter(
            "fleet_executor_retries_total",
            "Command replies granted a second window, by op.",
            labels=("op",),
        )
        self._lost_total = self.telemetry.counter(
            "fleet_shards_lost_total",
            "Shards declared lost by the parent, by stable cause.",
            labels=("cause",),
        )
        ctx = multiprocessing.get_context("spawn")
        self._handles: list[_WorkerHandle] = []
        for i in range(config.n_shards):
            conn, child_conn = ctx.Pipe()
            # One writer, and readers only compare ages: a lock would be a
            # named semaphore that leaks when this process is killed.
            beat = ctx.Value("d", 0.0, lock=False)
            process = ctx.Process(
                target=_worker_main,
                args=(i, config, registry.tenants_for_shard(i, config.n_shards),
                      child_conn, beat),
                name=f"fleet-shard-{i}",
                daemon=True,
            )
            process.start()
            # Else the worker's death never shows here as end-of-file.
            child_conn.close()
            self._handles.append(
                _WorkerHandle(index=i, process=process, conn=conn, beat=beat)
            )
        boot_error: Optional[BaseException] = None
        for handle in self._handles:
            try:
                msg = handle.conn.recv() if handle.conn.poll(_BOOT_TIMEOUT_S) else None
            except (EOFError, OSError):
                msg = None
            if msg is None:
                boot_error = ShardLostError(
                    handle.index, "boot", "worker failed to start"
                )
                break
            tag, status, payload = msg
            if tag != _BOOT_TAG or status != "ok":
                boot_error = (
                    payload
                    if isinstance(payload, BaseException)
                    else ShardLostError(handle.index, "boot", str(payload))
                )
                break
        if boot_error is not None:
            self.close()
            raise boot_error

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._handles)

    @property
    def lost(self) -> dict[int, str]:
        return {
            h.index: h.lost_cause
            for h in self._handles
            if h.lost_cause is not None
        }

    # ------------------------------------------------------------------
    def _lose(self, handle: _WorkerHandle, op: str, cause: str) -> ShardLostError:
        if handle.lost_cause is None:
            handle.lost_cause = f"{cause} during {op!r} command"
            self._lost_total.counter_labels(cause).inc()
        return ShardLostError(handle.index, op, cause)

    def _timeout_s(self, op: str) -> float:
        if op in ("load", "drain"):
            return self.config.drain_timeout_s
        return self.config.command_timeout_s

    def _poll_unsolicited(self, handle: _WorkerHandle) -> None:
        """Pick up the books a SIGTERM'd worker pushed without being asked.

        Such a worker drains its shard, pushes the books under
        ``_TERM_TAG`` and exits — possibly while no command was in
        flight, so no ``_receive`` loop was there to see it. Called
        before drain decisions so those books are never mistaken for a
        crash.
        """
        try:
            while handle.conn.poll():
                tag, _status, payload = handle.conn.recv()
                if tag == _TERM_TAG:
                    handle.term_result = payload
                # Anything else answers a command whose wait was abandoned.
        except (EOFError, OSError):
            pass  # the worker is gone; the next command records how

    def _send(self, handle: _WorkerHandle, op: str, args: tuple[Any, ...]) -> int:
        if handle.lost_cause is not None:
            raise ShardLostError(handle.index, op, handle.lost_cause)
        cmd_id = handle.next_cmd_id
        handle.next_cmd_id += 1
        # Blocks only on a worker stopped since its last reply (which
        # proves it went back to poll/recv) and a payload over the buffer.
        try:
            handle.conn.send((cmd_id, op, args))
        except OSError:
            raise self._lose(handle, op, "worker process died") from None
        return cmd_id

    def _receive(self, handle: _WorkerHandle, cmd_id: int, op: str) -> Any:
        timeout_s = self._timeout_s(op)
        retries = 0
        while True:
            try:
                if not handle.conn.poll(timeout_s):
                    retries += 1
                    if retries > 1:
                        raise self._lose(handle, op, "command timed out")
                    self._retries.counter_labels(op).inc()
                    continue
                tag, status, payload = handle.conn.recv()
            except (EOFError, OSError):
                # A worker killed with unread bytes resets the pipe
                # rather than closing it: the same death either way.
                raise self._lose(handle, op, "worker process died") from None
            if tag == _TERM_TAG:
                handle.term_result = payload
                if op == "drain":
                    # The worker was SIGTERM'd while we waited: its
                    # pushed books ARE the drain answer, and no further
                    # reply is coming.
                    return payload
                continue
            if tag != cmd_id:
                # The reply to an earlier command whose wait was abandoned
                # (a signal interrupted it): ids only grow, so skip it.
                continue
            if status == "error":
                if isinstance(payload, BaseException):
                    raise payload
                raise RuntimeError(str(payload))
            return payload

    # ------------------------------------------------------------------
    def call(self, index: int, op: str, *args: Any) -> Any:
        handle = self._handles[index]
        cmd_id = self._send(handle, op, args)
        return self._receive(handle, cmd_id, op)

    def run_load(
        self, assignments: dict[int, tuple[Any, int]]
    ) -> dict[int, Optional[Any]]:
        """Fan a load assignment out to every worker, then collect.

        All sends go out before any receive, so workers drive their
        arrival streams **concurrently** — this is the executor's whole
        reason to exist. Replies are collected in shard-index order; a
        worker that dies mid-stream costs its own timing only.
        """
        sent: dict[int, int] = {}
        for index, (stream, rotation_seed) in sorted(assignments.items()):
            try:
                sent[index] = self._send(
                    self._handles[index], "load", (stream, rotation_seed)
                )
            except ShardLostError:
                continue
        timings: dict[int, Optional[Any]] = {}
        for index in sorted(assignments):
            if index not in sent:
                timings[index] = None
                continue
            try:
                timings[index] = self._receive(
                    self._handles[index], sent[index], "load"
                )
            except ShardLostError:
                timings[index] = None
        return timings

    def drain(self) -> tuple[list[ShardResult], dict[int, str]]:
        """Collect every shard's final books, in shard-index order.

        SIGTERM'd workers already pushed their result; live workers are
        asked to drain; lost workers contribute their cause string. The
        caller shuts the worker pool down afterwards with :meth:`close`.
        """
        results: list[ShardResult] = []
        lost: dict[int, str] = {}
        for handle in self._handles:
            if handle.lost_cause is None:
                self._poll_unsolicited(handle)
                if handle.term_result is None:
                    try:
                        results.append(self.call(handle.index, "drain"))
                        continue
                    except ShardLostError:
                        pass
            if handle.term_result is not None:
                results.append(handle.term_result)
            else:
                lost[handle.index] = handle.lost_cause or "unknown"
        return results, lost

    def health(self) -> list[WorkerHealth]:
        now = time.monotonic()  # repro: allow[DET001] liveness beat, not sim state
        out = []
        for handle in self._handles:
            last_beat = float(handle.beat.value)
            out.append(
                WorkerHealth(
                    index=handle.index,
                    alive=handle.lost_cause is None and handle.process.is_alive(),
                    beat_age_s=(now - last_beat) if last_beat > 0 else float("inf"),
                    pid=handle.process.pid,
                )
            )
        return out

    def close(self) -> None:
        """Stop every worker: end its pipe, then terminate, then kill.

        Closing the parent's end is the shutdown command: a live worker
        sees end-of-file and exits. A lost shard's worker may be wedged,
        so it gets no such grace.
        """
        for handle in self._handles:
            handle.conn.close()
        for handle in self._handles:
            if handle.lost_cause is None:
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                # A stopped or wedged worker never runs its SIGTERM drain.
                handle.process.kill()
                handle.process.join()


def make_executor(
    name: str, config: FleetConfig, registry: TenantRegistry
) -> ShardExecutor:
    """Instantiate a registered executor by name."""
    if name == "inprocess":
        return InProcessExecutor(config, registry)
    if name == "multiprocess":
        return MultiprocessExecutor(config, registry)
    raise ValueError(
        f"unknown executor {name!r}; expected one of {', '.join(EXECUTOR_NAMES)}"
    )
