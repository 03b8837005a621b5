"""In-memory span recorder and the layer wrappers the traced run installs.

A span is one call into a layer's public function: name, start, end,
parent span and request id. Spans are appended to compact arrays as
they close (a traced offline run records about a million) and written
out once, when the run ends. Self time is accumulated as spans close:
a span's duration minus the durations of its children.

The wrappers are installed at run time from this file, around the
program's own functions, and removed again afterwards; nothing under
``src/`` changes. Worker processes of the multiprocess executor are
started with ``spawn`` and therefore never carry them.

Cross-thread parenting: in traced HTTP runs the server runs on a thread
of this process. The load is one closed-loop client, so at most one
request is open at a time; a span that opens on another thread with an
empty stack while a request is open becomes that request's child. The
request span's self time is then the client and server HTTP work (codec,
socket, any TCP stall) outside the fleet manager call.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

#: (layer, module, attribute path) of every wrapped function. A layer of
#: ``None`` records the span for its inclusive time only; its self time
#: stays unattributed (``other``).
TARGETS: tuple[tuple[Optional[str], str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "Simulator.run"),
    ("sim.engine", "repro.sim.engine", "Simulator.run_until"),
    ("sim.engine", "repro.sim.environment", "Session.run_batches"),
    ("sim.engine", "repro.sim.environment", "Session.finish"),
    ("sim.environment.build_state", "repro.sim.environment",
     "CloudBurstEnvironment.build_state"),
    ("sim.network", "repro.sim.network", "FluidLink.start_transfer"),
    ("sim.network", "repro.sim.network", "FluidLink.current_rates"),
    ("models.qrsm", "repro.models.qrsm", "QuadraticResponseSurface.predict"),
    ("models.qrsm", "repro.models.qrsm", "QuadraticResponseSurface.predict_many"),
    ("models.qrsm", "repro.models.qrsm", "QuadraticResponseSurface.observe"),
    # quote_job is imported by name into its callers' namespaces.
    ("service.quotes", "repro.service.broker", "quote_job"),
    ("service.quotes", "repro.fleet.sharding", "quote_job"),
    ("service.broker", "repro.service.broker", "BurstBroker.submit"),
    ("workload.generator", "repro.fleet.sharding", "BrokerShard.synthesize_jobs"),
    ("fleet.schema", "repro.fleet.api", "validate"),
    ("fleet.sharding", "repro.fleet.sharding", "FleetManager.submit_count"),
    ("fleet.sharding", "repro.fleet.sharding", "FleetManager.quote"),
    ("fleet.sharding", "repro.fleet.sharding", "FleetManager.account"),
    ("fleet.sharding", "repro.fleet.sharding", "BrokerShard.submit"),
    ("fleet.api", "repro.fleet.client", "FleetClient.submit"),
    ("fleet.api", "repro.fleet.client", "FleetClient.quote"),
    ("fleet.executor", "repro.fleet.executor", "MultiprocessExecutor.call"),
    ("fleet.drain", "repro.fleet.sharding", "FleetManager.finish"),
    ("fleet.drain", "repro.fleet.sharding", "BrokerShard.finish"),
    ("fleet.drain", "repro.fleet.aggregate", "aggregate_shards"),
    ("setup", "repro.sim.environment", "CloudBurstEnvironment.pretrain_qrsm"),
    ("setup", "repro.fleet.executor", "make_executor"),
    (None, "repro.experiments.runner", "run_one"),
)

#: The layers in report order; ``core.plan`` wraps every scheduler class.
LAYERS = (
    "sim.engine",
    "sim.environment.build_state",
    "sim.network",
    "models.qrsm",
    "core.plan",
    "service.quotes",
    "service.broker",
    "workload.generator",
    "fleet.schema",
    "fleet.sharding",
    "fleet.api",
    "fleet.executor",
    "fleet.drain",
    "setup",
)

#: Spans that open a client request (each gets a fresh request id).
REQUEST_SPANS = ("FleetClient.submit", "FleetClient.quote")


def _span_name(attr: str, args: tuple[Any, ...]) -> str:
    """Span name of calls whose arguments select the work done."""
    if attr == "run_one":
        return f"run_one[{args[0]}]"
    return f"{attr}[{args[2]}]"  # MultiprocessExecutor.call(self, index, op)


class Tracer:
    """Span buffer plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.span_id = array("q")
        self.parent_id = array("q")
        self.request_id = array("q")
        self.name_index = array("l")
        self.start = array("d")
        self.end = array("d")
        self.names: list[str] = []
        self.name_layer: list[Optional[str]] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        #: Simulator event and compaction counts of the sessions that
        #: ended in this process, read off each environment as it ends.
        self.sim_events = 0
        self.sim_compactions = 0
        self._next_span = 1
        self._next_request = 1
        self._local = threading.local()
        self._open_request: Optional[list[Any]] = None
        self._installed: list[tuple[Any, str, Any]] = []
        self.t0 = 0.0
        self.t1 = 0.0

    # ------------------------------------------------------------------
    def _name_id(self, name: str, layer: Optional[str]) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return index

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(
        self, fn: Callable[..., Any], layer: Optional[str], attr: str
    ) -> Callable[..., Any]:
        tracer = self
        opens_request = attr in REQUEST_SPANS
        fixed_id = (
            None
            if attr in ("run_one", "MultiprocessExecutor.call")
            else self._name_id(attr, layer)
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name_id = (
                tracer._name_id(_span_name(attr, args), layer)
                if fixed_id is None
                else fixed_id
            )
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._open_request
            span_id = tracer._next_span
            tracer._next_span += 1
            if opens_request:
                request_id = tracer._next_request
                tracer._next_request += 1
            else:
                request_id = parent[3] if parent is not None else 0
            # [span id, child seconds, start, request id]
            frame = [span_id, 0.0, 0.0, request_id]
            stack.append(frame)
            if opens_request:
                tracer._open_request = frame
            frame[2] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if opens_request:
                    tracer._open_request = None
                duration = end - start
                tracer.calls[name_id] += 1
                tracer.total_s[name_id] += duration
                tracer.self_s[name_id] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.span_id.append(span_id)
                tracer.parent_id.append(parent[0] if parent is not None else 0)
                tracer.request_id.append(request_id)
                tracer.name_index.append(name_id)
                tracer.start.append(start)
                tracer.end.append(end)

        return wrapper

    def _count_session(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Read the simulator's exact counts off each session as it ends."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(session: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return fn(session, *args, **kwargs)
            finally:
                tracer.sim_events += session.env.sim.events_processed
                tracer.sim_compactions += session.env.sim.compactions

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        from repro.core.base import Scheduler

        for layer, module_name, attr in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(original, layer, attr)
            if attr in ("Session.run_batches", "Session.finish"):
                wrapped = self._count_session(wrapped)
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)
        for cls in _subclasses(Scheduler):
            for leaf in ("plan", "plan_online"):
                original = cls.__dict__.get(leaf)
                if original is None:
                    continue
                self._installed.append((cls, leaf, original))
                setattr(
                    cls,
                    leaf,
                    self._wrap(original, "core.plan", f"{cls.__name__}.{leaf}"),
                )
        self.t0 = time.perf_counter()

    def uninstall(self) -> None:
        self.t1 = time.perf_counter()
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls / self_s / share per layer, in :data:`LAYERS` order."""
        out: dict[str, dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
        }
        for index, layer in enumerate(self.name_layer):
            if layer is not None:
                out[layer]["calls"] += self.calls[index]
                out[layer]["self_s"] += self.self_s[index]
        for entry in out.values():
            entry["share"] = entry["self_s"] / self.wall_s
        return out

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        index = self._name_ids.get(name)
        return self.total_s[index] if index is not None else 0.0

    def count(self, name: str) -> int:
        index = self._name_ids.get(name)
        return self.calls[index] if index is not None else 0

    def write(self, directory: Path) -> None:
        """Write the buffer: a name table plus one binary array per field."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.tsv").write_text(
            "".join(
                f"{index}\t{name}\t{layer or ''}\n"
                for index, (name, layer) in enumerate(
                    zip(self.names, self.name_layer)
                )
            )
        )
        for field in ("span_id", "parent_id", "request_id", "name_index", "start", "end"):
            with open(directory / f"{field}.bin", "wb") as out:
                getattr(self, field).tofile(out)


def _subclasses(cls: type) -> list[type]:
    """Every subclass of ``cls``, each once."""
    seen: dict[type, None] = {}
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        if sub not in seen:
            seen[sub] = None
            todo.extend(sub.__subclasses__())
    return list(seen)
