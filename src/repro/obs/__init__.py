"""repro.obs — the deterministic telemetry plane.

Observability here is an *observer* in exactly the sense
:mod:`repro.econ` made money an observer: attaching it changes what you
can see, never what happens. Telemetry draws no simulation randomness
(span sampling runs off its own ``substream_seed`` substream), mutates
no scheduler or broker state, and lands its output in
``trace.metadata["obs"]`` — which :func:`~repro.sim.tracing.hash_trace`
deliberately does not hash — so every ``repro check`` digest is
bit-identical with telemetry on or off. The ``repro check`` obs parity
rows pin that contract.

Three layers:

* :mod:`~repro.obs.registry` — counters, gauges, fixed-bucket
  histograms with labels; per-shard registries fold via an associative
  ``merge`` in shard-index order, like ledgers.
* :mod:`~repro.obs.spans` — ring-buffered virtual-clock spans of the
  decision points (plan burst/hold, admission, preemption, transfers)
  with deterministic head sampling.
* :mod:`~repro.obs.exposition` — Prometheus text rendering served on
  ``GET /v1/metrics`` by the fleet API and parsed back by
  ``FleetClient.metrics()``.

:func:`attach_obs` is the single entry point, mirroring ``attach_econ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common import Placement
from ..core.base import BatchPlan
from ..sim.environment import CloudBurstEnvironment, RunPlugin
from ..sim.tracing import JobRecord, RunTrace
from .exposition import (
    MetricFamilySamples,
    MetricSample,
    parse_exposition,
    render_exposition,
    validate_exposition,
)
from .registry import (
    DEFAULT_RATIO_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    CounterSeries,
    GaugeSeries,
    HistogramSeries,
    MetricFamily,
    MetricsRegistry,
)
from .spans import Span, SpanRecorder

__all__ = [
    "CounterSeries",
    "GaugeSeries",
    "HistogramSeries",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_RATIO_BUCKETS",
    "MetricSample",
    "MetricFamilySamples",
    "render_exposition",
    "parse_exposition",
    "validate_exposition",
    "Span",
    "SpanRecorder",
    "ObsConfig",
    "ObsRuntime",
    "attach_obs",
]


@dataclass(frozen=True, kw_only=True)
class ObsConfig:
    """Telemetry knobs for one environment.

    Defaults watch everything: every span offered is kept (up to the
    ring capacity) and histograms use the standard latency/ratio
    buckets. Dial ``span_sample_fraction`` down for heavy runs — the
    decision is made by an isolated seeded generator, so any fraction
    leaves the simulation bit-identical.
    """

    span_capacity: int = 4096
    span_sample_fraction: float = 1.0
    response_buckets_s: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    transfer_buckets_s: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    qrsm_error_ratio_buckets: tuple[float, ...] = DEFAULT_RATIO_BUCKETS


class ObsRuntime(RunPlugin):
    """Live telemetry attached to one environment.

    Registers the sim-plane metric catalogue, caches hot-path label
    series once, and rides the plugin lifecycle (plans and completions)
    plus explicit hook calls from the broker (admission), the policy
    converger and the econ preemption injector. ``finalize`` stamps
    engine gauges and returns the ``trace.metadata["obs"]`` block.
    """

    key = "obs"

    def __init__(
        self,
        env: CloudBurstEnvironment,
        config: Optional[ObsConfig] = None,
    ) -> None:
        super().__init__(env)
        self.config = config if config is not None else ObsConfig()
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(
            env.config.seed,
            capacity=self.config.span_capacity,
            sample_fraction=self.config.span_sample_fraction,
        )
        reg = self.registry
        completed = reg.counter(
            "repro_jobs_completed_total",
            "Jobs completed, by final placement.",
            labels=("placement",),
        )
        self._completed_ic = completed.counter_labels(Placement.IC)
        self._completed_ec = completed.counter_labels(Placement.EC)
        self._requeued = reg.counter(
            "repro_jobs_requeued_total",
            "Completed jobs that were rescheduled at least once "
            "(spot preemption requeues).",
        ).counter_labels()
        self._violations = reg.counter(
            "repro_sla_violations_total",
            "Completed jobs that finished after their sold SLA promise.",
        ).counter_labels()
        response = reg.histogram(
            "repro_response_seconds",
            "Arrival-to-completion response time, by final placement.",
            buckets=self.config.response_buckets_s,
            labels=("placement",),
        )
        self._response_ic = response.histogram_labels(Placement.IC)
        self._response_ec = response.histogram_labels(Placement.EC)
        self._qrsm_error = reg.histogram(
            "repro_qrsm_abs_rel_error",
            "QRSM predicted-vs-actual processing time: |est - true| / true.",
            buckets=self.config.qrsm_error_ratio_buckets,
        ).histogram_labels()
        transfer = reg.histogram(
            "repro_transfer_seconds",
            "Inter-cloud transfer stage durations, by pipeline stage.",
            buckets=self.config.transfer_buckets_s,
            labels=("stage",),
        )
        self._upload = transfer.histogram_labels("upload")
        self._download = transfer.histogram_labels("download")
        self._plan_batches = reg.counter(
            "repro_plan_batches_total",
            "Batches planned by the online scheduler.",
        ).counter_labels()
        plan_decisions = reg.counter(
            "repro_plan_decisions_total",
            "Per-job scheduler placement decisions, burst (EC) vs hold (IC).",
            labels=("action",),
        )
        self._plan_burst = plan_decisions.counter_labels("burst")
        self._plan_hold = plan_decisions.counter_labels("hold")
        self._admissions = reg.counter(
            "repro_admission_total",
            "Broker admission verdicts, by decision and reason.",
            labels=("decision", "reason"),
        )
        # Admission fires once per submitted job; memoise the label
        # resolution so the hot path is one dict hit + one add.
        self._admission_series: dict[tuple[str, str], CounterSeries] = {}
        self._preemptions = reg.counter(
            "repro_preemptions_total",
            "Spot preemptions observed (kill + requeue).",
        ).counter_labels()
        self._preempted_work = reg.counter(
            "repro_preempted_work_seconds_total",
            "Execution seconds lost to spot preemptions.",
        ).counter_labels()
        self._policy_desired = reg.gauge(
            "repro_policy_desired_capacity",
            "EC capacity the winning scaling policy wants (last tick).",
        )
        self._policy_observed = reg.gauge(
            "repro_policy_observed_capacity",
            "EC capacity the converger observed on its basis (last tick).",
        )
        self._policy_steps = reg.counter(
            "repro_policy_steps_total",
            "Convergence steps applied, by kind (launch/drain/delete).",
            labels=("kind",),
        )
        # One series per step kind; resolved lazily like admissions.
        self._policy_step_series: dict[str, CounterSeries] = {}
        self._policy_lag = reg.histogram(
            "repro_policy_convergence_lag_seconds",
            "Virtual seconds from a desired-capacity change until the "
            "observed capacity first matched it.",
            buckets=DEFAULT_SECONDS_BUCKETS,
        ).histogram_labels()
        self._events_gauge = reg.gauge(
            "repro_engine_events_processed",
            "Simulator events processed over the run (stamped at finalize).",
        )
        self._compactions_gauge = reg.gauge(
            "repro_engine_heap_compactions",
            "Event-heap compactions over the run (stamped at finalize).",
        )

    # -- hook points ------------------------------------------------------
    def on_complete(self, record: JobRecord) -> None:
        bursted = record.bursted
        (self._completed_ec if bursted else self._completed_ic).inc()
        if record.rescheduled:
            self._requeued.inc()
        response_s = record.response_time
        if response_s is not None:
            (self._response_ec if bursted else self._response_ic).observe(response_s)
            if record.promise_s is not None and response_s > record.promise_s:
                self._violations.inc()
        if record.true_proc_time > 0.0 and record.est_proc_time > 0.0:
            self._qrsm_error.observe(
                abs(record.est_proc_time - record.true_proc_time)
                / record.true_proc_time
            )
        if record.upload_start is not None and record.upload_end is not None:
            self._upload.observe(record.upload_end - record.upload_start)
            self.spans.record(
                "transfer.upload",
                record.upload_start,
                record.upload_end,
                {"job_id": record.job_id, "mb": record.input_mb},
            )
        if record.download_start is not None and record.download_end is not None:
            self._download.observe(record.download_end - record.download_start)
            self.spans.record(
                "transfer.download",
                record.download_start,
                record.download_end,
                {"job_id": record.job_id, "mb": record.output_mb},
            )
        if record.completion_time is not None:
            self.spans.record(
                "job",
                record.arrival_time,
                record.completion_time,
                {
                    "job_id": record.job_id,
                    "sub_id": record.sub_id,
                    "placement": record.placement,
                    "rescheduled": record.rescheduled,
                },
            )

    def on_plan(self, plan: BatchPlan) -> None:
        n_jobs = len(plan.decisions)
        n_bursted = plan.n_bursted
        self._plan_batches.inc()
        if n_bursted:
            self._plan_burst.inc(float(n_bursted))
        held = n_jobs - n_bursted
        if held:
            self._plan_hold.inc(float(held))
        self.spans.point(
            "plan",
            self.env.sim.now,
            {"n_jobs": n_jobs, "n_bursted": n_bursted},
        )

    def on_admission(self, decision: str, reason: str, at_s: float) -> None:
        """Called by the broker (and shard quota gate) per verdict."""
        key = (decision, reason)
        series = self._admission_series.get(key)
        if series is None:
            series = self._admissions.counter_labels(decision, reason)
            self._admission_series[key] = series
        series.inc()
        self.spans.record(
            "admit", at_s, at_s, {"decision": decision, "reason": reason}
        )

    def on_converge(
        self,
        *,
        desired: Optional[int],
        observed: int,
        steps: dict[str, int],
        lag_s: Optional[float],
        at_s: float,
    ) -> None:
        """Called by the policy runtime after every converger tick."""
        if desired is not None:
            self._policy_desired.set(float(desired))
        self._policy_observed.set(float(observed))
        for kind, count in steps.items():
            series = self._policy_step_series.get(kind)
            if series is None:
                series = self._policy_steps.counter_labels(kind)
                self._policy_step_series[kind] = series
            series.inc(float(count))
        if lag_s is not None:
            self._policy_lag.observe(lag_s)
        self.spans.point(
            "converge",
            at_s,
            {"desired": desired, "observed": observed, "steps": steps},
        )

    def on_preempt(self, elapsed_s: float, at_s: float) -> None:
        """Called via the econ spot-preemption injector."""
        self._preemptions.inc()
        self._preempted_work.inc(elapsed_s)
        self.spans.point("preempt", at_s, {"lost_work_s": elapsed_s})

    # -- finalize ---------------------------------------------------------
    def finalize(self, trace: RunTrace) -> dict[str, object]:
        """Stamp engine gauges; returns the ``trace.metadata["obs"]`` block."""
        self._events_gauge.set(float(self.env.sim.events_processed))
        self._compactions_gauge.set(float(self.env.sim.compactions))
        snapshot = self.registry.snapshot()
        return {
            "registry": snapshot,
            "registry_sha256": self.registry.snapshot_sha256(snapshot),
            "spans": {
                "summary": self.spans.summary(),
                "sampled": self.spans.as_dicts(),
            },
        }


def attach_obs(
    env: CloudBurstEnvironment,
    config: Optional[ObsConfig] = None,
) -> ObsRuntime:
    """Arm telemetry on a freshly built environment.

    Mirrors :func:`repro.econ.attach_econ`: attach before the
    environment is driven, at most once. The broker, policy runtime and
    econ injector find it with ``env.plugin(ObsRuntime)``; its finalized
    output lands in ``trace.metadata["obs"]``, outside every determinism
    digest.
    """
    return ObsRuntime(env, config)
