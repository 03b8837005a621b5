"""Per-job lifecycle records and run-level traces.

Every job that flows through the simulated cloud-bursting system leaves a
:class:`JobRecord` capturing each pipeline timestamp (Fig. 5 of the paper:
submit -> queue -> schedule -> [upload -> remote execute -> download] or
[local execute] -> result). All SLA metrics in :mod:`repro.metrics` are pure
functions of a :class:`RunTrace`, which keeps the simulator and the
evaluation cleanly separated.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Optional

from ..common import Placement

__all__ = ["Placement", "JobRecord", "RunTrace", "canonical_records", "hash_trace"]


@dataclass
class JobRecord:
    """Complete lifecycle of one job through the cloud-bursting pipeline.

    Times are absolute simulation seconds; ``None`` marks stages the job
    never entered (e.g. upload stages for an IC job). ``job_id`` is the
    queue position (1-based, as in the paper's equations), assigned in
    arrival order and preserved across chunking (chunks get fractional
    suffix ids via ``sub_id``).
    """

    job_id: int
    batch_id: int
    arrival_time: float
    input_mb: float
    output_mb: float
    placement: str = Placement.IC
    sub_id: int = 0
    parent_id: Optional[int] = None
    est_proc_time: float = 0.0
    true_proc_time: float = 0.0
    schedule_time: Optional[float] = None
    upload_start: Optional[float] = None
    upload_end: Optional[float] = None
    exec_start: Optional[float] = None
    exec_end: Optional[float] = None
    download_start: Optional[float] = None
    download_end: Optional[float] = None
    completion_time: Optional[float] = None
    upload_queue: Optional[str] = None
    machine: Optional[str] = None
    rescheduled: bool = False
    #: SLA response-time promise (seconds from arrival) sold at admission by
    #: the online broker; ``None`` for jobs run through the offline runner.
    promise_s: Optional[float] = None

    @property
    def bursted(self) -> bool:
        return self.placement == Placement.EC

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def response_time(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time

    @property
    def transfer_time(self) -> float:
        """Total time spent moving bytes over the inter-cloud links."""
        total = 0.0
        if self.upload_start is not None and self.upload_end is not None:
            total += self.upload_end - self.upload_start
        if self.download_start is not None and self.download_end is not None:
            total += self.download_end - self.download_start
        return total

    def validate(self) -> None:
        """Check internal timestamp monotonicity; raises ``ValueError``."""
        chain = [
            ("arrival_time", self.arrival_time),
            ("schedule_time", self.schedule_time),
            ("upload_start", self.upload_start),
            ("upload_end", self.upload_end),
            ("exec_start", self.exec_start),
            ("exec_end", self.exec_end),
            ("download_start", self.download_start),
            ("download_end", self.download_end),
            ("completion_time", self.completion_time),
        ]
        last_name, last_t = "arrival_time", self.arrival_time
        for name, t in chain[1:]:
            if t is None:
                continue
            if t < last_t - 1e-9:
                raise ValueError(
                    f"job {self.job_id}: {name}={t} precedes {last_name}={last_t}"
                )
            last_name, last_t = name, t


@dataclass
class RunTrace:
    """All job records plus run-level resource accounting for one simulation.

    Attributes
    ----------
    records:
        One :class:`JobRecord` per (possibly chunked) job, in job-id order.
    arrival_time:
        ``arr(J)`` of Eq. 7 — arrival of the first batch.
    end_time:
        Simulation time at which the last job completed.
    ic_busy_time / ec_busy_time:
        Aggregate machine-seconds of busy time, for Eqs. 8–9.
    ic_machines / ec_machines:
        Pool sizes ``|M|``.
    scheduler_name:
        Which scheduler produced this run.
    bandwidth_samples:
        Optional ``(time, mbps)`` samples of the estimated uplink bandwidth,
        recorded by the EWMA estimator for Fig. 4a style plots.
    """

    records: list[JobRecord] = field(default_factory=list)
    arrival_time: float = 0.0
    end_time: float = 0.0
    ic_busy_time: float = 0.0
    ec_busy_time: float = 0.0
    ic_machines: int = 0
    ec_machines: int = 0
    scheduler_name: str = ""
    bandwidth_samples: list[tuple[float, float]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def completed_records(self) -> list[JobRecord]:
        return [r for r in self.records if r.completed]

    @property
    def makespan(self) -> float:
        """Eq. 7: ``max(t_c(i)) - arr(J)``."""
        completions = [r.completion_time for r in self.records if r.completion_time is not None]
        if not completions:
            return 0.0
        return max(completions) - self.arrival_time

    def by_placement(self, placement: str) -> list[JobRecord]:
        return [r for r in self.records if r.placement == placement]

    def validate(self) -> None:
        """Validate every record and global ordering invariants."""
        for rec in self.records:
            rec.validate()
        ids = [(r.job_id, r.sub_id) for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate (job_id, sub_id) pairs in trace")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    _CSV_FIELDS = [
        "job_id", "sub_id", "batch_id", "parent_id", "placement",
        "arrival_time", "schedule_time", "upload_start", "upload_end",
        "exec_start", "exec_end", "download_start", "download_end",
        "completion_time", "input_mb", "output_mb", "est_proc_time",
        "true_proc_time", "upload_queue", "machine", "rescheduled",
        "promise_s",
    ]

    def to_json(self, path: str | Path) -> None:
        payload = {
            "scheduler_name": self.scheduler_name,
            "arrival_time": self.arrival_time,
            "end_time": self.end_time,
            "ic_busy_time": self.ic_busy_time,
            "ec_busy_time": self.ec_busy_time,
            "ic_machines": self.ic_machines,
            "ec_machines": self.ec_machines,
            "metadata": self.metadata,
            "bandwidth_samples": self.bandwidth_samples,
            "records": [asdict(r) for r in self.records],
        }
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def from_json(cls, path: str | Path) -> "RunTrace":
        payload = json.loads(Path(path).read_text())
        records = [JobRecord(**r) for r in payload.pop("records")]
        samples = [tuple(s) for s in payload.pop("bandwidth_samples", [])]
        return cls(records=records, bandwidth_samples=samples, **payload)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._CSV_FIELDS, extrasaction="ignore")
            writer.writeheader()
            for rec in self.records:
                writer.writerow(asdict(rec))


#: JobRecord fields in declaration order — the canonical hashing schema.
_RECORD_FIELDS = tuple(f.name for f in fields(JobRecord))

#: Run-level fields folded into the hash after the per-record stream.
_TRACE_FIELDS = ("arrival_time", "end_time", "ic_busy_time", "ec_busy_time")


def _canon(value: object) -> str:
    """A bit-exact textual form: floats hash by their IEEE-754 bits."""
    if isinstance(value, bool):  # bool before int/float — bool is an int
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def canonical_records(trace: RunTrace) -> Iterator[tuple[str, ...]]:
    """Every record as a tuple of canonicalised field values, in trace
    order, one at a time: the trace is never held twice."""
    for record in trace.records:
        yield tuple(_canon(getattr(record, name)) for name in _RECORD_FIELDS)


def hash_trace(trace: RunTrace) -> str:
    """SHA-256 over every lifecycle timestamp and run-level accumulator.

    Two traces hash equal iff every job record field (including float
    timestamps, compared at full bit precision), the run-level arrival,
    end and busy times, and the bandwidth samples agree — a divergent
    probe sequence is a determinism bug even if job timestamps happen to
    coincide. ``metadata`` is not hashed: observers (telemetry, econ,
    policy) write their reports there without moving the digest.
    """
    digest = hashlib.sha256()
    for row in canonical_records(trace):
        digest.update("\x1f".join(row).encode())
        digest.update(b"\x1e")
    for name in _TRACE_FIELDS:
        digest.update(f"{name}={_canon(getattr(trace, name))}".encode())
        digest.update(b"\x1e")
    for t, mbps in trace.bandwidth_samples:
        digest.update(f"{_canon(t)},{_canon(mbps)}".encode())
        digest.update(b"\x1e")
    return digest.hexdigest()
