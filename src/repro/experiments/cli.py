"""Experiment subcommands of the unified ``repro`` CLI.

This module owns the figure/table renderers and the broker load command
(``render``/``snapshot``/``diff``/``loadgen``) and mounts them onto the
single ``repro`` entry point via :func:`register_commands`:

    repro render fig6
    repro render all
    repro loadgen --scheduler Op --jobs 8000

The historic ``repro-experiment`` console script and its
``python -m repro.experiments.cli`` shim have been removed after their
one-release deprecation window; use ``repro <subcommand>``. The
``repro fig6`` positional sugar lives on in
:func:`expand_render_sugar`, applied by :func:`repro.cli.main`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from . import figures, tables

__all__ = ["register_commands", "expand_render_sugar"]


def _render_fig7() -> str:
    return "\n\n".join(f.render() for f in figures.fig7_completion())


def _render_report() -> str:
    from ..metrics.report import build_report
    from ..workload.distributions import Bucket
    from .config import DEFAULT_SPEC
    from .runner import run_comparison

    spec = DEFAULT_SPEC.with_bucket(Bucket.LARGE)
    return build_report(run_comparison(spec)).render()


def _render_scaling() -> str:
    from ..workload.distributions import Bucket
    from .config import DEFAULT_SPEC
    from .scaling import ec_scaling_sweep

    return ec_scaling_sweep(DEFAULT_SPEC.with_bucket(Bucket.LARGE)).render()


def _render_sweeps() -> str:
    from ..workload.distributions import Bucket
    from .config import DEFAULT_SPEC
    from .sweeps import arrival_rate_sweep, bandwidth_sweep, tolerance_sweep

    spec = DEFAULT_SPEC.with_bucket(Bucket.LARGE)
    return "\n\n".join([
        bandwidth_sweep(spec).render(),
        arrival_rate_sweep(spec).render(),
        tolerance_sweep(spec).render(),
    ])


def _render_full_report() -> str:
    from .report_md import generate_reproduction_report

    path = generate_reproduction_report("reproduction_report.md")
    return f"wrote {path} ({path.stat().st_size} bytes)"


def _render_workload() -> str:
    from .config import DEFAULT_SPEC
    from .runner import build_workload
    from ..workload.stats import workload_stats

    return workload_stats(build_workload(DEFAULT_SPEC)).render()


_TARGETS: dict[str, Callable[[], str]] = {
    "fig3": lambda: figures.fig3_qrsm().render(),
    "fig4": lambda: figures.fig4_bandwidth().render(),
    "fig6": lambda: figures.fig6_makespan().render(),
    "fig7": _render_fig7,
    "fig8": lambda: figures.fig8_completion_large().render(),
    "fig9": lambda: figures.fig9_oo_metric().render(),
    "fig10": lambda: figures.fig10_oo_relative().render(),
    "table1": lambda: tables.table1_metrics().render(),
    "sibs": lambda: tables.sibs_optimization().render(),
    # beyond the paper's figures:
    "report": _render_report,
    "scaling": _render_scaling,
    "sweeps": _render_sweeps,
    "workload": _render_workload,
    "full-report": _render_full_report,
}


def _policy_from_args(args):
    import math

    from ..metrics.tickets import FixedSlaTicket, ProportionalTicket
    from ..service import SLAPolicy

    if args.ticket == "none":
        ticket = None
    elif args.ticket == "fixed":
        ticket = FixedSlaTicket(promise=args.promise)
    else:
        ticket = ProportionalTicket(base_s=args.ticket_base, factor=args.ticket_factor)
    return SLAPolicy(
        ticket=ticket,
        min_slack_s=args.min_slack,
        degraded_slack_s=(
            -math.inf if args.degraded_slack is None else args.degraded_slack
        ),
        max_in_system=args.max_in_system,
        max_upload_backlog_mb=args.max_upload_backlog,
    )


def _cmd_loadgen(args) -> int:
    """Open-loop load run through the online broker; optionally persist
    the summary to a file."""
    from ..service import LoadGenConfig, run_load
    from ..sim.environment import CloudBurstEnvironment
    from ..workload.distributions import Bucket
    from .config import DEFAULT_SPEC
    from .runner import make_scheduler

    try:
        config = LoadGenConfig(
            n_jobs=args.jobs,
            rate_per_s=args.rate,
            process=args.process,
            mean_burst_jobs=args.mean_burst,
            bucket=Bucket(args.bucket),
            seed=args.seed,
        )
        policy = _policy_from_args(args)
    except ValueError as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2
    env = CloudBurstEnvironment(DEFAULT_SPEC.system)
    scheduler = make_scheduler(args.scheduler, env)
    text = run_load(env, scheduler, policy, config).render()
    print(text)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    return 0


def _add_service_args(parser) -> None:
    from .runner import SCHEDULER_NAMES

    parser.add_argument("--scheduler", default="Op", choices=SCHEDULER_NAMES)
    parser.add_argument("--rate", type=float, default=50.0,
                        help="long-run arrival rate, jobs per simulated second")
    parser.add_argument("--jobs", type=int, default=100_000,
                        help="total jobs to push through the broker")
    parser.add_argument("--process", default="poisson",
                        choices=["poisson", "bursty"])
    parser.add_argument("--mean-burst", type=float, default=10.0,
                        help="mean jobs per burst for --process bursty")
    parser.add_argument("--bucket", default="uniform",
                        choices=["small", "uniform", "large"])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--ticket", default="proportional",
                        choices=["proportional", "fixed", "none"],
                        help="promise pricing family (none = sell no promises)")
    parser.add_argument("--promise", type=float, default=600.0,
                        help="flat promise seconds for --ticket fixed")
    parser.add_argument("--ticket-base", type=float, default=300.0)
    parser.add_argument("--ticket-factor", type=float, default=6.0)
    parser.add_argument("--min-slack", type=float, default=0.0,
                        help="minimum quoted slack (s) for a clean accept")
    parser.add_argument("--degraded-slack", type=float, default=-120.0,
                        help="slack floor (s) for a flagged accept-degraded")
    parser.add_argument("--max-in-system", type=int, default=60,
                        help="backpressure: reject above this many in-flight jobs")
    parser.add_argument("--max-upload-backlog", type=float, default=None,
                        help="backpressure: reject above this upload backlog (MB)")


def _cmd_snapshot(args) -> int:
    """Run the paper's comparison and persist it for regression tracking."""
    from ..workload.distributions import Bucket
    from .config import DEFAULT_SPEC
    from .persistence import save_comparison
    from .runner import run_comparison

    spec = DEFAULT_SPEC.with_bucket(Bucket(args.bucket)).with_seed(args.seed)
    traces = run_comparison(spec)
    directory = save_comparison(
        args.directory, traces,
        metadata={"bucket": args.bucket, "seed": args.seed},
    )
    print(f"saved comparison snapshot to {directory}")
    return 0


def _cmd_diff(args) -> int:
    """Diff two snapshots; non-zero exit when metrics drifted."""
    from .persistence import diff_comparisons

    report = diff_comparisons(args.old, args.new)
    drifted = False
    for name, drift in report.items():
        if not drift:
            print(f"{name}: no drift")
            continue
        drifted = True
        for metric, rel in drift.items():
            print(f"{name}: {metric} changed {rel:+.1%}")
    return 1 if drifted else 0


def _cmd_render(args) -> int:
    """Regenerate one figure/table (or every one with ``all``)."""
    targets = list(_TARGETS) if args.target == "all" else [args.target]
    for name in targets:
        print(f"=== {name} " + "=" * max(0, 70 - len(name)))
        print(_TARGETS[name]())
        print()
    return 0


#: Subcommand names this module contributes to the unified ``repro`` CLI.
EXPERIMENT_COMMANDS = ("render", "snapshot", "diff", "loadgen")


def register_commands(sub: argparse._SubParsersAction) -> None:
    """Mount the experiment subcommands on a ``repro`` subparsers object.

    Each subparser sets ``func`` so the host CLI can dispatch uniformly
    with ``args.func(args)``.
    """
    render = sub.add_parser(
        "render", help="regenerate a paper figure/table"
    )
    render.add_argument("target", choices=[*_TARGETS, "all"])
    render.set_defaults(func=_cmd_render)

    snapshot = sub.add_parser(
        "snapshot", help="run the scheduler comparison and persist it"
    )
    snapshot.add_argument("directory")
    snapshot.add_argument("--bucket", default="large",
                          choices=["small", "uniform", "large"])
    snapshot.add_argument("--seed", type=int, default=42)
    snapshot.set_defaults(func=_cmd_snapshot)

    diff = sub.add_parser("diff", help="compare two persisted snapshots")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.set_defaults(func=_cmd_diff)

    loadgen = sub.add_parser(
        "loadgen",
        help="serve an open-loop arrival stream through the online broker",
    )
    _add_service_args(loadgen)
    loadgen.add_argument("--out", default=None,
                         help="also write the summary to this file")
    loadgen.set_defaults(func=_cmd_loadgen)


def expand_render_sugar(argv: Sequence[str]) -> list[str]:
    """Historic positional sugar: ``fig6`` means ``render fig6``."""
    argv = list(argv)
    if argv and argv[0] in (*_TARGETS, "all"):
        argv = ["render", *argv]
    return argv


