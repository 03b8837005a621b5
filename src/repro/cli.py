"""The unified ``repro`` command.

One entry point, three subcommand groups, all exit-status driven so CI
can gate on them:

**Self-checks**

* ``repro lint [paths...]`` — run the custom AST lint
  (:mod:`repro.analysis.lint`) over source trees; defaults to the
  installed ``repro`` package itself. Exit 1 on any violation.
* ``repro check [--scheduler NAME] [--seed N] [--no-invariants]
  [--no-econ] [--no-fleet] [--no-obs] [--no-policy] [--no-lint]`` — the
  determinism harness (:mod:`repro.analysis.determinism`): after the
  static lint gate, verify every row of its contract table. A
  ``Double`` row runs one cell (scheduler plus what it attaches: spot
  churn with billing, a scaling policy, telemetry, a sharded fleet
  under an executor) twice and compares its digests; a ``Same`` row
  requires two cells to agree (telemetry on vs off, an idle policy vs
  none, multiprocess vs in-process). Each ``--no-*`` flag skips the
  rows that use its axis. Exit 1 on divergence or invariant violation.
* ``repro typecheck`` — ``mypy --strict`` over the typed core
  (``repro.sim.engine``, ``repro.core``, ``repro.analysis``). Skips with
  exit 0 when mypy is not installed (the pinned container image carries
  no type-checker; CI installs one).

**Experiments** (contributed by :mod:`repro.experiments.cli`)

* ``repro render <fig6|table1|...|all>`` — regenerate paper figures and
  tables (``repro fig6`` works as positional sugar).
* ``repro snapshot`` / ``repro diff`` — persist and compare comparison
  runs for regression tracking.
* ``repro loadgen`` — an open-loop arrival stream through the online
  broker: throughput, quote latency, admission and SLA attainment.

**Fleet** (:mod:`repro.fleet`)

* ``repro fleet serve`` — the sharded multi-tenant HTTP/JSON front.
* ``repro fleet loadgen`` — aggregate heavy-traffic driver across all
  shards (the ≥100k jobs/s figure in ``BENCH_core.json``);
  ``--format markdown|json`` prints the aggregated multi-tenant report
  for machine use, ``--url`` replays the same schedule over HTTP.

**Observability** (:mod:`repro.obs`)

* ``repro obs summary`` — deterministic run with telemetry attached,
  metric-catalogue summary.
* ``repro obs spans`` — the sampled decision-point span stream.
* ``repro obs export`` — the same registry as Prometheus text
  exposition or a canonical JSON snapshot.

**Policy** (:mod:`repro.policy`)

* ``repro policy validate`` — schema-check a JSON/TOML policy file.
* ``repro policy show`` — render a policy file's winner order and
  triggers (``--json`` for the canonical document).
* ``repro policy simulate`` — drive a seeded run with the converger
  attached; ``--preempt --require-converged`` asserts capacity
  re-reaches desired after spot preemption.

**Benchmarks**

* ``repro bench [--smoke] [--out PATH]`` — the canonical performance
  harness (:mod:`repro.perf.harness`): engine event throughput, offline
  end-to-end runs per paper scheduler, broker load-driver throughput
  (steady and bursty arrivals), the telemetry and policy control-plane
  overheads, and fleet throughput (in-process and multiprocess
  executors). Writes ``BENCH_core.json``.

**Economics** (:mod:`repro.econ`)

* ``repro econ report [--scheduler NAME]`` — run scheduler(s) with cost
  accounting attached and print each run's cost ledger.
* ``repro econ frontier [--out PATH]`` — the cost-vs-SLA frontier sweep:
  penalty tightness against the cost-aware policy's EC spend.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["main"]

#: Modules under ``mypy --strict`` — the "typed core" gate. Paths are
#: relative to the package directory so the command works from any CWD.
STRICT_TARGETS = (
    "sim/engine.py",
    "core",
    "analysis",
    "econ",
    "fleet",
    "obs",
    "policy",
    "service",
)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.baseline import Baseline, discover_baseline
    from .analysis.lint import Severity, render_report, run_lint
    from .analysis.output import render_json, render_sarif

    paths = [Path(p) for p in args.paths] if args.paths else [_package_root()]
    for path in paths:
        if not path.exists():
            print(f"repro lint: no such path: {path}", file=sys.stderr)
            return 2
    violations = run_lint(paths, project=not args.no_project)

    # Resolve the baseline: explicit path wins, else auto-discover the
    # checked-in lint-baseline.json walking up from the first path.
    baseline_path: Optional[Path] = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not args.write_baseline and not baseline_path.is_file():
            print(
                f"repro lint: no such baseline: {baseline_path}",
                file=sys.stderr,
            )
            return 2
    elif not args.no_baseline:
        baseline_path = discover_baseline(paths[0])

    if args.write_baseline:
        from .analysis.baseline import DEFAULT_BASELINE_NAME

        target = baseline_path or Path(DEFAULT_BASELINE_NAME)
        written = Baseline.from_violations(violations).write(target)
        print(
            f"repro lint: baselined {len(violations)} finding(s) -> {written}"
        )
        return 0

    stale: list[dict[str, str]] = []
    n_baselined = 0
    if baseline_path is not None:
        delta = Baseline.load(baseline_path).apply(violations)
        violations = delta.new
        stale = delta.stale
        n_baselined = len(delta.suppressed)

    if args.format == "json":
        rendered = render_json(violations, stale_baseline=stale)
    elif args.format == "sarif":
        rendered = render_sarif(violations)
    else:
        rendered = render_report(violations)
        if n_baselined:
            rendered += f"\n{n_baselined} finding(s) matched the baseline"
        for entry in stale:
            rendered += (
                f"\nstale baseline entry: {entry['code']} {entry['path']} "
                f"({entry['fingerprint']}) no longer fires"
            )

    if args.out:
        Path(args.out).write_text(
            rendered if rendered.endswith("\n") else rendered + "\n",
            encoding="utf-8",
        )
        print(f"repro lint: wrote {args.format} report to {args.out}")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n")

    errors = [v for v in violations if v.severity == Severity.ERROR]
    if stale and args.stale_baseline == "error":
        print(
            f"repro lint: {len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} — regenerate with "
            "--write-baseline",
            file=sys.stderr,
        )
        return 1
    return 1 if errors else 0


def _lint_gate() -> int:
    """Static pre-pass for ``repro check``: a determinism run is not
    trustworthy while SEED/SHD/DET findings are open. Error-severity
    findings outside the checked-in baseline fail fast."""
    from .analysis.baseline import Baseline, discover_baseline
    from .analysis.lint import Severity, render_report, run_lint

    root = _package_root()
    violations = run_lint([root])
    baseline_path = discover_baseline(root)
    if baseline_path is not None:
        violations = Baseline.load(baseline_path).apply(violations).new
    errors = [v for v in violations if v.severity == Severity.ERROR]
    if errors:
        print("static lint gate failed (run `repro lint` for details):")
        print(render_report(errors))
        return 1
    print(
        "static lint gate: clean "
        f"({'no baseline' if baseline_path is None else baseline_path.name})"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.determinism import check_table, run_checks
    from .analysis.invariants import InvariantError
    from .experiments.config import DEFAULT_SPEC
    from .experiments.runner import SCHEDULER_NAMES

    unknown = [s for s in args.scheduler or () if s not in SCHEDULER_NAMES]
    if unknown:
        print(
            f"repro check: unknown scheduler(s) {unknown}; "
            f"choose from {SCHEDULER_NAMES}",
            file=sys.stderr,
        )
        return 2
    if not args.no_lint:
        exit_code = _lint_gate()
        if exit_code:
            return exit_code
    spec = DEFAULT_SPEC if args.seed is None else DEFAULT_SPEC.with_seed(args.seed)
    skipped = {
        axis
        for axis in ("econ", "fleet", "obs", "policy")
        if getattr(args, f"no_{axis}")
    }
    checks = [c for c in check_table(args.scheduler) if not c.axes & skipped]
    print(
        f"determinism check: {len(checks)} contract(s), invariants "
        f"{'off' if args.no_invariants else 'on'}"
    )
    failed = False
    try:
        for result in run_checks(
            checks,
            spec=spec,
            seed=2024 if args.seed is None else args.seed,
            invariants=not args.no_invariants,
        ):
            print(result.render())
            failed = failed or not result.ok
    except InvariantError as exc:
        print(f"invariant violated during check run: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


def _cmd_typecheck(args: argparse.Namespace) -> int:
    try:
        import mypy  # noqa: F401
    except ImportError:
        print(
            "repro typecheck: mypy is not installed; skipping "
            "(CI runs this gate with mypy --strict)"
        )
        return 0
    import subprocess

    root = _package_root()
    targets = [str(root / rel) for rel in STRICT_TARGETS]
    cmd = [sys.executable, "-m", "mypy", "--strict", *targets]
    print("running:", " ".join(cmd))
    return subprocess.call(cmd)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.harness import run_bench

    report = run_bench(smoke=args.smoke, out_path=args.out)
    print(report.render())
    print(f"wrote {report.path}")
    return 0


def _cmd_econ_report(args: argparse.Namespace) -> int:
    from .econ import EconConfig, EconRuntime, SpotMarketConfig, attach_econ
    from .experiments.config import DEFAULT_SPEC
    from .experiments.runner import SCHEDULER_NAMES, build_workload, run_one
    from .sim.environment import CloudBurstEnvironment

    schedulers: Sequence[str] = args.scheduler or ["CostAware"]
    unknown = [s for s in schedulers if s not in SCHEDULER_NAMES]
    if unknown:
        print(
            f"repro econ: unknown scheduler(s) {unknown}; "
            f"choose from {SCHEDULER_NAMES}",
            file=sys.stderr,
        )
        return 2
    spec = DEFAULT_SPEC
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    config = EconConfig(
        billing=args.billing,
        spot=SpotMarketConfig() if args.spot else None,
    )
    batches = build_workload(spec)
    for name in schedulers:
        runtime: dict[str, EconRuntime] = {}

        def hook(env: CloudBurstEnvironment) -> None:
            runtime["econ"] = attach_econ(env, config)

        run_one(name, spec, batches=batches, env_hook=hook)
        print(f"{name}: {runtime['econ'].ledger.render()}")
    return 0


def _cmd_econ_frontier(args: argparse.Namespace) -> int:
    from .experiments.config import DEFAULT_SPEC
    from .experiments.sweeps import cost_frontier_sweep

    spec = DEFAULT_SPEC
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    result = cost_frontier_sweep(spec)
    text = result.render()
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .experiments.cli import register_commands

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cloud-bursting reproduction: self-checks, experiments and "
            "benchmarks under one command."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lint = sub.add_parser(
        "lint", help="run the project-wide dataflow lint"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    p_lint.add_argument(
        "--out",
        default=None,
        help="write the report to this file instead of stdout",
    )
    p_lint.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file of parked findings (default: auto-discover "
            "lint-baseline.json walking up from the first path)"
        ),
    )
    p_lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any discovered baseline; report every finding",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="park the current findings in the baseline file and exit 0",
    )
    p_lint.add_argument(
        "--stale-baseline",
        choices=("warn", "error"),
        default="warn",
        help=(
            "what to do when a baseline entry no longer fires "
            "(CI uses error; default: warn)"
        ),
    )
    p_lint.add_argument(
        "--no-project",
        action="store_true",
        help="per-module rules only; skip the whole-program SEED/SHD/UNI002 pass",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_check = sub.add_parser(
        "check", help="double-run determinism + invariant check"
    )
    p_check.add_argument(
        "--scheduler",
        action="append",
        help="scheduler to check (repeatable; default: the paper's four)",
    )
    p_check.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    p_check.add_argument(
        "--no-invariants",
        action="store_true",
        help="hash-compare only, without the runtime invariant checker",
    )
    p_check.add_argument(
        "--no-econ",
        action="store_true",
        help="skip rows with spot churn + billing (ledger determinism)",
    )
    p_check.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip rows that run a sharded fleet (merged-digest determinism)",
    )
    p_check.add_argument(
        "--no-obs",
        action="store_true",
        help="skip rows with telemetry attached (observer parity)",
    )
    p_check.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the static lint gate that runs before the double-run",
    )
    p_check.add_argument(
        "--no-policy",
        action="store_true",
        help="skip rows with a scaling policy (audit determinism, idle parity)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_type = sub.add_parser(
        "typecheck", help="mypy --strict over the typed core"
    )
    p_type.set_defaults(func=_cmd_typecheck)

    register_commands(sub)

    from .fleet.cli import register_fleet_commands

    register_fleet_commands(sub)

    from .obs.cli import register_obs_commands

    register_obs_commands(sub)

    from .policy.cli import register_policy_commands

    register_policy_commands(sub)

    p_econ = sub.add_parser(
        "econ", help="cost accounting: ledgers and the cost-vs-SLA frontier"
    )
    econ_sub = p_econ.add_subparsers(dest="econ_command", required=True)
    p_econ_report = econ_sub.add_parser(
        "report", help="run scheduler(s) with billing attached, print ledgers"
    )
    p_econ_report.add_argument(
        "--scheduler",
        action="append",
        help="scheduler to cost (repeatable; default: CostAware)",
    )
    p_econ_report.add_argument(
        "--billing",
        choices=("busy", "pool"),
        default="busy",
        help="meter model: usage billing (busy) or rental billing (pool)",
    )
    p_econ_report.add_argument(
        "--spot",
        action="store_true",
        help="price compute off the seeded spot market instead of on-demand",
    )
    p_econ_report.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    p_econ_report.set_defaults(func=_cmd_econ_report)
    p_econ_frontier = econ_sub.add_parser(
        "frontier", help="penalty-tightness sweep of the cost-aware policy"
    )
    p_econ_frontier.add_argument(
        "--out", default=None, help="also write the rendered table to a file"
    )
    p_econ_frontier.add_argument(
        "--seed", type=int, default=None, help="override the workload seed"
    )
    p_econ_frontier.set_defaults(func=_cmd_econ_frontier)

    p_bench = sub.add_parser(
        "bench", help="run the canonical performance benchmark harness"
    )
    p_bench.add_argument(
        "--smoke",
        action="store_true",
        help="tiny preset for CI: exercises every scenario in seconds",
    )
    p_bench.add_argument(
        "--out",
        default="BENCH_core.json",
        help="where to write the JSON report (default: BENCH_core.json)",
    )
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .experiments.cli import expand_render_sugar

    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(expand_render_sugar(argv))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
