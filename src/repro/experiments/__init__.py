"""Experiment harness: specs, runner, and per-figure/table reproductions."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".config": ("DEFAULT_SPEC", "HIGH_VARIATION_SPEC", "ExperimentSpec"),
    ".calibration": ("RegimeTarget", "calibrate", "measure_regime"),
    ".gantt": ("gantt_svg",),
    ".persistence": ("diff_comparisons", "load_comparison", "save_comparison"),
    ".report_md": ("generate_reproduction_report",),
    ".scaling": ("ec_instances_for_saturation", "ec_scaling_sweep"),
    ".sweeps": ("arrival_rate_sweep", "bandwidth_sweep", "tolerance_sweep"),
    ".runner": (
        "PAPER_SCHEDULERS", "SCHEDULER_NAMES", "build_workload", "make_scheduler",
        "run_comparison", "run_one",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "ExperimentSpec", "DEFAULT_SPEC", "HIGH_VARIATION_SPEC",
    "SCHEDULER_NAMES", "PAPER_SCHEDULERS", "make_scheduler", "run_one", "run_comparison",
    "build_workload",
    "ec_instances_for_saturation", "ec_scaling_sweep",
    "bandwidth_sweep", "arrival_rate_sweep", "tolerance_sweep",
    "generate_reproduction_report",
    "save_comparison", "load_comparison", "diff_comparisons",
    "RegimeTarget", "calibrate", "measure_regime",
    "gantt_svg",
]
