"""Cross-validation and self-checking tools for the reproduction.

Three complementary layers keep the simulator honest:

* :mod:`repro.analysis.queueing` — closed-form M/M/c and batch-arrival
  theory the IC-only simulator is checked against;
* :mod:`repro.analysis.lint` — an AST lint (``repro lint``) that keeps
  wall-clock reads, unseeded randomness, float time equality, unit-less
  field names and out-of-band state mutation out of the source;
  :mod:`repro.analysis.project` extends it whole-program: an import
  graph and symbol tables feed the SEED (seed provenance), SHD
  (shard safety) and UNI002 (unit-dimension flow) rule families, with
  a checked-in baseline (:mod:`repro.analysis.baseline`) and JSON /
  SARIF output (:mod:`repro.analysis.output`);
* :mod:`repro.analysis.invariants` — an opt-in runtime checker asserting
  event-time monotonicity, job conservation, non-negative backlogs and
  the SIBS cross-queue policy while a simulation runs.

The names below are re-exported lazily (:mod:`repro._lazy`), so a
shard worker that needs only the invariants loads no lint engine.
:mod:`repro.analysis.determinism` (the ``repro check`` harness) is not
re-exported at all — it pulls in the whole experiments package; import
it directly where needed.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    ".baseline": ("Baseline", "BaselineDelta", "discover_baseline"),
    ".invariants": (
        "EnvironmentInvariants", "InvariantError", "InvariantStats",
        "install_invariants", "invariants_enabled",
    ),
    ".lint": (
        "LintRule", "ModuleContext", "Severity", "Violation", "all_rules",
        "lint_file", "lint_source", "render_report", "run_lint",
        "violation_fingerprint",
    ),
    ".output": ("render_json", "render_sarif"),
    ".project": (
        "ModuleInfo", "ProjectIndex", "ProjectRule", "all_project_rules",
        "lint_project_sources",
    ),
    ".queueing": (
        "TheoryComparison", "allen_cunneen_wait", "batch_arrival_scv",
        "compare_ic_only_with_theory", "erlang_c", "mmc_wait", "offered_load",
        "utilization", "within_batch_wait",
    ),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    # queueing theory
    "offered_load", "utilization", "erlang_c", "mmc_wait",
    "batch_arrival_scv", "allen_cunneen_wait", "within_batch_wait",
    "TheoryComparison", "compare_ic_only_with_theory",
    # static lint
    "Violation", "ModuleContext", "LintRule", "Severity", "all_rules",
    "lint_source", "lint_file", "run_lint", "render_report",
    "violation_fingerprint",
    # project-wide pass, baseline, output formats
    "ModuleInfo", "ProjectIndex", "ProjectRule", "all_project_rules",
    "lint_project_sources", "Baseline", "BaselineDelta",
    "discover_baseline", "render_json", "render_sarif",
    # runtime invariants
    "InvariantError", "InvariantStats", "EnvironmentInvariants",
    "install_invariants", "invariants_enabled",
]
