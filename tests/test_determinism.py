"""Tests for the determinism harness and the ``repro`` CLI.

The harness's own promise is tested both ways: a seeded double run must
hash identical, and any single-bit perturbation of a trace must change
the hash *and* be located precisely by the first-divergence report.
Every row of the ``repro check`` table runs here at a small size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

import repro.analysis.determinism as determinism
from repro.analysis.determinism import (
    CHECKS,
    Cell,
    CellRun,
    Double,
    Same,
    check_table,
    first_divergence,
    hash_trace,
    run_checks,
)
from repro.cli import main
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import run_one
from repro.sim.environment import RunPlugin

SMALL_SPEC = ExperimentSpec(
    n_batches=2, mean_jobs_per_batch=4.0, training_samples=50
)


@pytest.fixture(scope="module")
def small_trace():
    return run_one("Greedy", SMALL_SPEC)


class TestHashing:
    def test_identical_runs_hash_identical(self, small_trace):
        again = run_one("Greedy", SMALL_SPEC)
        assert hash_trace(small_trace) == hash_trace(again)
        assert first_divergence(small_trace, again) is None

    def test_hash_is_sha256_hex(self, small_trace):
        digest = hash_trace(small_trace)
        assert len(digest) == 64
        int(digest, 16)  # valid hex

    def test_single_timestamp_flip_changes_hash(self, small_trace):
        before = hash_trace(small_trace)
        record = small_trace.records[3]
        original = record.completion_time
        # The smallest representable perturbation must still be caught.
        record.completion_time = original + 1e-9
        try:
            assert hash_trace(small_trace) != before
        finally:
            record.completion_time = original
        assert hash_trace(small_trace) == before

    def test_first_divergence_names_record_and_field(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.records[3].completion_time += 1e-9
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.record_index == 3
        assert div.field == "completion_time"
        assert div.job_key == (
            small_trace.records[3].job_id,
            small_trace.records[3].sub_id,
        )
        assert "record #3" in div.render()

    def test_first_divergence_on_length_mismatch(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.records.pop()
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.field == "len(records)"
        assert div.record_index is None

    def test_first_divergence_on_run_level_field(self, small_trace):
        other = run_one("Greedy", SMALL_SPEC)
        other.ic_busy_time += 1.0
        div = first_divergence(small_trace, other)
        assert div is not None
        assert div.field == "ic_busy_time"
        assert "run-level" in div.render()


class TestHarness:
    def test_check_scheduler_verdict(self):
        [result] = run_checks([Double(Cell("Greedy"), ("trace",))], spec=SMALL_SPEC)
        assert result.ok
        assert result.divergence is None
        assert result.counts["records"] > 0
        assert "OK" in result.render()

    def test_check_determinism_covers_requested_schedulers(self):
        plain = [c for c in check_table(["ICOnly", "OpSIBS"]) if not c.axes]
        assert [c.cell.scheduler for c in plain] == ["ICOnly", "OpSIBS"]
        results = list(run_checks(plain, spec=SMALL_SPEC))
        assert [r.label for r in results] == ["ICOnly x2", "OpSIBS x2"]
        assert all(r.ok for r in results)

    def test_invariants_ride_along_by_default(self, monkeypatch):
        # The default check runs with the runtime checker installed; a
        # structurally sound scheduler must not trip it.
        installed = []
        real = determinism.install_invariants
        monkeypatch.setattr(
            determinism,
            "install_invariants",
            lambda env: installed.append(env) or real(env),
        )
        [result] = run_checks([Double(Cell("Op"), ("trace",))], spec=SMALL_SPEC)
        assert result.ok
        assert len(installed) == 2


@pytest.fixture(scope="module")
def small_table():
    """Every table row at SMALL_SPEC with a 2-shard, 80-job fleet, plus
    how often each cell was run."""
    calls: Counter = Counter()
    real = determinism.run_cell

    def counting_run_cell(cell, *args, **kwargs):
        calls[cell] += 1
        return real(cell, *args, **kwargs)

    checks = check_table(shards=2, jobs=80)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(determinism, "run_cell", counting_run_cell)
        results = list(run_checks(checks, spec=SMALL_SPEC))
    return checks, results, calls


def nudge_second_run(monkeypatch):
    """Make the second env hook call perturb its run: the first job to
    complete finishes one ulp later."""
    real = determinism.attach_cell
    calls = []

    def attach(env, cell, invariants=True):
        real(env, cell, invariants)
        calls.append(cell)
        if len(calls) != 2:
            return
        done = []

        class Nudge(RunPlugin):
            def on_complete(self, record):
                if not done:
                    record.completion_time += 1e-9
                    done.append(record)

        Nudge(env)

    monkeypatch.setattr(determinism, "attach_cell", attach)


class TestCheckTable:
    @pytest.mark.parametrize("index", range(len(CHECKS)), ids=lambda i: f"row{i}")
    def test_row_passes_small(self, small_table, index):
        checks, results, _ = small_table
        result = results[index]
        assert result.label == checks[index].label
        assert result.ok, result.render()
        assert "OK" in result.render()

    def test_no_cell_runs_twice_except_a_double(self, small_table):
        checks, _, calls = small_table
        doubled = {c.cell for c in checks if isinstance(c, Double)}
        assert calls == {cell: 2 if cell in doubled else 1 for cell in calls}

    def test_shipped_combination_row(self):
        shipped = CHECKS[-1]
        assert shipped.axes == {"fleet", "obs", "policy"}
        assert (shipped.a.executor, shipped.b.executor) == (
            "inprocess",
            "multiprocess",
        )
        assert shipped.keys == ("fleet", "audit")

    @pytest.mark.parametrize("axis", ["econ", "fleet", "obs", "policy"])
    def test_no_flag_skips_exactly_its_axis(self, monkeypatch, axis):
        ran = []
        monkeypatch.setattr(
            determinism,
            "run_checks",
            lambda checks, **kwargs: ran.extend(checks) or iter(()),
        )
        assert main(["check", "--no-lint", f"--no-{axis}"]) == 0
        assert ran == [c for c in CHECKS if axis not in c.axes]

    def test_perturbed_second_run_fails_with_divergence(self, monkeypatch):
        nudge_second_run(monkeypatch)
        [result] = run_checks([Double(Cell("Greedy"), ("trace",))], spec=SMALL_SPEC)
        assert not result.ok
        assert result.divergence is not None
        assert result.divergence.record_index is not None
        assert result.divergence.field == "completion_time"
        rendered = result.render()
        assert "FAIL" in rendered
        assert "first divergence at record #" in rendered
        assert "'completion_time'" in rendered

    def test_fleet_mismatch_names_the_first_differing_shard(self):
        fleet = Cell(executor="inprocess", shards=3)
        observed = replace(fleet, obs=True)
        runs = {
            fleet: CellRun(None, {"fleet": "1" * 64}, {}, ("a" * 64, "b" * 64, "c" * 64)),
            observed: CellRun(None, {"fleet": "2" * 64}, {}, ("a" * 64, "e" * 64, "f" * 64)),
        }
        result = Same(fleet, observed, ("fleet",)).verify(lambda cell: runs[cell])
        assert not result.ok
        assert result.divergence is None
        assert result.detail == (
            f"fleet {'1' * 16} vs {'2' * 16}; first divergence at "
            f"shard[1]: run A = {'b' * 16} vs run B = {'e' * 16}"
        )

    def test_check_exits_one_on_divergence(self, monkeypatch, capsys):
        nudge_second_run(monkeypatch)
        argv = ["check", "--no-lint", "--scheduler", "Greedy", "--no-econ",
                "--no-fleet", "--no-obs", "--no-policy"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "Greedy x2: FAIL" in out
        assert "'completion_time'" in out


class TestCLI:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f(sim):\n    return sim.now\n")
        assert main(["lint", str(clean)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_lint_violating_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_lint_missing_path_exits_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    def test_check_rejects_unknown_scheduler(self):
        assert main(["check", "--scheduler", "NoSuchThing"]) == 2

    def test_typecheck_skips_gracefully_without_mypy(self, capsys):
        rc = main(["typecheck"])
        out = capsys.readouterr().out
        # With mypy absent this skips (rc 0); with mypy present the typed
        # core must actually pass strict mode.
        assert rc == 0
        assert "typecheck" in out or "mypy" in out
