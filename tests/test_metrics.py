"""Metric tests: OO metric (Eqs. 3-6), SLAs (Eqs. 7-12), completion series."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Placement
from repro.metrics.oo import (
    max_id_in_order,
    ordered_data_series,
    relative_oo_difference,
)
from repro.metrics.series import completion_series, in_order_waits, peak_stats
from repro.metrics.sla import (
    burst_ratio,
    burst_ratio_per_batch,
    ec_utilization,
    ic_utilization,
    makespan,
    sequential_time,
    speedup,
    summarize,
)
from repro.sim.tracing import JobRecord, RunTrace


def record(job_id, completion, output_mb=10.0, arrival=0.0, placement=Placement.IC,
           batch_id=0, sub_id=0, proc=10.0):
    return JobRecord(
        job_id=job_id, batch_id=batch_id, arrival_time=arrival,
        input_mb=output_mb * 2, output_mb=output_mb, placement=placement,
        sub_id=sub_id, true_proc_time=proc, est_proc_time=proc,
        completion_time=completion, exec_start=max(0.0, completion - proc),
        exec_end=completion, schedule_time=arrival,
    )


def make_trace(records, ic_busy=0.0, ec_busy=0.0, ic_m=8, ec_m=2, arrival=0.0):
    end = max((r.completion_time for r in records if r.completion_time), default=0.0)
    return RunTrace(
        records=list(records), arrival_time=arrival, end_time=end,
        ic_busy_time=ic_busy, ec_busy_time=ec_busy,
        ic_machines=ic_m, ec_machines=ec_m, scheduler_name="test",
    )


class TestMaxIdInOrder:
    def test_strict_order_stops_at_first_gap(self):
        completed = np.array([True, True, False, True])
        assert max_id_in_order(completed, tolerance=0) == 2

    def test_tolerance_skips_gaps(self):
        completed = np.array([True, True, False, True])
        # id 4: 4 - 1 = 3 <= |J_4t| = 3 -> ok.
        assert max_id_in_order(completed, tolerance=1) == 4

    def test_nothing_completed(self):
        assert max_id_in_order(np.zeros(5, dtype=bool), tolerance=0) == 0
        assert max_id_in_order(np.zeros(5, dtype=bool), tolerance=3) == 0

    def test_empty(self):
        assert max_id_in_order(np.array([], dtype=bool), tolerance=0) == 0

    def test_all_completed(self):
        assert max_id_in_order(np.ones(7, dtype=bool), tolerance=0) == 7

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            max_id_in_order(np.ones(3, dtype=bool), tolerance=-1)

    def test_paper_worked_example(self):
        """tolerance 0 means every job with id < i must have completed."""
        # Jobs 1,3,4 done; 2 missing.
        completed = np.array([True, False, True, True])
        assert max_id_in_order(completed, 0) == 1
        assert max_id_in_order(completed, 1) == 4


class TestOrderedDataSeries:
    def trace(self):
        # Completions: 1@10, 2@30, 3@20 (3 completes before 2!), 4@40.
        return make_trace([
            record(1, 10.0, output_mb=5.0),
            record(2, 30.0, output_mb=7.0),
            record(3, 20.0, output_mb=11.0),
            record(4, 40.0, output_mb=13.0),
        ])

    def test_strict_series_hand_checked(self):
        s = ordered_data_series(self.trace(), tolerance=0, sampling_interval=10.0,
                                start=0.0, end=40.0)
        assert s.times.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        # t=10: job1 -> 5. t=20: jobs1,3 done but 2 missing -> m=1 -> 5.
        # t=30: 1,2,3 -> 23. t=40: all -> 36.
        assert s.ordered_mb.tolist() == [0.0, 5.0, 5.0, 23.0, 36.0]
        assert s.max_in_order_id.tolist() == [0, 1, 1, 3, 4]

    def test_tolerance_unblocks_stragglers(self):
        s = ordered_data_series(self.trace(), tolerance=1, sampling_interval=10.0,
                                start=0.0, end=40.0)
        # t=20: ids {1,3} done; id3: 3-1=2 <= |{1,3}|=2 -> m=3; o = 5+11.
        assert s.ordered_mb.tolist() == [0.0, 5.0, 16.0, 23.0, 36.0]

    def test_final_mb_is_total_output(self):
        s = ordered_data_series(self.trace(), tolerance=0, sampling_interval=10.0)
        assert s.final_mb == pytest.approx(36.0)

    def test_empty_trace(self):
        s = ordered_data_series(make_trace([record(1, 1.0)]).records[:0])
        assert len(s.times) == 0 and s.area() == 0.0

    def test_chunked_records_renumbered_by_key(self):
        recs = [
            record(1, 10.0, output_mb=5.0),
            record(2, 12.0, output_mb=3.0, sub_id=1),
            record(2, 50.0, output_mb=3.0, sub_id=2),
            record(3, 20.0, output_mb=7.0),
        ]
        s = ordered_data_series(make_trace(recs), tolerance=0,
                                sampling_interval=10.0, start=0.0, end=50.0)
        # At t=20: units 1, 2.1 done, 2.2 missing -> blocked at renumbered
        # id 2 -> 8 MB; job 3's 7MB held back until 2.2 lands at t=50.
        assert s.ordered_mb[2] == pytest.approx(8.0)
        assert s.ordered_mb[-1] == pytest.approx(18.0)

    def test_area_monotone_in_tolerance(self):
        t0 = ordered_data_series(self.trace(), tolerance=0, sampling_interval=5.0,
                                 start=0.0, end=40.0)
        t2 = ordered_data_series(self.trace(), tolerance=2, sampling_interval=5.0,
                                 start=0.0, end=40.0)
        assert t2.area() >= t0.area()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            ordered_data_series(self.trace(), sampling_interval=0.0)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_o_t_nondecreasing_in_time(self, completions, tol):
        recs = [record(i + 1, c) for i, c in enumerate(completions)]
        s = ordered_data_series(make_trace(recs), tolerance=tol,
                                sampling_interval=25.0, start=0.0)
        assert np.all(np.diff(s.ordered_mb) >= -1e-9)
        assert np.all(np.diff(s.max_in_order_id) >= 0)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_o_t_nondecreasing_in_tolerance(self, completions, tol):
        recs = [record(i + 1, c) for i, c in enumerate(completions)]
        lo = ordered_data_series(make_trace(recs), tolerance=tol,
                                 sampling_interval=25.0, start=0.0, end=1000.0)
        hi = ordered_data_series(make_trace(recs), tolerance=tol + 1,
                                 sampling_interval=25.0, start=0.0, end=1000.0)
        assert np.all(hi.ordered_mb >= lo.ordered_mb - 1e-9)


class TestRelativeDifference:
    def test_identical_series_zero(self):
        recs = [record(i, 10.0 * i) for i in range(1, 5)]
        a = ordered_data_series(make_trace(recs), sampling_interval=10.0,
                                start=0.0, end=40.0)
        rel = relative_oo_difference(a, a)
        assert np.allclose(rel, 0.0)

    def test_shorter_baseline_padded_with_plateau(self):
        recs = [record(i, 10.0 * i) for i in range(1, 5)]
        a = ordered_data_series(make_trace(recs), sampling_interval=10.0,
                                start=0.0, end=80.0)
        b = ordered_data_series(make_trace(recs), sampling_interval=10.0,
                                start=0.0, end=40.0)
        rel = relative_oo_difference(a, b)
        assert len(rel) == len(a.times)
        assert np.allclose(rel, 0.0)  # plateau equals the full output


class TestSLAFormulas:
    def test_makespan(self):
        trace = make_trace([record(1, 50.0), record(2, 120.0)], arrival=20.0)
        assert makespan(trace) == pytest.approx(100.0)

    def test_sequential_time_and_speedup(self):
        trace = make_trace([record(1, 50.0, proc=30.0), record(2, 100.0, proc=50.0)])
        assert sequential_time(trace) == pytest.approx(80.0)
        assert speedup(trace) == pytest.approx(80.0 / 100.0)
        assert sequential_time(trace, standard_speed=2.0) == pytest.approx(40.0)

    def test_speedup_degenerate(self):
        assert speedup(make_trace([])) == 0.0

    def test_utilization_eq9(self):
        trace = make_trace([record(1, 100.0)], ic_busy=400.0, ec_busy=50.0,
                           ic_m=8, ec_m=2)
        assert ic_utilization(trace) == pytest.approx(400.0 / (8 * 100.0))
        assert ec_utilization(trace) == pytest.approx(50.0 / (2 * 100.0))

    def test_burst_ratio_eq12(self):
        recs = [record(i, 10.0, placement=Placement.EC if i % 3 == 0 else Placement.IC)
                for i in range(1, 10)]
        assert burst_ratio(make_trace(recs)) == pytest.approx(3 / 9)

    def test_burst_ratio_per_batch_eq11(self):
        recs = [
            record(1, 10.0, batch_id=0, placement=Placement.EC),
            record(2, 10.0, batch_id=0, placement=Placement.IC),
            record(3, 10.0, batch_id=1, placement=Placement.IC),
        ]
        per = burst_ratio_per_batch(make_trace(recs))
        assert per == {0: 0.5, 1: 0.0}

    def test_summarize_consistency(self):
        recs = [record(i, 10.0 * i) for i in range(1, 6)]
        trace = make_trace(recs, ic_busy=100.0, ec_busy=10.0)
        s = summarize(trace)
        assert s.makespan_s == makespan(trace)
        assert s.n_jobs == 5
        assert s.burst_ratio == burst_ratio(trace)
        row = s.as_row()
        assert set(row) >= {"scheduler", "makespan_s", "speedup", "ic_util_%"}

    def test_invalid_standard_speed(self):
        with pytest.raises(ValueError):
            sequential_time(make_trace([record(1, 1.0)]), standard_speed=0.0)


class TestCompletionSeries:
    def test_series_ordering(self):
        recs = [record(2, 30.0), record(1, 10.0), record(3, 20.0)]
        cs = completion_series(make_trace(recs))
        assert cs.ids.tolist() == [1, 2, 3]
        assert cs.completions.tolist() == [10.0, 30.0, 20.0]

    def test_in_order_waits_hand_checked(self):
        recs = [record(1, 10.0), record(2, 30.0), record(3, 20.0), record(4, 25.0)]
        cs = completion_series(make_trace(recs))
        waits = in_order_waits(cs)
        # Job 2 stalls the consumer by 20s; jobs 3,4 are valleys (ready early).
        assert waits.tolist() == [0.0, 20.0, 0.0, 0.0]

    def test_peak_stats(self):
        recs = [record(1, 10.0), record(2, 30.0), record(3, 20.0), record(4, 25.0)]
        p = peak_stats(make_trace(recs), min_peak_s=1.0)
        assert p.n_peaks == 1
        assert p.total_wait_s == pytest.approx(20.0)
        assert p.max_wait_s == pytest.approx(20.0)
        assert p.n_valleys == 2

    def test_empty(self):
        p = peak_stats(make_trace([record(1, 1.0)]).records[:0])
        assert p.n_peaks == 0 and p.total_wait_s == 0.0

    def test_in_order_completions_have_no_valleys(self):
        recs = [record(i, 10.0 * i) for i in range(1, 6)]
        p = peak_stats(make_trace(recs))
        assert p.n_valleys == 0


class TestTracing:
    def test_record_validation_catches_time_travel(self):
        r = record(1, 10.0)
        r.exec_start = 50.0  # after completion
        with pytest.raises(ValueError):
            r.validate()

    def test_trace_validation_catches_duplicate_keys(self):
        trace = make_trace([record(1, 10.0), record(1, 20.0)])
        with pytest.raises(ValueError):
            trace.validate()

    def test_response_and_transfer_time(self):
        r = record(1, 100.0, arrival=10.0)
        r.upload_start, r.upload_end = 10.0, 30.0
        r.download_start, r.download_end = 80.0, 100.0
        assert r.response_time == pytest.approx(90.0)
        assert r.transfer_time == pytest.approx(40.0)

    def test_json_roundtrip(self, tmp_path):
        trace = make_trace([record(1, 10.0), record(2, 20.0)], ic_busy=30.0)
        path = tmp_path / "trace.json"
        trace.to_json(path)
        back = RunTrace.from_json(path)
        assert back.makespan == trace.makespan
        assert len(back.records) == 2
        assert back.records[0].completion_time == 10.0

    def test_csv_export(self, tmp_path):
        trace = make_trace([record(1, 10.0)])
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        text = path.read_text()
        assert "job_id" in text and "placement" in text

    def test_by_placement(self):
        recs = [record(1, 10.0), record(2, 20.0, placement=Placement.EC)]
        trace = make_trace(recs)
        assert len(trace.by_placement(Placement.EC)) == 1
