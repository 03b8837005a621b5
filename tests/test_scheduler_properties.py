"""Property-based invariants every scheduler must satisfy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Placement
from repro.core.base import ECSiteState
from repro.core.baselines import RandomBurstScheduler, ThresholdScheduler
from repro.core.bandwidth_splitting import SizeIntervalSplittingScheduler
from repro.core.greedy import GreedyScheduler
from repro.core.ic_only import ICOnlyScheduler
from repro.core.order_preserving import OrderPreservingScheduler
from repro.core.ticket_aware import TicketAwareScheduler

from tests.conftest import make_job, make_state
from tests.test_schedulers import StubEstimator


def all_schedulers():
    est = StubEstimator()
    return [
        ICOnlyScheduler(est),
        GreedyScheduler(est),
        OrderPreservingScheduler(est),
        SizeIntervalSplittingScheduler(est),
        TicketAwareScheduler(est),
        OrderPreservingScheduler(est, enable_chunking=False),
        RandomBurstScheduler(est, 0.4, seed=3),
        ThresholdScheduler(est),
    ]


def jobs_strategy():
    return st.lists(
        st.tuples(
            st.floats(min_value=1.0, max_value=300.0),    # size
            st.floats(min_value=1.0, max_value=200.0),    # proc time
            st.floats(min_value=0.5, max_value=150.0),    # output
        ),
        min_size=1,
        max_size=15,
    )


def build_jobs(raw):
    return [
        make_job(job_id=i, size_mb=s, proc_time=p, output_mb=o)
        for i, (s, p, o) in enumerate(raw, 1)
    ]


def random_state(data):
    backlog = data.draw(st.floats(min_value=0.0, max_value=2000.0))
    ic_busy = data.draw(st.floats(min_value=0.0, max_value=800.0))
    pend = [100.0 + ic_busy] if ic_busy > 0 else []
    return make_state(
        now=100.0,
        ic_free=[100.0 + ic_busy] * 3,
        ec_free=[100.0, 100.0],
        upload_backlog_mb=backlog,
        pending_completions=pend,
    )


class TestPlanInvariants:
    @given(raw=jobs_strategy(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_job_planned_exactly_once(self, raw, data):
        """Work conservation: each input job appears exactly once (or as a
        complete set of chunks covering its size)."""
        jobs = build_jobs(raw)
        total_mb = sum(j.input_mb for j in jobs)
        for sched in all_schedulers():
            state = random_state(data)
            plan = sched.plan(list(jobs), state)
            planned_ids = sorted({d.job.job_id for d in plan.decisions})
            assert planned_ids == sorted(j.job_id for j in jobs)
            planned_mb = sum(d.job.input_mb for d in plan.decisions)
            assert planned_mb == pytest.approx(total_mb, rel=0.06)
            keys = [d.job.key for d in plan.decisions]
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)  # queue order preserved

    @given(raw=jobs_strategy(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_decisions_have_sane_estimates(self, raw, data):
        jobs = build_jobs(raw)
        for sched in all_schedulers():
            state = random_state(data)
            now = state.now
            plan = sched.plan(list(jobs), state)
            for d in plan.decisions:
                assert d.placement in (Placement.IC, Placement.EC)
                assert d.est_proc_time > 0
                assert d.est_completion >= now
                assert d.d in (0, 1)
                assert d.ec_site == 0  # no extra sites configured here

    @given(raw=jobs_strategy())
    @settings(max_examples=30, deadline=None)
    def test_planning_is_deterministic(self, raw):
        """Same jobs + equivalent states -> identical plans."""
        jobs = build_jobs(raw)
        for sched_a, sched_b in zip(all_schedulers(), all_schedulers()):
            s1 = make_state(ic_free=[50.0] * 3, pending_completions=[50.0])
            s2 = s1.clone()
            p1 = sched_a.plan(list(jobs), s1)
            p2 = sched_b.plan(list(jobs), s2)
            assert [d.placement for d in p1.decisions] == [
                d.placement for d in p2.decisions
            ]
            assert [d.est_completion for d in p1.decisions] == [
                d.est_completion for d in p2.decisions
            ]

    @given(raw=jobs_strategy(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_commits_reflected_in_state(self, raw, data):
        """After planning, the state's EC backlog equals the bursted MB."""
        jobs = build_jobs(raw)
        for sched in all_schedulers():
            state = random_state(data)
            before = state.upload_backlog_mb
            plan = sched.plan(list(jobs), state)
            bursted_mb = sum(
                d.job.input_mb for d in plan.decisions if d.placement == Placement.EC
            )
            assert state.upload_backlog_mb == pytest.approx(before + bursted_mb)


def state_with_random_sites(data):
    """``random_state`` plus 0-3 extra sites with drawn links and pools."""
    state = random_state(data)
    for i in range(data.draw(st.integers(min_value=0, max_value=3))):
        state.extra_sites.append(
            ECSiteState(
                name=f"site-{i + 1}",
                ec_free=[100.0 + data.draw(st.floats(min_value=0.0, max_value=500.0))],
                ec_speed=data.draw(st.sampled_from([0.5, 1.0, 1.5])),
                upload_backlog_mb=data.draw(st.floats(min_value=0.0, max_value=500.0)),
                est_up_mbps=data.draw(st.sampled_from([1.0, 2.0, 4.0])),
                est_down_mbps=data.draw(st.sampled_from([1.0, 2.0, 4.0])),
            )
        )
    return state


class TestSiteSearchProperties:
    @given(raw=jobs_strategy(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ft_ec_is_the_earliest_site_lowest_index_first(self, raw, data):
        est = StubEstimator()
        state = state_with_random_sites(data)
        for job in build_jobs(raw):
            per_site = [
                est.ft_ec(job, state, site=i) for i in range(len(state.sites))
            ]
            assert [e.site for e in per_site] == list(range(len(state.sites)))
            earliest = min(e.completion for e in per_site)
            first = next(e for e in per_site if e.completion == earliest)
            assert est.ft_ec(job, state) == first

    @given(raw=jobs_strategy(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_commits_return_what_they_book(self, raw, data):
        est = StubEstimator()
        state = state_with_random_sites(data)
        for job in build_jobs(raw):
            est_proc = est.est_proc_time(job)
            if data.draw(st.booleans()):
                ec = est.ft_ec(job, state, est_proc)
                site = state.sites[ec.site]
                backlog = site.upload_backlog_mb
                d = state.commit_ec(job, est_proc, ec)
                assert (d.placement, d.ec_site) == (Placement.EC, ec.site)
                assert site.upload_backlog_mb == backlog + job.input_mb
                assert ec.exec_end in site.ec_free
            else:
                t_ic = est.ft_ic(job, state, est_proc)
                d = state.commit_ic(job, est_proc, t_ic)
                assert (d.placement, d.ec_site) == (Placement.IC, 0)
                assert t_ic in state.ic_free
            assert (d.job, d.est_proc_time) == (job, est_proc)
            assert d.est_completion == state.pending_completions[-1]
