"""Multi-cloud bursting tests: state sites, the site search, environment sites."""

from __future__ import annotations

import pytest

from repro.common import Placement
from repro.core.base import EcEstimate, ECSiteState
from repro.core.greedy import GreedyScheduler
from repro.core.order_preserving import OrderPreservingScheduler
from repro.experiments.config import ExperimentSpec
from repro.experiments.runner import build_workload, make_scheduler, training_data
from repro.sim.environment import CloudBurstEnvironment, ECSiteSpec, SystemConfig
from repro.sim.tracing import hash_trace
from repro.workload.distributions import Bucket
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

from tests.conftest import make_job, make_state
from tests.test_schedulers import StubEstimator


def state_with_sites(**kwargs):
    state = make_state(**kwargs)
    state.extra_sites.append(
        ECSiteState(
            name="provider-b",
            ec_free=[state.now, state.now],
            est_up_mbps=2.0,
            est_down_mbps=2.0,
            up_threads=4,
            down_threads=4,
            per_thread_mbps=0.5,
        )
    )
    return state


class TestSiteView:
    """Every EC site through ``state.sites``, ``ft_ec(site=i)`` and ``commit_ec``.

    The class and test names keep the per-site view vocabulary of the
    accessor class these behaviours were first pinned on.
    """

    def test_primary_view_reads_flat_fields(self):
        state = make_state(now=5.0, ec_free=[7.0, 9.0], upload_backlog_mb=12.0)
        site = state.sites[0]
        assert site is state
        assert site.ec_free == [7.0, 9.0]
        assert site.upload_backlog_mb == 12.0
        assert site.up_rate == state.up_rate

    def test_extra_view_reads_site_state(self):
        state = state_with_sites(now=0.0)
        site = state.sites[1]
        assert site is state.extra_sites[0]
        assert site.name == "provider-b"
        assert site.ec_free == [0.0, 0.0]
        assert site.up_rate == pytest.approx(2.0)

    def test_out_of_range_index(self):
        state = make_state()
        with pytest.raises(IndexError):
            state.sites[1]

    def test_site_views_enumerates_all(self):
        state = state_with_sites()
        assert state.sites == [state, state.extra_sites[0]]

    def test_ft_ec_matches_primary_estimator(self):
        """Site 0 must agree with the default (primary) estimate."""
        est = StubEstimator()
        state = make_state(now=0.0, ec_free=[0.0, 0.0], upload_backlog_mb=100.0)
        job = make_job(size_mb=100.0, proc_time=60.0, output_mb=40.0)
        via_site = est.ft_ec(job, state, 60.0, site=0)
        via_default = est.ft_ec(job, state, 60.0)
        assert via_site == via_default

    def test_ft_ec_reads_extra_site(self):
        """An extra site's estimate uses its own links and pool, and the state's clock."""
        est = StubEstimator()
        state = state_with_sites(now=10.0, ec_free=[500.0], upload_backlog_mb=100.0)
        job = make_job(size_mb=20.0, proc_time=60.0, output_mb=10.0)
        got = est.ft_ec(job, state, 60.0, site=1)
        assert got.site == 1
        assert got.upload_end == pytest.approx(10.0 + 20.0 / 2.0)
        assert got.exec_start == pytest.approx(20.0)
        assert got.exec_end == pytest.approx(80.0)
        assert got.completion == pytest.approx(80.0 + 10.0 / 2.0)

    def test_ft_ec_empty_pool_starts_at_upload_end(self):
        est = StubEstimator()
        state = state_with_sites(now=0.0)
        state.extra_sites[0].ec_free = []
        job = make_job(size_mb=20.0, proc_time=60.0, output_mb=10.0)
        got = est.ft_ec(job, state, 60.0, site=1)
        assert got.exec_start == got.upload_end

    def test_commit_primary_mutates_flat_fields(self):
        state = make_state(ec_free=[0.0])
        job = make_job(size_mb=50.0, output_mb=20.0)
        decision = state.commit_ec(job, 30.0, EcEstimate(0.0, 0.0, 100.0, 120.0, site=0))
        assert (decision.placement, decision.est_completion, decision.ec_site) == (
            Placement.EC, 120.0, 0)
        assert state.upload_backlog_mb == 50.0
        assert state.ec_free == [100.0]
        assert state.pending_completions[-1] == 120.0

    def test_commit_extra_mutates_site(self):
        state = state_with_sites()
        job = make_job(size_mb=50.0, output_mb=20.0)
        decision = state.commit_ec(job, 30.0, EcEstimate(0.0, 0.0, 100.0, 120.0, site=1))
        assert decision.ec_site == 1
        site = state.extra_sites[0]
        assert site.upload_backlog_mb == 50.0
        assert site.download_backlog_mb == 20.0
        assert 100.0 in site.ec_free
        assert state.upload_backlog_mb == 0.0  # primary untouched
        assert state.pending_completions[-1] == 120.0  # the shared pool

    def test_clone_deep_copies_sites(self):
        state = state_with_sites()
        clone = state.clone()
        clone.extra_sites[0].upload_backlog_mb = 99.0
        clone.sites[1].ec_free.append(7.0)
        assert state.extra_sites[0].upload_backlog_mb == 0.0
        assert state.sites[1].ec_free == [state.now, state.now]
        assert clone.sites[0] is clone


class TestMultiSchedulers:
    """``ft_ec`` picks the earliest site; every scheduler follows it.

    The class and test names keep the vocabulary of the dedicated
    multi-site schedulers these behaviours were first pinned on.
    """

    def test_search_returns_the_earliest_site(self):
        est = StubEstimator()
        state = state_with_sites(now=0.0, ec_free=[0.0], upload_backlog_mb=400.0)
        job = make_job(size_mb=20.0, proc_time=60.0, output_mb=10.0)
        best = est.ft_ec(job, state, 60.0)
        assert best.site == 1
        assert best == est.ft_ec(job, state, 60.0, site=1)
        assert best.completion < est.ft_ec(job, state, 60.0, site=0).completion

    def test_tie_goes_to_the_primary(self):
        est = StubEstimator()
        state = state_with_sites(now=0.0, ec_free=[0.0, 0.0])
        job = make_job(size_mb=20.0, proc_time=60.0, output_mb=10.0)
        # Same rates, same idle pool: the two round trips tie exactly.
        primary = est.ft_ec(job, state, 60.0, site=0)
        assert est.ft_ec(job, state, 60.0, site=1).completion == primary.completion
        assert est.ft_ec(job, state, 60.0) == primary

    def test_reduces_to_single_site_greedy(self):
        """An extra site that never wins changes no decision of Greedy."""
        jobs = [make_job(job_id=i, size_mb=10.0, proc_time=30.0, output_mb=5.0)
                for i in range(1, 7)]
        s1 = make_state(ic_free=[0.0], ec_free=[0.0],
                        est_up_mbps=10.0, est_down_mbps=10.0,
                        up_threads=20, down_threads=20)
        s2 = s1.clone()
        s2.extra_sites.append(ECSiteState(name="slow", ec_free=[0.0],
                                          est_up_mbps=1e-3, est_down_mbps=1e-3))
        p_single = GreedyScheduler(StubEstimator()).plan(jobs, s1)
        p_multi = GreedyScheduler(StubEstimator()).plan(jobs, s2)
        assert p_multi.decisions == p_single.decisions
        assert any(d.placement == Placement.EC for d in p_multi.decisions)
        assert all(d.ec_site == 0 for d in p_multi.decisions)

    def test_overflows_to_second_site(self):
        """When the primary path saturates, bursts spill to provider B."""
        state = state_with_sites(
            ic_free=[10_000.0], ec_free=[0.0],
            est_up_mbps=10.0, est_down_mbps=10.0,
            up_threads=20, down_threads=20,
            pending_completions=[10_000.0],
        )
        state.extra_sites[0].est_up_mbps = 10.0
        state.extra_sites[0].est_down_mbps = 10.0
        state.extra_sites[0].up_threads = 20
        state.extra_sites[0].down_threads = 20
        jobs = [make_job(job_id=i, size_mb=50.0, proc_time=30.0, output_mb=20.0)
                for i in range(1, 11)]
        plan = GreedyScheduler(StubEstimator()).plan(jobs, state)
        sites = {d.ec_site for d in plan.decisions if d.placement == Placement.EC}
        assert sites == {0, 1}

    def test_multi_op_respects_slack(self):
        """Head of queue still never bursts, even with many sites."""
        state = state_with_sites(ic_free=[0.0, 0.0])
        jobs = [make_job(job_id=1, proc_time=30.0)]
        plan = OrderPreservingScheduler(StubEstimator()).plan(jobs, state)
        assert plan.decisions[0].placement == Placement.IC


class TestMultiSiteEnvironment:
    def _run(self, scheduler_cls):
        cfg = SystemConfig(
            ic_machines=4, ec_machines=1, seed=5,
            extra_ec_sites=(
                ECSiteSpec(name="b", machines=1, up_base_mbps=3.0, down_base_mbps=4.0),
            ),
        )
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=9)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=3, mean_jobs_per_batch=8, seed=9)
        )
        env = CloudBurstEnvironment(cfg)
        env.pretrain_qrsm(*gen.sample_training_set(200))
        trace = env.run(batches, scheduler_cls(env.estimator))
        return env, trace

    def test_jobs_complete_across_sites(self):
        env, trace = self._run(GreedyScheduler)
        assert all(r.completed for r in trace.records)
        trace.validate()
        # The trace accounts for all EC machines across sites.
        assert trace.ec_machines == 2

    def test_extra_site_actually_used(self):
        env, trace = self._run(GreedyScheduler)
        used_sites = {
            st.site for st in env._states.values()
            if st.record.placement == Placement.EC
        }
        assert 1 in used_sites

    def test_busy_time_sums_sites(self):
        env, trace = self._run(OrderPreservingScheduler)
        expected = sum(site.cluster.total_busy_time for site in env.sites)
        assert trace.ec_busy_time == pytest.approx(expected)

    def test_two_sites_beat_one_under_load(self):
        """Doubling EC capacity via a second provider cuts makespan."""
        gen = WorkloadGenerator(bucket=Bucket.LARGE, seed=9)
        batches = gen.generate(
            WorkloadConfig(bucket=Bucket.LARGE, n_batches=4, mean_jobs_per_batch=12, seed=9)
        )

        def run(extra):
            cfg = SystemConfig(ic_machines=4, ec_machines=2, seed=5,
                               extra_ec_sites=extra)
            env = CloudBurstEnvironment(cfg)
            env.pretrain_qrsm(*gen.sample_training_set(200))
            return env.run(batches, GreedyScheduler(env.estimator))

        single = run(())
        double = run((ECSiteSpec(name="b", machines=2),))
        assert double.makespan < single.makespan

    def test_invalid_site_spec(self):
        with pytest.raises(ValueError):
            ECSiteSpec(name="x", machines=0)
        with pytest.raises(ValueError):
            ECSiteSpec(name="x", up_base_mbps=0.0)


#: Two extra sites: a small slow one and a faster pool whose pipe peaks
#: in the afternoon.
TWO_EXTRA_SITES = (
    ECSiteSpec(name="b", machines=1, up_base_mbps=3.0, down_base_mbps=4.0),
    ECSiteSpec(name="c", machines=2, speed=1.5, peak_hour=16.0),
)

def unchunked_op(env):
    return OrderPreservingScheduler(env.estimator, enable_chunking=False)


#: ``hash_trace`` under ``TWO_EXTRA_SITES`` on the default spec, keyed by
#: (scheduler, bucket); ``UnchunkedOp`` is ``Op(enable_chunking=False)``.
#: The Greedy and UnchunkedOp rows were pinned on the dedicated multi-site
#: variants these two schedulers replaced, before the primary and the
#: extra sites shared one build path; the other rows pin every other
#: scheduler's site search at the change that gave it one.
MULTI_SITE_DIGESTS = {
    ("Greedy", Bucket.LARGE):
        "18ba2706b5bbab306ff5a7a9497417c774f7987c652eef5872571205570f849c",
    ("UnchunkedOp", Bucket.LARGE):
        "02504aca6de5a02c069a7f56a1ebbc174ecf4bf6bb39df2191644ebf0005a92c",
    ("Greedy", Bucket.UNIFORM):
        "964495c8d19197d29d7677c9067c9c21edc139c445e1d479c7604b627b28cca1",
    ("UnchunkedOp", Bucket.UNIFORM):
        "ef25465ea1e21dc48c733b99df66a0f8680abb5a68fdb33b0870271c1963488b",
    ("Op", Bucket.LARGE):
        "3acc0e7109f0e770ce28a7af0f689e0c1b57f8dc097a15882027a1d0f242a4c3",
    ("Op", Bucket.UNIFORM):
        "8718ab828f6cd23b3c13b86e296e7ba84c70ef39e3ef54908bc34a721905b0be",
    ("OpSIBS", Bucket.LARGE):
        "04bc05f387c1db43f852bc54d5a32a99aa01edc953fd01782aac452a6c845401",
    ("OpSIBS", Bucket.UNIFORM):
        "ced81a7fc3ae9b46b3e12437ab0da7850b5fff00e8b1bc7c87a93caa202fc392",
    # Its default ticket is slack enough that TicketOp plans exactly as Op.
    ("TicketOp", Bucket.LARGE):
        "3acc0e7109f0e770ce28a7af0f689e0c1b57f8dc097a15882027a1d0f242a4c3",
    ("TicketOp", Bucket.UNIFORM):
        "8718ab828f6cd23b3c13b86e296e7ba84c70ef39e3ef54908bc34a721905b0be",
    ("RandomBurst", Bucket.LARGE):
        "9acb103460b8f40e17bc5d61ed7d89a8d7e634a82987f34949afe2573896f0ed",
    ("RandomBurst", Bucket.UNIFORM):
        "731bb2d9e5981205ef1ebc70c888c080419e038b0c7c800a3aca8e602bcb178e",
    ("Threshold", Bucket.LARGE):
        "6a7091eeba1c962dea919faad36b0917319a7adac6cf49ce827135021149774d",
    ("Threshold", Bucket.UNIFORM):
        "e9136a146838be3cb7aeed62f9cf430dfeab8baf8822f3f8a578f01d5791578c",
    # Default prices never pay for a burst here, so CostAware plans as
    # ICOnly does; the row pins that the site search left that unchanged.
    ("CostAware", Bucket.LARGE):
        "86b4da154f04c97662a308c46d5b4b03d367548a328efbbb07d4077f98c409d2",
    ("CostAware", Bucket.UNIFORM):
        "937bfb7bef9939995a7a36a5bc9992c97bf54151034e8cfa52d515019b959a5f",
}


def run_with(spec: ExperimentSpec, make):
    """``run_one`` with a scheduler factory ``make(env)`` instead of a name."""
    env = CloudBurstEnvironment(spec.system)
    env.pretrain_qrsm(*training_data(spec))
    return env.run(build_workload(spec), make(env))


def factory(name: str):
    if name == "UnchunkedOp":
        return unchunked_op
    return lambda env: make_scheduler(name, env)


class TestSitePathDigests:
    """Trace-level pins of the multi-site planning path."""

    @pytest.mark.parametrize("name,bucket", sorted(
        MULTI_SITE_DIGESTS, key=lambda k: (k[0], k[1].value)
    ))
    def test_two_extra_sites_golden(self, name, bucket):
        spec = ExperimentSpec(bucket=bucket).with_system(extra_ec_sites=TWO_EXTRA_SITES)
        trace = run_with(spec, factory(name))
        # The digest covers runs that really burst to the extra sites.
        machines = {r.machine.rsplit("-", 1)[0] for r in trace.records if r.machine}
        if name == "CostAware":
            assert machines == {"ic"}
        else:
            assert {"ec-b", "ec-c"} <= machines
        assert hash_trace(trace) == MULTI_SITE_DIGESTS[(name, bucket)]


class TestIcPullAcrossSites:
    def test_pull_reclaims_a_job_queued_for_an_extra_site(self):
        """An idle IC machine takes back a job waiting on site ``c``'s uplink."""
        spec = ExperimentSpec(bucket=Bucket.SMALL).with_system(
            extra_ec_sites=TWO_EXTRA_SITES, enable_ic_pull=True
        )
        env = CloudBurstEnvironment(spec.system)
        env.pretrain_qrsm(*training_data(spec))
        trace = env.run(build_workload(spec), make_scheduler("Op", env))
        pulled = [st for st in env._states.values() if st.record.rescheduled]
        assert any(
            st.site == 2 and st.record.placement == Placement.IC for st in pulled
        )
        assert all(r.completed for r in trace.records)
        # A pulled job runs on the IC and never uploads.
        for st in pulled:
            assert st.record.machine.startswith("ic-")
            assert st.record.upload_start is None
