"""Tests for the latency-anatomy report and the runner integration."""

import pytest

from repro.api import open_device
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.obs import AnatomyReport, Observability
from repro.sim.engine import Simulator
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import run_job


def run_traced_job(rw="randrw", io_count=60, engine=IoEngineKind.PSYNC,
                   iodepth=1, completion=CompletionMethod.INTERRUPT):
    obs = Observability()
    with obs:
        sim = Simulator()
        device = open_device(sim, "ull", precondition=0.5)
        stack = KernelStack(sim, device, completion=completion)
        job = FioJob(
            name="traced", rw=rw, engine=engine,
            iodepth=iodepth, io_count=io_count,
        )
        result = run_job(sim, stack, job)
    return result, obs


class TestAnatomyReport:
    def test_aggregate_conservation(self):
        _result, obs = run_traced_job()
        report = AnatomyReport.from_tracer(obs.tracer)
        report.check_conservation()
        assert report.io_count == 60

    def test_breakdown_sums_to_mean_latency(self):
        _result, obs = run_traced_job()
        report = AnatomyReport.from_tracer(obs.tracer)
        total = sum(report.breakdown_us().values())
        assert total == pytest.approx(report.mean_latency_us)

    def test_shares_sum_to_one(self):
        _result, obs = run_traced_job()
        report = AnatomyReport.from_tracer(obs.tracer)
        assert sum(report.share(name) for name in report.names) == pytest.approx(1.0)

    def test_op_filter_partitions_totals(self):
        _result, obs = run_traced_job()
        full = AnatomyReport.from_tracer(obs.tracer)
        reads = AnatomyReport.from_tracer(obs.tracer, op="read")
        writes = AnatomyReport.from_tracer(obs.tracer, op="write")
        assert reads.io_count + writes.io_count == full.io_count
        assert (
            reads.total_latency_ns + writes.total_latency_ns
            == full.total_latency_ns
        )

    def test_render_lists_every_phase(self):
        _result, obs = run_traced_job()
        report = AnatomyReport.from_tracer(obs.tracer)
        text = report.render()
        for name in report.names:
            assert name in text
        assert "latency anatomy over 60 I/Os" in text

    def test_empty_tracer(self):
        report = AnatomyReport.from_tracer(Observability().tracer)
        report.check_conservation()
        assert report.io_count == 0 and report.mean_latency_us == 0.0

    def test_leak_detected(self):
        broken = AnatomyReport(
            rows=(), io_count=1, total_latency_ns=500
        )
        with pytest.raises(AssertionError):
            broken.check_conservation()


class TestJobResultHook:
    def test_anatomy_available_when_traced(self):
        result, _obs = run_traced_job()
        report = result.anatomy()
        assert report is not None
        report.check_conservation()
        # The anatomy's mean must equal the recorder's mean: both sides
        # measure the same 60 I/Os.
        assert report.mean_latency_us == pytest.approx(
            result.latency.mean_us, rel=1e-9
        )

    def test_anatomy_filters_by_op(self):
        result, _obs = run_traced_job()
        reads = result.anatomy(op="read")
        assert reads.io_count == result.read_latency.count

    def test_anatomy_none_without_tracing(self):
        sim = Simulator()
        device = open_device(sim, "ull", precondition=0.5)
        stack = KernelStack(sim, device)
        job = FioJob(name="plain", rw="randread", io_count=20)
        result = run_job(sim, stack, job)
        assert result.obs is None
        assert result.anatomy() is None

    def test_async_engine_traces_conserve(self):
        result, obs = run_traced_job(
            rw="randread", engine=IoEngineKind.LIBAIO, iodepth=4, io_count=80
        )
        from repro.obs import verify_conservation

        assert verify_conservation(obs.tracer) == 80
        assert result.anatomy().io_count == 80

    def test_metrics_reach_registry(self):
        _result, obs = run_traced_job(rw="randread", io_count=30)
        assert obs.registry.get("io.reads").value == 30
        assert obs.registry.get("io.latency_us").count == 30
        assert obs.registry.get("nvme.sq.submitted").value == 30


class TestDisabledPathUnchanged:
    def test_summary_identical_with_and_without_tracing(self):
        def summary(traced):
            if traced:
                result, _obs = run_traced_job(rw="randread", io_count=40)
            else:
                sim = Simulator()
                device = open_device(sim, "ull", precondition=0.5)
                stack = KernelStack(sim, device)
                job = FioJob(name="plain", rw="randread", io_count=40)
                result = run_job(sim, stack, job)
            latency = result.latency
            return (latency.mean_us, latency.p99_us, result.duration_ns)

        assert summary(True) == summary(False)
