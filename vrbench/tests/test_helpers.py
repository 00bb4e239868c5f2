"""Tests of the benchmark's own helpers: tail percentile, self time, failures."""

import pytest

from vrbench.stats import OpLog, tail_or_max, tail_percentile
from vrbench.tracing import Span, Tracer, outermost, self_times


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    samples = list(range(100))
    pct, value = tail_percentile(samples)
    assert value == 89
    assert sum(1 for v in samples if v > value) == 10
    assert pct == pytest.approx(90.0)


def test_tail_percentile_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0, 12.0]
    pct, value = tail_percentile(samples)
    assert value == 2.0
    assert pct == pytest.approx(300.0 / 13)


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (pytest.approx(100.0 / 11), 0)
    assert tail_or_max([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_or_max(list(range(20))) == (100.0, 19)
    assert tail_or_max(list(range(21))) == (pytest.approx(1100.0 / 21), 10)


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.child", 1.0, 3.0, 0, 0),
        Span("b.child", 2.0, 5.0, 0, 0),      # overlaps the first child
        Span("c.grandchild", 2.5, 3.5, 2, 0),
        Span("b.child", 9.0, 12.0, 0, 0),     # runs past the parent's end
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 4.0 - 1.0)   # union [1, 5] plus [9, 10]
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(2.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)


def test_outermost_skips_spans_nested_in_the_same_group():
    spans = [
        Span("sampling.mask", 0.0, 4.0, -1, 0),
        Span("sampling.mask", 1.0, 2.0, 0, 0),
        Span("recon.x", 5.0, 9.0, -1, 0),
        Span("sampling.mask", 6.0, 7.0, 2, 0),
    ]
    assert outermost(spans, {"sampling.mask"}, lambda idx: True) == (2, pytest.approx(5.0))


def test_tracer_nests_spans_under_the_request_root():
    tracer = Tracer()
    with tracer.new_request("op"):
        idx = tracer.open("recon.x")
        tracer.add("recon.pi_flop", 7)
        tracer.close(idx)
    root, child = tracer.spans
    assert (root.name, root.parent, child.parent) == ("bench.op", -1, 0)
    assert root.request == child.request == 0
    assert tracer.total("recon.pi_flop", tracer.requests(("op",))) == 7


def test_oplog_counts_raised_and_gated_failures_once_per_op():
    log = OpLog()

    def boom():
        raise RuntimeError("broken")

    assert log.run(lambda: 1) == (0, 1)
    assert log.run(boom) == (1, None)
    op_id, _ = log.run(lambda: 2)
    log.check(op_id, ["gate a", "gate b"])
    log.check(0, [])
    assert (log.attempted, log.failed) == (3, 2)
    assert log.error_rate == pytest.approx(2 / 3)
    assert len(log.latencies) == 3
    assert len(log.errors) == 3


def test_instrument_wraps_imported_names_and_restores_them():
    import numpy as np

    from vrmsi import pipeline, recon
    from vrbench.tracing import Probe, instrument

    orig = recon.rsos_bins
    tracer = Tracer()
    with instrument(tracer, [Probe(recon, "rsos_bins", "recon.rsos")]):
        assert pipeline.rsos_bins is recon.rsos_bins is not orig
        with tracer.new_request("op"):
            pipeline.rsos_bins(np.ones((2, 3, 3)))
    assert pipeline.rsos_bins is orig and recon.rsos_bins is orig
    assert [s.name for s in tracer.spans] == ["bench.op", "recon.rsos"]
