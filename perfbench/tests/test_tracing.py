import math

import pytest

import tracing
from tracing import Span, Tracer, alive_rep_steps, layer_metrics, percentile, self_times


def test_self_time_subtracts_children():
    # root [0, 10] has children [1, 3] and [4, 8]; the second has a child [5, 6]
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 4.0, 8.0, parent=0),
        Span("c", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 2.0, 6.0, parent=0),
        Span("b", 4.0, 7.0, parent=0),  # overlaps a on [4, 6]
        Span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_errors():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with pytest.raises(KeyError):
            with tr.span("failing"):
                raise KeyError("x")
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [("outer", None), ("inner", 0), ("failing", 0)]
    assert tr.spans[2].attrs["error"] == "KeyError"
    assert self_times(tr.spans)[0] == tr.spans[0].duration - 1.0 - 1.0


def test_percentile_nearest_rank():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(vals, 50) == 3.0
    assert percentile(vals, 90) == 5.0
    assert percentile([], 90) == 0.0


def test_alive_rep_steps():
    # 4 replications, horizon 100, records at 25/50/75/100; one diverges in (25, 50]
    assert alive_rep_steps([25, 50, 75, 100], [0, 1, 1, 1], 4, 100) == 4 * 25 + 3 * 75
    # records stop before the horizon: the tail counts the survivors
    assert alive_rep_steps([40, 80], [0, 0], 2, 100) == 200


def test_layer_metrics_on_hand_built_tree():
    spans = [
        Span("engine.run_mse", 0.0, 10.0, attrs={"rep_steps": 1000, "alive_rep_steps": 900}),
        Span("problems.sample", 1.0, 3.0, parent=0, attrs={"draws": 1000, "bytes": 4000}),
        Span("problems.sample", 4.0, 5.0, parent=0, attrs={"draws": 1, "bytes": 40}),
        Span("tuner.tune", 10.0, 10.002, attrs={"horizon": 160, "halvings": 3}),
        Span("tuner.tune", 11.0, 11.004, attrs={"horizon": 160, "error": "NoStableStepSizeError"}),
        Span("cli.transform", 20.0, 21.0, attrs={"exit": 0}),
        Span("transform.transform_moments", 20.1, 20.9, parent=5),
        Span("problems.sample", 20.2, 20.6, parent=6, attrs={"draws": 500, "bytes": 100}),
        Span("cli.tune", 22.0, 22.5, attrs={"exit": 3}),
    ]
    m = layer_metrics(spans)
    assert set(m) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}
    assert m["engine.run_mse_s"] == pytest.approx(10.0)
    assert m["engine.self_s"] == pytest.approx(7.0)
    assert m["engine.draws_per_rep_step"] == pytest.approx(1.001)
    assert m["engine.alive_frac"] == pytest.approx(0.9)
    assert m["engine.ns_per_rep_step"] == pytest.approx(1e7)
    assert m["problems.draws"] == 1501
    assert m["problems.sample_mb"] == pytest.approx(4140 / 1e6)
    assert m["transform.mc_draws"] == 500
    assert m["tuner.calls"] == 2 and m["tuner.aborts"] == 1 and m["tuner.halvings"] == 3
    assert m["tuner.p90_ms"] == pytest.approx(4.0)
    assert m["cli.transform_ms"] == pytest.approx(1000.0)
    assert m["cli.nonzero_exits"] == 1
    assert m["cli.td_ms"] == 0.0  # layers the pass never entered read 0


def test_patch_wraps_every_binding_and_restores():
    import lsalab
    import lsalab.cli
    import lsalab.engine

    original = lsalab.engine.run_mse
    tr = Tracer()
    with tr.patch():
        assert lsalab.cli.run_mse is lsalab.engine.run_mse is lsalab.run_mse
        assert lsalab.cli.run_mse.__wrapped__ is original
        p = lsalab.cli.make_fig1_problem(2.0)
        curve = lsalab.cli.run_mse(p, lsalab.RunConfig(alpha=0.01, horizon=50, n_replications=3))
    assert lsalab.cli.run_mse is original and lsalab.engine.run_mse is original
    assert math.isfinite(curve.mse[-1])
    names = [s.name for s in tr.spans]
    assert names[0] == "problems.construct" and "engine.run_mse" in names
    runs = [s for s in tr.spans if s.name == "engine.run_mse"]
    assert runs[0].attrs["rep_steps"] == 150
    # the probe draw plus one 50-step chunk per replication
    draws = [s.attrs["draws"] for s in tr.spans if s.name == "problems.sample"]
    assert draws == [1, 50, 50, 50]
