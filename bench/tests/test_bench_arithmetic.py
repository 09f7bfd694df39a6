"""The benchmark's own arithmetic: percentiles with their sample counts,
self time from nested spans, ratios with their base, and the patches that
must tolerate a vanished call site.

Run with `python3 -m pytest bench/tests`."""
import statistics
import types

import pytest

from spans import Patches, Tracer
from stats import hit_ratio, median, percentile


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_percentile_interpolates_and_counts_samples():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    p50 = percentile(values, 50)
    assert (p50.value, p50.samples, p50.beyond) == (3.0, 5, 2)
    assert percentile(values, 25).value == 2.0
    assert percentile(values, 90).value == pytest.approx(4.6)
    assert percentile(values, 100).value == 5.0
    assert median(values) == statistics.median(values)


def test_percentile_tail_needs_a_thousand_samples_for_ten_beyond_p99():
    values = [float(i) for i in range(1000)]
    p99 = percentile(values, 99)
    assert p99.samples == 1000
    assert p99.value == pytest.approx(989.01)
    assert p99.beyond == 10
    assert percentile(values[:100], 99).beyond == 1


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_children_but_not_grandchildren_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("outer")
    clock.now = 1.0
    child = tracer.enter("child")
    clock.now = 2.0
    grandchild = tracer.enter("grandchild")
    clock.now = 4.0
    tracer.exit(grandchild)
    clock.now = 5.0
    tracer.exit(child)
    clock.now = 10.0
    tracer.exit(outer)
    stats = tracer.stats
    assert (stats["outer"].total_s, stats["outer"].self_s) == (10.0, 6.0)
    assert (stats["child"].total_s, stats["child"].self_s) == (4.0, 2.0)
    assert (stats["grandchild"].total_s, stats["grandchild"].self_s) == (2.0, 2.0)
    assert stats["outer"].calls_with_children == 1
    assert stats["grandchild"].calls_with_children == 0


def test_recursive_span_counts_its_interval_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("gen")
    clock.now = 1.0
    inner = tracer.enter("gen")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    st = tracer.stats["gen"]
    assert (st.calls, st.total_s, st.self_s) == (2, 4.0, 4.0)


def test_wrapped_call_records_a_span_even_when_it_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.stats["boom"].calls == 1
    assert tracer.wrap("ok", lambda a, b=1: a + b)(1, b=2) == 3


def test_hit_ratio_reports_its_base():
    ratio = hit_ratio(lookups=1235, misses=342)
    assert ratio.base == 1235
    assert ratio.value == pytest.approx(893 / 1235)
    assert hit_ratio(0, 0) is None
    with pytest.raises(ValueError):
        hit_ratio(3, 4)


def test_patches_skip_missing_names_and_restore_in_reverse():
    module = types.SimpleNamespace(f=lambda: "f")
    patches = Patches()
    assert not patches.replace(module, "gone", lambda fn: fn)
    assert patches.replace(module, "f", lambda fn: lambda: "outer " + fn())
    assert patches.replace(module, "f", lambda fn: lambda: "twice " + fn())
    assert module.f() == "twice outer f"
    patches.restore()
    assert module.f() == "f"
    assert not hasattr(module, "gone")


def test_layer_missing_from_the_program_is_reported_absent(monkeypatch):
    from factorspec import estimator
    from layers import ClampCounter, LayerTrace

    monkeypatch.delattr(estimator, "js_divergence_masses")
    trace = LayerTrace(ClampCounter())
    trace.install()
    trace.restore()
    metrics = trace.metrics()
    assert metrics["divergence.js_s"] == (None, "s")
    assert metrics["divergence.js_calls"] == (None, "count")
    assert metrics["model_spectrum.curve_calls"] == (0, "count")
    assert metrics["estimator.cache_hit_ratio"] == (None, "ratio")
    assert not hasattr(estimator, "js_divergence_masses")


def test_step_factor_is_active_only_in_windows_that_straddle_its_edge():
    from workloads import step_factors_active

    step = types.SimpleNamespace(onset=500, offset=None)
    assert step_factors_active([step], end=499, length=250, t=899) == 0
    assert step_factors_active([step], end=500, length=250, t=899) == 1
    assert step_factors_active([step], end=748, length=250, t=899) == 1
    assert step_factors_active([step], end=749, length=250, t=899) == 0
    pulse = types.SimpleNamespace(onset=100, offset=200)
    assert step_factors_active([pulse], end=300, length=250, t=899) == 1
    assert step_factors_active([pulse], end=449, length=250, t=899) == 1
    assert step_factors_active([pulse, step], end=450, length=250, t=899) == 0


def test_score_rates_have_their_bases():
    from workloads import score

    rows = [(10, 0, 0.5), (20, 1, 0.4), (30, 0, 0.3), (40, 2, 0.5)]
    q = score(rows, {10: 0, 20: 1, 30: 0, 40: 0}, b_true=0.5)
    assert (q.p_correct_rate, q.scored_windows) == (0.75, 4)
    assert q.noise_windows == 3
    assert q.b_mae == pytest.approx(0.2 / 3)
    assert score(rows[1:2], {20: 1}, b_true=0.5).b_mae is None
