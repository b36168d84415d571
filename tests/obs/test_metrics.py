"""Typed metrics: deterministic keys, merging, deltas."""

import pytest

from repro.errors import ReproError
from repro.obs import (
    Histogram,
    MetricRegistry,
    merge_payloads,
    metric_key,
    subtract_payloads,
)


class TestMetricKey:
    def test_plain_name(self):
        assert metric_key("cache.hits") == "cache.hits"

    def test_labels_sorted(self):
        assert (metric_key("x", {"b": 1, "a": 2})
                == metric_key("x", {"a": 2, "b": 1})
                == "x{a=2,b=1}")


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(4)
        assert registry.snapshot()["counters"]["n"] == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ReproError):
            MetricRegistry().counter("n").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricRegistry()
        registry.gauge("workers").set(4)
        registry.gauge("workers").set(2)
        assert registry.snapshot()["gauges"]["workers"] == 2

    def test_counter_total_sums_labels(self):
        registry = MetricRegistry()
        registry.counter("spice.retries", phase="dc", rung=1).inc(2)
        registry.counter("spice.retries", phase="transient", rung=1).inc(3)
        registry.counter("spice.retries.other").inc(100)  # prefix, not label
        assert registry.counter_total("spice.retries") == 5

    def test_name_type_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")


class TestHistogram:
    def test_bucketing_and_mean(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 7.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1]
        assert hist.count == 4
        assert hist.mean == pytest.approx(62.5 / 4)

    def test_payload_round_trip(self):
        hist = Histogram((1.0, 10.0))
        hist.observe(3.0)
        clone = Histogram.from_payload(hist.to_payload())
        assert clone.to_payload() == hist.to_payload()

    def test_merge_requires_equal_edges(self):
        with pytest.raises(ReproError):
            Histogram((1.0,)).merge(Histogram((2.0,)))

    def test_registry_edge_conflict_raises(self):
        registry = MetricRegistry()
        registry.histogram("t", edges=(1.0, 2.0))
        with pytest.raises(ReproError):
            registry.histogram("t", edges=(1.0, 3.0))

    def test_bad_edges_raise(self):
        with pytest.raises(ReproError):
            Histogram(())
        with pytest.raises(ReproError):
            Histogram((2.0, 1.0))


def _payload(units, seconds):
    registry = MetricRegistry()
    registry.counter("units").inc(units)
    for value in seconds:
        registry.histogram("seconds", edges=(0.1, 1.0)).observe(value)
    return registry.snapshot()


class TestPayloadAlgebra:
    def test_merge_associative_and_commutative(self):
        a = _payload(1, [0.05])
        b = _payload(2, [0.5, 0.5])
        c = _payload(4, [5.0])
        left = merge_payloads(merge_payloads(a, b), c)
        right = merge_payloads(a, merge_payloads(b, c))
        assert left == right
        assert merge_payloads(a, b) == merge_payloads(b, a)
        assert left["counters"]["units"] == 7
        assert left["histograms"]["seconds"]["counts"] == [1, 2, 1]

    def test_integer_values_merge_as_integers(self):
        merged = merge_payloads({"counters": {"x": 5}, "gauges": {"g": 3}},
                                {"counters": {"x": 7, "y": 0.5}})
        assert merged["counters"] == {"x": 12, "y": 0.5}
        assert type(merged["counters"]["x"]) is int
        assert type(merged["gauges"]["g"]) is int

    def test_subtract_drops_zero_deltas(self):
        registry = MetricRegistry()
        registry.counter("a").inc(3)
        registry.counter("b").inc(1)
        mark = registry.mark()
        registry.counter("a").inc(2)
        delta = registry.delta_since(mark)
        assert delta["counters"] == {"a": 2}
        assert delta["histograms"] == {}

    def test_subtract_rejects_edge_change(self):
        before = _payload(0, [0.5])
        after = dict(before)
        after["histograms"] = {
            "seconds": {"edges": [0.2, 1.0], "counts": [0, 1, 0],
                        "sum": 0.5, "count": 1},
        }
        with pytest.raises(ReproError):
            subtract_payloads(after, before)

    def test_mark_delta_merge_reconstructs(self):
        """A worker-style mark/delta round trip loses nothing."""
        registry = MetricRegistry()
        registry.counter("units").inc(5)
        mark = registry.mark()
        registry.counter("units").inc(2)
        registry.histogram("seconds", edges=(0.1, 1.0)).observe(0.5)
        parent = MetricRegistry()
        parent.merge(mark)
        parent.merge(registry.delta_since(mark))
        assert parent.snapshot() == registry.snapshot()


class TestTransactionalMerge:
    """A rejected payload must leave the registry untouched.

    The pre-fix ``merge`` mutated while iterating: a payload whose
    *second* entry was malformed had already applied its first, so a
    worker delta could land half-absorbed -- exactly the skew the
    worker-invariance guarantee forbids.
    """

    def _seeded(self):
        registry = MetricRegistry()
        registry.counter("units").inc(5)
        registry.gauge("level").set(2.0)
        registry.histogram("seconds", edges=(0.1, 1.0)).observe(0.5)
        return registry, registry.snapshot()

    def test_nonnumeric_counter_rejects_whole_payload(self):
        registry, before = self._seeded()
        with pytest.raises(ReproError):
            registry.merge({"counters": {"units": 1.0, "bad": "NaN-ish?"},
                            "gauges": {"level": 9.0}})
        assert registry.snapshot() == before

    def test_histogram_edge_mismatch_rejects_whole_payload(self):
        registry, before = self._seeded()
        with pytest.raises(ReproError):
            registry.merge({
                "counters": {"units": 3.0},
                "histograms": {
                    "seconds": {"edges": [0.2, 2.0], "counts": [1, 0, 0],
                                "sum": 0.1, "count": 1},
                },
            })
        assert registry.snapshot() == before, \
            "counter applied despite the histogram rejection"

    def test_bad_histogram_shape_rejects_whole_payload(self):
        registry, before = self._seeded()
        with pytest.raises(ReproError):
            registry.merge({
                "gauges": {"level": 7.0},
                "histograms": {"seconds": {"edges": [0.1, 1.0]}},
            })
        assert registry.snapshot() == before

    def test_cross_type_conflict_rejects_whole_payload(self):
        registry, before = self._seeded()
        with pytest.raises(ReproError):
            registry.merge({"counters": {"fresh": 1.0, "level": 2.0}})
        assert registry.snapshot() == before, \
            "'fresh' landed although 'level' conflicted with a gauge"

    def test_valid_payload_still_applies(self):
        registry, _ = self._seeded()
        registry.merge({
            "counters": {"units": 2.0},
            "gauges": {"level": 4.0},
            "histograms": {
                "seconds": {"edges": [0.1, 1.0], "counts": [1, 0, 0],
                            "sum": 0.05, "count": 1},
            },
        })
        snap = registry.snapshot()
        assert snap["counters"]["units"] == 7.0
        assert snap["gauges"]["level"] == 4.0
        assert snap["histograms"]["seconds"]["count"] == 2

    def test_recorder_absorb_task_is_transactional(self):
        from repro.obs import Recorder

        recorder = Recorder()
        recorder.counter("units").inc(5)
        before = recorder.metrics_payload()
        with pytest.raises(ReproError):
            recorder.absorb_task({
                "metrics": {"counters": {"units": 1.0, "oops": object()}},
                "spans": [{"name": "task"}],
            })
        assert recorder.metrics_payload() == before
        assert recorder.drain_spans() == []
