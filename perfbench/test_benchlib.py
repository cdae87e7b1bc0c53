"""Unit tests of the benchmark's own helpers (no workload is run)."""

import json
from pathlib import Path

import pytest

from benchlib import (
    covered_length,
    intersection_length,
    percentile,
    samples_beyond,
    self_times,
    supported_percentile,
    valid_name,
    valid_unit,
)
from tracing import OP_SPAN, Tracer, layer_metrics, layer_table, unattributed_pct

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (5.0, 6.0, 0), (2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # A parent waiting on two parallel children: their union is 3, not 5.
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 4.0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_self_time_clips_children_to_parent():
    spans = [(0.0, 2.0, -1), (1.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_interval_union_and_intersection():
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert intersection_length([(0, 4), (6, 8)], [(3, 7)]) == pytest.approx(2.0)


def test_percentile_interpolates_like_numpy():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 95) == pytest.approx(4.8)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert supported_percentile(list(range(199)), 95) is None
    assert supported_percentile(list(range(200)), 95) == pytest.approx(percentile(range(200), 95))


def test_name_and_unit_charset():
    assert valid_name("qaoa.fast_backend.amplitudes_per_s")
    assert valid_name("op_latency_p50_ms")
    assert not valid_name("_hidden")
    assert not valid_name("a b")
    assert not valid_name("x" * 65)
    assert valid_unit("1/s") and valid_unit("%") and valid_unit("evals/iter")
    assert not valid_unit("–") and not valid_unit("x" * 17)


def test_declared_metrics_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert valid_name(metric["name"]), metric
            assert valid_unit(metric["unit"]), metric
        names += [metric["name"] for metric in SPEC[kind]]
    assert len(names) == len(set(names))


def test_layer_metrics_cover_the_declared_per_layer_set():
    from tracing import service_metrics

    produced = set(layer_metrics({}, Tracer().counters, 0, {})) | set(service_metrics(None))
    produced |= {"trace.overhead_pct", "trace.unattributed_pct"}
    assert produced == {metric["name"] for metric in SPEC["per_layer"]}


def test_tracer_nests_spans_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", "layer.outer")
    tracer.patch(Layer, "inner", "layer.inner")
    tracer.enabled = True
    assert tracer.op(0, Layer().outer) == 2
    tracer.enabled = False
    tracer.unpatch()
    assert Layer.__dict__["outer"] is original
    rows = tracer.export()
    assert [row[0] for row in rows] == [OP_SPAN, "layer.outer", "layer.inner"]
    assert [row[3] for row in rows] == [-1, 0, 1]
    assert all(row[4] == 0 for row in rows)
    table = layer_table(rows)
    assert table["layer.outer"]["count"] == 1
    assert unattributed_pct(rows) >= 0.0
