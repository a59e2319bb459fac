"""Tests of the benchmark itself: inputs, output checks and span arithmetic."""

import importlib
import json
import sys

import pytest

import tracer
from checks import check_extension
from conftest import ROOT
from run import END_TO_END
from tracer import Span, Tracer, aggregate, install, layer_metrics, self_times
from workloads import WORKLOADS, instance_bytes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_are_a_function_of_the_seed(name):
    first = instance_bytes(name, 7)
    assert instance_bytes(name, 7) == first
    assert instance_bytes(name, 8) != first


def test_graph_instance_passes_validate(tmp_path):
    from lipext.cli import main
    path = tmp_path / "graph.json"
    path.write_bytes(instance_bytes("verify_graph", 3))
    out = tmp_path / "validate.json"
    assert main(["validate", "--input", str(path), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] and doc["n"] == WORKLOADS["verify_graph"].n


def test_self_time_of_nested_calls():
    # root [0, 10] holds a [1, 4] (which holds a.inner [2, 3]) and b [5, 9].
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
             Span("a.inner", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nesting_and_aggregation():
    t = Tracer()
    with t.span("cli"):
        for m in (3, 4):
            with t.span("metric.lip_constant") as rec:
                rec.counters = {"pairs": m * (m - 1) // 2}
    agg = aggregate(t.spans)
    assert [s.parent for s in t.spans] == [-1, 0, 0]
    assert agg["metric.lip_constant"]["calls"] == 2
    assert agg["metric.lip_constant"]["pairs"] == 3 + 6
    children = sum(s.end - s.start for s in t.spans[1:])
    assert agg["cli"]["self_s"] == pytest.approx(
        t.spans[0].end - t.spans[0].start - children)


def test_layer_metrics_ratio_aliases_and_missing_spans():
    spans = [Span("cli", 0.0, 4.0, -1, {"report_bytes": 10}),
             Span("extension.extend_localized", 1.0, 2.0, 0, {"fallbacks": 1}),
             Span("extension.extend_localized", 2.0, 3.0, 0, {"fallbacks": 0}),
             Span("schedule.build_schedule", 3.0, 3.5, 0, {"scales": 11}),
             Span("schedule.build_schedule", 3.5, 4.0, 0, {"scales": 14})]
    got = layer_metrics(spans, trace_overhead_s=0.25)
    assert set(got) == {name for name, _, _ in tracer.PER_LAYER}
    assert got["extension.extend_localized.local_ratio"] == 0.5
    assert got["schedule.scales"] == 14
    assert got["schedule.build_schedule.calls"] == 2
    assert got["cli.report_bytes"] == 10
    assert got["cli.self_s"] == 1.0
    assert got["metric.lipa_profile.calls"] == 0
    assert got["trace_overhead_s"] == 0.25


@pytest.fixture
def restore_lipext():
    importlib.import_module("lipext.cli")
    saved = {key: dict(vars(mod)) for key, mod in sys.modules.items()
             if key == "lipext" or key.startswith("lipext.")}
    yield
    for key, attrs in saved.items():
        vars(sys.modules[key]).update(attrs)


def test_install_wraps_consumers_and_records_absent_names(
        restore_lipext, monkeypatch, tmp_path):
    layers = dict(tracer.LAYERS, metric=tracer.LAYERS["metric"] + ("gone",),
                  nomodule=("f",))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    t = Tracer()
    install(t)
    assert t.absent == {"metric.gone", "nomodule.f"}
    from lipext.cli import main
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "points": {"type": "euclidean", "coords": [[0.0], [0.5], [1.0], [2.0]]},
        "subset": [0, 2, 3], "values": [0.0, 1.0, 1.5]}))
    assert main(["validate", "--input", str(path),
                 "--output", str(tmp_path / "out.json")]) == 0
    names = [s.name for s in t.spans]
    assert names == ["metric.validate_instance", "metric.lip_constant"]
    assert t.spans[1].parent == 0
    assert t.spans[1].counters == {"pairs": 3}
    assert t.spans[0].counters["rss_mb"] > 0


def _extend_report(tmp_path):
    from lipext.cli import main
    doc = json.loads(instance_bytes("verify_cloud", 5))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "field.json"
    assert main(["extend", "--input", str(path), "--epsilon", "0.5",
                 "--queries", "all", "--output", str(out)]) == 0
    return doc, json.loads(out.read_text())


def test_extension_check_accepts_the_program_and_rejects_corruption(tmp_path):
    doc, report = _extend_report(tmp_path)
    assert check_extension(doc, report) is None
    on_c = doc["subset"][0]
    report["entries"][on_c]["value"] += 1e-9
    assert "f != g" in check_extension(doc, report)
    report["entries"][on_c]["value"] -= 1e-9
    off_c = next(i for i in range(len(report["entries"]))
                 if i not in set(doc["subset"]))
    report["entries"][off_c]["value"] += 100.0
    assert "envelopes" in check_extension(doc, report)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER)
