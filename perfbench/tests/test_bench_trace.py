"""The harness: traced runs (wrappers, spans, self times), request costs, metric names."""

import json
import sys
from pathlib import Path

import layertrace
import refkernel
import run
import workloads
from falkkit import cli, exterior, graphs

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "falkkit" or name.startswith("falkkit.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _traced_client(tmp_path, workload="corpus_small", count=3):
    client = run.Client(cli, workloads.cases(workload, 1)[:count], tmp_path)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        client.run_pass(tracer)
    finally:
        tracer.uninstall()
    return client, tracer


def test_wrappers_cover_every_caller_binding_and_are_restored(tmp_path):
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.parse is not before[("falkkit.graphs", "parse")]
        assert cli.parse is graphs.parse
        assert exterior.rank.__wrapped__ is before[("falkkit.exterior", "rank")]
        changed = {key for key, value in _bindings().items() if value is not before[key]}
        assert {("falkkit.falk", "validate"), ("falkkit.patterns", "validate"),
                ("falkkit.cli", "verify"), ("falkkit.patterns", "all_circles_small")} <= changed
    finally:
        tracer.uninstall()
    assert _bindings() == before
    _traced_client(tmp_path)
    assert _bindings() == before


def test_self_times_sum_to_each_root_span(tmp_path):
    client, tracer = _traced_client(tmp_path)
    assert not client.failures
    own = tracer.self_times()
    roots = [i for i, s in enumerate(tracer.spans) if s.parent is None]
    assert [tracer.spans[i].name for i in roots] == ["cli.main"] * 3
    for i in roots:
        request = tracer.spans[i].request
        subtree = sum(o for s, o in zip(tracer.spans, own) if s.request == request)
        assert abs(subtree - tracer.spans[i].duration) < 1e-9
    assert all(o >= 0 for o in own)


def test_rank_rows_are_counted(tmp_path):
    _, tracer = _traced_client(tmp_path, "rank_bm", 1)
    metrics = tracer.layer_metrics()
    # B3: 16 dependent triples on 9 edges; dim_I2, F3 and I3_2 each eliminate once
    assert metrics["exterior.rank_calls"] == 3
    assert metrics["exterior.rows"] == 16 + 16 * 6 + 16 * 9
    assert metrics["patterns.induced_subgraph_calls"] == 0
    assert metrics["graphs.validate_calls"] == 1


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads(BENCHMARK.read_text())
    _, tracer = _traced_client(tmp_path)
    layer = set(tracer.layer_metrics()) | {"trace.pass_s", "trace.overhead_ratio", "trace.accounted_ratio"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_costs_divide_latencies_by_the_surrounding_kernel_times(tmp_path, monkeypatch):
    assert refkernel.run() == 1452
    client = run.Client(cli, workloads.cases("corpus_small", 1)[:5], tmp_path)
    monkeypatch.setattr(run, "KERNEL_GAP", 1e9)  # one kernel before and one after the pass
    latencies, costs = client.run_pass()
    assert not client.failures and len(latencies) == len(costs) == 5
    scales = [lat / cost for lat, cost in zip(latencies, costs)]
    assert max(scales) - min(scales) < 1e-12 * max(scales)
