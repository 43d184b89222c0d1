"""Tests for the benchmark's own code: span arithmetic, seeding, the oracle."""

import json
from pathlib import Path

import ops
import run
import spans

ORACLE = json.loads(Path(run.ORACLE).read_text())
CHEAP = ops.cli("asym", "--family", "node_count_growth")


def _nested() -> spans.SpanTable:
    #  cli.main      0 ........................ 100
    #    paths.gen_skew   10 ......... 40          (returns 7 paths)
    #      series.PowerSeries.__mul__  15 .. 25
    #    paths.levels                      50 .. 60
    #  trees.<import> 100 .. 103 (no parent)
    t = spans.SpanTable(op=3)
    root = t.add("cli.main", 0, 100)
    gen = t.add("paths.gen_skew", 10, 40, parent=root, size=7)
    t.add("series.PowerSeries.__mul__", 15, 25, parent=gen, size=12)
    t.add("paths.levels", 50, 60, parent=root, error=1)
    t.add("trees.<import>", 100, 103)
    return t


def test_self_time_subtracts_direct_children_only():
    assert list(spans.self_times(_nested())) == [60, 20, 10, 10, 3]


def test_layer_metrics_on_synthetic_spans():
    m, shares = spans.layer_metrics([_nested()])
    assert round(m["cli.self_s"] * 1e9) == 60
    assert round(m["paths.self_s"] * 1e9) == 30
    assert round(m["trees.self_s"] * 1e9) == 3
    # levels is called from cli, so it crosses into paths; both paths spans
    # have a cli parent, and the import span is not a call.
    assert (m["cli.calls"], m["paths.calls"], m["series.calls"], m["trees.calls"]) == (1, 2, 1, 0)
    assert m["paths.errors"] == 1 and m["cli.errors"] == 0
    assert m["paths.objects"] == 7 and m["paths.stat_calls"] == 1
    assert m["series.mul"] == 1 and m["series.max_order"] == 12
    assert {layer: round(s, 9) for layer, s in shares.items()} == {
        **{layer: 0.0 for layer in spans.LAYERS}, "cli": 0.6, "paths": 0.3, "series": 0.1}


def test_span_table_survives_the_byte_transfer():
    t = _nested()
    back = spans.SpanTable.from_bytes(t.header(), t.to_bytes())
    assert back.names == t.names and back.cols == t.cols and back.op == 3


def test_same_seed_same_operations_other_seed_other_order():
    for w in ops.WORKLOADS:
        first = [ops.key(op) for op in ops.choose(w, 7)]
        assert first == [ops.key(op) for op in ops.choose(w, 7)]
        assert first != [ops.key(op) for op in ops.choose(w, 8)]
        assert len(first) == len(ops.groups(w))


def test_every_operation_a_seed_can_draw_has_a_recorded_digest():
    assert {ops.key(op) for op in ops.every_op()} <= set(ORACLE)


def test_corrupted_digest_is_a_failure_not_a_skip():
    expected = ORACLE[ops.key(CHEAP)]
    good = run.run_op(CHEAP, 0, False, expected, timeout=60)
    assert "failure" not in good and good["digest"] == expected["digest"]
    bad = run.run_op(CHEAP, 0, False, {**expected, "digest": "0" * 64}, timeout=60)
    assert bad["failure"] == "output differs from the recorded digest"
    result = run.summarise("ladders", 0, [CHEAP], [{
        "trace": False, "scale": 1.0, "wall_s": 1.0, "compute_s": 1.0, "setups": [0.1],
        "peak_rss_mb": 20.0, "raw": {"wall_s": 1.0, "compute_s": 1.0, "setups": [0.1]},
        "records": [good, bad]}])
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_boundary_spans_leave_outputs_identical():
    op = ops.cli("check", "--family", "skew")
    expected = ORACLE[ops.key(op)]
    plain = run.run_op(op, 0, False, expected, timeout=60)
    traced = run.run_op(op, 0, True, expected, timeout=60)
    assert "failure" not in plain and "failure" not in traced
    assert plain["digest"] == traced["digest"] == expected["digest"]
    m, _ = spans.layer_metrics([traced["spans"]])
    assert m["cli.calls"] == 1 and m["paths.objects"] > 0 and m["series.calls"] > 0
    assert all(m[f"{layer}.self_s"] > 0 for layer in spans.LAYERS)
    assert set(m) | {"trace.overhead_s"} == set(run.PER_LAYER)
