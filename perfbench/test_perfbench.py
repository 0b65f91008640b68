"""Self-tests of the benchmark's helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import measure
import tracing
from tracing import Span, Tracer, self_times


def _spans(*rows):
    return [Span(name, start, end, parent, None) for name, start, end, parent in rows]


def test_self_time_nested():
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("c", 1.5, 2.5, 1),
                   ("d", 4.0, 5.0, 0))
    assert self_times(spans) == pytest.approx([7.0, 1.0, 1.0, 1.0])


def test_self_time_overlapping_children_counted_once_and_clipped():
    # children overlap each other and the last one runs past its parent's end
    spans = _spans(("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0),
                   ("d", 9.0, 12.0, 0), ("e", 2.0, 5.0, 0))
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_child_outside_parent_subtracts_nothing():
    spans = _spans(("a", 0.0, 2.0, -1), ("b", 3.0, 4.0, 0))
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_percentile_nearest_rank():
    xs = list(range(1, 11))
    assert measure.percentile(xs, 50) == 5
    assert measure.percentile(xs, 90) == 9
    assert measure.percentile(reversed(range(1, 101)), 90) == 90
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def _clock(step):
    t = [0.0]

    def clock():
        t[0] += step
        return t[0]
    return clock


def test_raising_item_fails_without_aborting_the_loop():
    def run(x):
        if x % 3 == 0:
            raise ArithmeticError(f"bad {x}")
        return x

    seen = []

    def check(idx, inp, out):
        seen.append((idx, inp, out))
        return []

    # each call reads the fake clock three times: start, end, loop check
    records, wall = measure.closed_loop(run, [0, 1, 2, 3], check, 17.0, clock=_clock(1.0))
    assert [idx for idx, _, _ in records] == [0, 1, 2, 3, 0, 1]
    assert wall == 18.0
    assert seen == [(1, 1, 1), (2, 2, 2), (1, 1, 1)]  # raised calls are never checked
    tally = measure.account(records, lambda idx: 2)
    assert (tally.attempted, tally.failed) == (12, 6)
    assert tally.fail_frac == pytest.approx(6 / 12)
    assert tally.latencies == [0.5] * 3
    assert tally.problems[0] == "item 0: ArithmeticError: bad 0"


def test_failed_check_counts_against_attempted():
    records = [(0, [], 1.0), (1, ["mismatch"], 1.0), (0, [], 3.0)]
    tally = measure.account(records, lambda idx: 1)
    assert (tally.attempted, tally.failed, tally.latencies) == (3, 1, [1.0, 3.0])
    assert tally.problems == ["item 1: mismatch"]


def test_tracer_wraps_every_binding_and_restores_it():
    from trlab import checks, forms, gfq, linalg, ranks

    originals = (ranks.rref, linalg.rref, checks.zero_set_count, gfq.FieldCtx.add_arr)
    ctx = gfq.field_from_order(3)
    form = forms.gen_random(ctx, (2, 2, 2), 5)
    tracer = Tracer()
    with tracer:
        assert ranks.rref is linalg.rref is not originals[0]
        tracer.item = 7
        checks.check_suite(form, e_max=2)
    assert (ranks.rref, linalg.rref, checks.zero_set_count,
            gfq.FieldCtx.add_arr) == originals
    funcs = tracer.by_function()
    assert funcs["checks.check_suite"]["calls"] == 1
    assert funcs["ranks.zero_set_count"]["points"] > 0
    assert funcs["ranks.slice_rank_exact"]["rank_tests"] >= 1
    assert funcs["gfq.add_arr"]["elems"] > 0  # the GF(9) count runs the digit path
    assert all(s.item == 7 for s in tracer.spans)
    top = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in top] == ["checks.check_suite"]
    assert tracer.absent == []


def test_missing_function_reported_absent(monkeypatch):
    from trlab import linalg

    monkeypatch.delattr(linalg, "matmul_arr")
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.absent == ["linalg.matmul_arr"]
    values = tracing.layer_values(tracer.by_function(), tracer.absent)
    assert values["linalg.matmul_arr.calls"] == 0


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    from workloads import PencilExt

    w = PencilExt(1, tmp_path)
    pool = w.inputs()[:8]
    tables = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            for inp in pool:
                w.run(inp)
        tables.append({name: {k: v for k, v in agg.items() if k in tracing.EXACT_STATS}
                       for name, agg in tracer.by_function().items()})
    assert tables[0] == tables[1]
    assert tables[0]["linalg.batch_rank"]["mats"] > 0


def test_workload_checks_catch_a_wrong_output(tmp_path):
    from workloads import RankPrime

    w = RankPrime(0, tmp_path)
    form = w.inputs()[0]
    zero_count, a_count, a_char, sr = w.run(form)
    assert w.check(0, form, (zero_count, a_count, a_char, sr)) == []
    assert w.check(0, form, (zero_count, a_count, a_char + 1e-6, sr))
    assert w.check(1, form, (zero_count, a_count, a_char, sr))  # another item's reference
    bad = sr._replace(value=sr.value + 1)
    assert w.invariants(form, (zero_count, a_count, a_char, bad))
    assert np.isclose(a_count, a_char)


def test_throughput_windows_drop_the_partial_tail():
    records = [(i, [], 0.5) for i in range(5)]
    assert measure.account(records, lambda idx: 1, window=2).rates == [2.0, 2.0]
    records[1] = (1, ["bad"], 0.5)
    assert measure.account(records, lambda idx: 1, window=2).rates == [1.0, 2.0]
    assert measure.account(records[:1], lambda idx: 3, window=4).rates == [6.0]


def test_benchmark_json_names_what_the_code_reports():
    from workloads import WORKLOADS

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in doc["per_layer"]}
    emitted = set(tracing.layer_values({}, [])) | {"survey.csv_bytes", "trace.overhead_frac"}
    assert emitted <= per_layer
    assert all(n.startswith("probe.") for n in per_layer - emitted)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
