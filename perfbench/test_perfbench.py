"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest perfbench
"""
import copy
import json
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads


def table(spans_list, names):
    """Self/total times of spans given as (name, parent index, start, end)."""
    fids = [names.index(s[0]) for s in spans_list]
    parents = [s[1] for s in spans_list]
    starts = [s[2] for s in spans_list]
    ends = [s[3] for s in spans_list]
    calls, own, total = spans.self_times(fids, parents, starts, ends, len(names))
    return {n: (calls[k], own[k], total[k]) for k, n in enumerate(names)}


def test_self_time_nested_sibling_and_zero_length():
    names = ["outer", "mid", "leaf", "empty"]
    got = table([
        ("outer", -1, 0.0, 10.0),
        ("mid", 0, 1.0, 5.0),      # child of outer
        ("leaf", 1, 2.0, 3.0),     # nested: child of mid
        ("leaf", 1, 3.0, 4.5),     # sibling of the first leaf
        ("empty", 0, 6.0, 6.0),    # zero-length child of outer
        ("mid", 0, 7.0, 9.0),      # second child of outer, no children
        ("empty", -1, 11.0, 11.0),  # zero-length root
    ], names)
    assert got["outer"] == (1, 10.0 - 4.0 - 0.0 - 2.0, 10.0)
    assert got["mid"] == (2, (4.0 - 1.0 - 1.5) + 2.0, 6.0)
    assert got["leaf"] == (2, 2.5, 2.5)
    assert got["empty"] == (2, 0.0, 0.0)


def test_total_time_counts_recursion_once():
    names = ["f", "g"]
    got = table([
        ("f", -1, 0.0, 8.0),
        ("g", 0, 1.0, 7.0),
        ("f", 1, 2.0, 6.0),   # f again, below its own earlier span
        ("f", -1, 9.0, 10.0),  # a later root after the path has unwound
    ], names)
    assert got["f"] == (3, (8.0 - 6.0) + 4.0 + 1.0, 8.0 + 1.0)
    assert got["g"] == (1, 6.0 - 4.0, 6.0)


def test_self_times_sum_to_root_durations():
    names = ["a", "b"]
    got = table([
        ("a", -1, 0.0, 4.0), ("b", 0, 0.5, 1.0), ("b", 0, 1.0, 3.0),
        ("a", 2, 1.5, 2.5), ("b", -1, 5.0, 5.25),
    ], names)
    assert sum(v[1] for v in got.values()) == pytest.approx(4.0 + 0.25)


def test_tracer_rebinds_every_copy_and_keeps_caches():
    import dickson
    from dickson import fp_poly, invariants, steenrod, verify

    original = fp_poly.poly_mul
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        wrapped = fp_poly.poly_mul
        assert wrapped is not original and wrapped.__wrapped__ is original
        for ns in (dickson, invariants, steenrod, verify):
            assert ns.poly_mul is wrapped
        dickson.dickson_Q.cache_clear()
        before = dickson.dickson_Q.cache_info()
        q = dickson.dickson_Q(2, 1, 3)
        assert dickson.dickson_Q(2, 1, 3) is q
        after = dickson.dickson_Q.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)
        result = verify.run_case(verify.CaseSpec("main", 3, 2, s=1, i=3))
        assert result.passed and not result.skipped
    finally:
        restore()
    assert fp_poly.poly_mul is original and steenrod.poly_mul is original
    got = tracer.table()
    assert got["verify.run_case"][0] == 1
    assert got["fp_poly.poly_mul"][0] > 0
    assert tracer.counts["fp_poly.poly_mul.term_pairs"] > 0
    assert got["verify.run_case"][2] >= got["steenrod.st_delta_via_main"][2]


REF = speed.REFERENCE_PROBE_S


def test_reference_span_at_the_reference_speed_is_busy_time():
    ticks = [(float(t), REF) for t in range(10)]
    [(busy, ref)] = speed.reference_spans(ticks, [(2.0, 6.5)])
    assert busy == pytest.approx(4.5 - 5 * REF)   # the probes at 2..6 are removed
    assert ref == pytest.approx(busy)


def test_reference_span_averages_speed_and_ignores_one_slow_probe():
    # Half the span at the reference speed, half at half of it.
    ticks = [(float(t), REF if t < 10 else 2 * REF) for t in range(20)]
    (busy, ref), (slow_busy, slow_ref) = speed.reference_spans(ticks, [(0.0, 20.0), (12.0, 15.0)])
    assert ref == pytest.approx(busy * 0.75)
    assert slow_ref == pytest.approx(slow_busy * 0.5)
    # One probe hit by an interrupt is smoothed away.
    ticks = [(float(t), 50 * REF if t == 4 else REF) for t in range(10)]
    [(busy, ref)] = speed.reference_spans(ticks, [(0.0, 10.0)])
    assert ref == pytest.approx(busy)


def test_reference_span_without_a_probe_inside_uses_the_last_one():
    ticks = [(0.0, REF), (1.0, 4 * REF)]
    [(busy, ref)] = speed.reference_spans(ticks, [(1.5, 1.7)])
    assert busy == pytest.approx(0.2)
    assert ref == pytest.approx(0.2 * 2 / 5)   # median of REF and 4 REF
    with pytest.raises(ValueError):
        speed.reference_spans(ticks, [(-2.0, -1.0)])


def test_speed_probe_ticks_while_started():
    probe = speed.SpeedProbe(interval=0.01)
    probe.start()
    try:
        deadline = speed.time.monotonic() + 0.2
        while speed.time.monotonic() < deadline:
            pass
    finally:
        probe.stop()
    count = len(probe.ticks)
    assert count >= 5
    assert all(d > 0 for _, d in probe.ticks)
    speed.time.sleep(0.05)
    assert len(probe.ticks) == count


def pinned_and_reports(workload="default-grid"):
    pinned = workloads.load_pinned(workload)
    reports = [{
        "sign_flag": pinned["sign_flag"],
        "seed": workloads.grid_seed(7),
        "cases": [dict(c, elapsed_ms=1.0) for c in pinned["cases"]],
    }]
    return pinned, reports


def test_pinned_comparison_accepts_its_own_report():
    pinned, reports = pinned_and_reports()
    assert workloads.compare(pinned, reports, 7) == (522, 0, [])


@pytest.mark.parametrize("change", [
    ("witness", "x1^1"),     # a changed witness
    ("flagged", False),      # a lost flag
    ("passed", False),       # a failure
    ("skipped", True),       # a skip
])
def test_pinned_comparison_catches_a_perturbed_case(change):
    pinned, reports = pinned_and_reports()
    flagged = next(k for k, c in enumerate(reports[0]["cases"]) if c["flagged"])
    reports[0]["cases"][flagged][change[0]] = change[1]
    attempted, failed, notes = workloads.compare(pinned, reports, 7)
    assert (attempted, failed) == (522, 1)
    assert notes and f"case {flagged}:" in notes[0]


def test_pinned_comparison_counts_missing_extra_and_report_fields():
    pinned, reports = pinned_and_reports()
    short = copy.deepcopy(reports)
    del short[0]["cases"][-3:]
    assert workloads.compare(pinned, short, 7)[:2] == (522, 3)
    long = copy.deepcopy(reports)
    long[0]["cases"].append(dict(long[0]["cases"][0]))
    assert workloads.compare(pinned, long, 7)[:2] == (523, 1)
    assert workloads.compare(pinned, reports, 8)[:2] == (522, 1)


def test_pins_have_the_expected_shape():
    sizes = {"default-grid": 522, "stretch-main": 108, "stretch-closed": 87}
    for name, size in sizes.items():
        pinned = workloads.load_pinned(name)
        cases = pinned["cases"]
        assert len(cases) == size and pinned["sign_flag"] == 1
        assert all(c["passed"] and not c["skipped"] for c in cases)
    flags = {name: [(c["p"], c["n"], c["s"]) for c in workloads.load_pinned(name)["cases"]
                    if c["flagged"]] for name in sizes}
    assert flags == {"default-grid": [(3, 2, 1), (5, 2, 1)], "stretch-main": [],
                     "stretch-closed": [(3, 3, 1), (3, 3, 2)]}


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
