"""One measured process.

    python3 perfbench/child.py MODE WORKLOAD SEED

Starts the speed probe (see ``speed``) and times ``import dickson`` first,
before anything else is imported, then runs the workload and prints one JSON
line.  Untraced times are given in reference seconds.  MODE is

  setup      import only;
  cold-warm  run the grid with empty caches, then again with full ones;
  cold       run the grid once;
  traced     run the grid once with every public function wrapped.

Every grid run is checked against the workload's pinned report.
"""
import time

import speed

PROBE = speed.SpeedProbe()
PROBE.start()
PROBE_STARTED = time.monotonic()

import dickson  # noqa: E402,F401  (the import is what ``setup_s`` measures)

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CACHED = ("bracket", "dickson_Q", "P_coef", "R_coef")


def _check(pinned: dict, reports: list, seed: int, out: dict) -> None:
    attempted, failed, notes = workloads.compare(pinned, reports, seed)
    out["attempted"] += attempted
    out["failed"] += failed
    for note in notes:
        print(f"mismatch: {note}", file=sys.stderr)


def traced_metrics(tracer: spans.Tracer, hits: dict) -> dict:
    """Per-layer metrics of one traced run; see BENCHMARK.json for each."""
    table = tracer.table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(table.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    pairs = counts.get("fp_poly.poly_mul.term_pairs", 0)
    m = {
        "fp_poly.poly_mul.calls": calls("fp_poly.poly_mul"),
        "fp_poly.poly_mul.self_s": self_s("fp_poly.poly_mul"),
        "fp_poly.poly_mul.term_pairs": pairs,
        "fp_poly.poly_mul.out_ratio":
            counts.get("fp_poly.poly_mul.out_terms", 0) / pairs if pairs else 0.0,
        "fp_poly.exact_div.calls": calls("fp_poly.exact_div"),
        "fp_poly.exact_div.self_s": self_s("fp_poly.exact_div"),
        "fp_poly.exact_div.quotient_terms": counts.get("fp_poly.exact_div.quotient_terms", 0),
        "fp_poly.frobenius.self_s": self_s("fp_poly.frobenius"),
        "fp_poly.add_sub.self_s":
            self_s("fp_poly.poly_add", "fp_poly.poly_sub", "fp_poly.poly_scale"),
        "fp_poly.poly_pow.calls": calls("fp_poly.poly_pow"),
        "fp_poly.poly_pow.self_s": self_s("fp_poly.poly_pow"),
        "fp_poly.substitute_linear.calls": calls("fp_poly.substitute_linear"),
        "fp_poly.substitute_linear.self_s": self_s("fp_poly.substitute_linear"),
        "fp_poly.max_terms": tracer.max_terms,
        "invariants.invariant_space_dimension.calls":
            calls("invariants.invariant_space_dimension"),
        "invariants.invariant_space_dimension.self_s":
            self_s("invariants.invariant_space_dimension"),
        "invariants.gl_generators.matrices": counts.get("invariants.gl_generators.matrices", 0),
        "invariants.recursion_rhs.total_s": total_s("invariants.recursion_rhs"),
        "steenrod.st_delta.calls": calls("steenrod.st_delta"),
        "steenrod.st_delta.self_s": self_s("steenrod.st_delta"),
        "steenrod.st_delta.in_terms": counts.get("steenrod.st_delta.in_terms", 0),
        "verify.run_case.self_s": self_s("verify.run_case"),
        "verify.grid_cases.total_s": total_s("verify.grid_cases"),
        "verify.emit_report.total_s": total_s("verify.emit_report"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for fn in CACHED:
        h, lookups = hits[fn]
        m[f"invariants.{fn}.self_s"] = self_s(f"invariants.{fn}")
        m[f"invariants.{fn}.hit_ratio"] = h / lookups if lookups else 0.0
    for fn in ("st_delta_via_main", "st_delta_via_dl2", "corollary_rhs",
               "smith_switzer_value", "sign_convention_flag"):
        m[f"steenrod.{fn}.total_s"] = total_s(f"steenrod.{fn}")
    return m


def main(mode: str, workload: str, seed: int) -> dict:
    """Run MODE; untraced times are in reference seconds, and ``raw_wall_s``
    is the cold run's wall time less its probes."""
    if mode == "traced":
        PROBE.stop()
    [(busy, ref)] = PROBE.spans([(PROBE_STARTED, IMPORTED_AT)])
    # The parent scales the whole set-up time, interpreter start included,
    # by the speed measured during the import.
    out = {"imported_at": IMPORTED_AT, "import_probes_s": (IMPORTED_AT - PROBE_STARTED) - busy,
           "import_speed": ref / busy, "attempted": 0, "failed": 0}
    if mode == "setup":
        return out
    pinned = workloads.load_pinned(workload)
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
        infos = {fn: getattr(dickson, fn).cache_info() for fn in CACHED}
    start, end, reports = workloads.run_timed(workload, seed)
    _check(pinned, reports, seed, out)
    if mode == "traced":
        out["wall_s"] = end - start
        hits = {}
        for fn in CACHED:
            after = getattr(dickson, fn).cache_info()
            h = after.hits - infos[fn].hits
            hits[fn] = (h, h + after.misses - infos[fn].misses)
        out["layers"] = traced_metrics(tracer, hits)
        return out
    [(out["raw_wall_s"], out["wall_s"])] = PROBE.spans([(start, end)])
    # Each case's elapsed_ms includes the probes that ran inside it.  Cases
    # run one after another, so their spans are laid end to end from the
    # grid's start; the small gaps between them shift later spans by far
    # less than the probes are smoothed over.
    windows, at = [], start
    for elapsed in workloads.case_seconds(reports):
        windows.append((at, at + elapsed))
        at += elapsed
    out["case_s"] = [ref for _, ref in PROBE.spans(windows)]
    out["family_s"] = workloads.seconds_by_family(reports, out["case_s"])
    if mode == "cold-warm":
        start, end, reports = workloads.run_timed(workload, seed)
        _check(pinned, reports, seed, out)
        [(out["warm_raw_s"], out["warm_wall_s"])] = PROBE.spans([(start, end)])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("setup", "cold-warm", "cold", "traced"):
        sys.exit(__doc__)
    result = main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
    if sys.argv[1] != "traced":
        PROBE.stop()
    print(json.dumps(result))
