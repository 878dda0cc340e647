"""The dickson benchmark: verification grids, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``, nothing needs installing.  Each sample is a fresh, single-threaded
``python3 perfbench/child.py`` process.  Samples run in batches of one per
CPU (at most two) until the next batch would end after S seconds; at least
one batch is always taken.

--trace 0 reports the end-to-end metrics, each the median over the run's
samples.  Times are in reference seconds: each child measures how fast its
CPU runs while it is timed, and corrects for it (see ``speed``).  A sample
runs the grid with empty caches (``wall_s``) and again in the same process
with full ones (``warm_wall_s``); once such a sample no longer fits,
cold-only samples add to ``wall_s``.  ``setup_s`` is the
time from starting a process to ``import dickson`` returning; besides the
samples, a few processes that only import are started for it.

--trace 1 reports the per-layer metrics.  A sample is one untraced cold
process, whose report gives the per-family times, and one process with
every public function of dickson's modules wrapped in a span recorder.

Every grid run is compared with the workload's pinned report in
``perfbench/expected``.  The last line of output is one JSON object; the
exit code is 0 only when every verdict matched.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low
from typing import Dict, List, Optional

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "child.py"

SETUP_PROBES = 5
# Children run this many at a time, one per CPU.  The speed of each CPU of
# a shared machine wanders by tens of percent over seconds to minutes, and
# independently of the others, so a run samples every CPU it may use.
WORKERS = min(2, len(os.sched_getaffinity(0)))
GRID_RUNS = {"setup": 0, "cold": 1, "traced": 1, "cold-warm": 2}
# No process may outlive this many seconds, and no run this many: a case
# that runs away is killed, and its grid counts as failed.
CHILD_CAP_S = 120.0
RUN_CAP_S = 170.0
# Removed from the children's environment, so every run uses the default.
TERM_BUDGET_ENV = "DICKSON_TERM_BUDGET"

END_TO_END = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slowest_case_s": "s",
}

FAMILIES = ("main", "smith-switzer", "recursion", "det-formula", "routes-agree",
            "cor-n1", "cor-n2", "cor-n3", "kernel", "invariance", "hilbert", "q0-power")

# Per-layer metrics in the order they are printed.  Units are s, count or
# ratio, from the name's last part.
PER_LAYER = (
    "fp_poly.poly_mul.calls", "fp_poly.poly_mul.self_s",
    "fp_poly.poly_mul.term_pairs", "fp_poly.poly_mul.out_ratio",
    "fp_poly.exact_div.calls", "fp_poly.exact_div.self_s",
    "fp_poly.exact_div.quotient_terms",
    "fp_poly.frobenius.self_s", "fp_poly.add_sub.self_s",
    "fp_poly.poly_pow.calls", "fp_poly.poly_pow.self_s",
    "fp_poly.substitute_linear.calls", "fp_poly.substitute_linear.self_s",
    "fp_poly.max_terms",
    "invariants.invariant_space_dimension.calls",
    "invariants.invariant_space_dimension.self_s",
    "invariants.gl_generators.matrices",
    "invariants.bracket.self_s", "invariants.bracket.hit_ratio",
    "invariants.dickson_Q.self_s", "invariants.dickson_Q.hit_ratio",
    "invariants.P_coef.self_s", "invariants.P_coef.hit_ratio",
    "invariants.R_coef.self_s", "invariants.R_coef.hit_ratio",
    "invariants.recursion_rhs.total_s",
    "steenrod.st_delta.calls", "steenrod.st_delta.self_s", "steenrod.st_delta.in_terms",
    "steenrod.st_delta_via_main.total_s", "steenrod.st_delta_via_dl2.total_s",
    "steenrod.corollary_rhs.total_s", "steenrod.smith_switzer_value.total_s",
    "steenrod.sign_convention_flag.total_s",
    *(f"verify.family.{t}.s" for t in FAMILIES),
    "verify.run_case.self_s", "verify.grid_cases.total_s", "verify.emit_report.total_s",
    "cli.main.self_s",
    "trace.wall_s", "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last == "s" or last.endswith("_s"):
        return "s"
    return "ratio" if last.endswith("ratio") else "count"


class Run:
    """The samples of one benchmark run and the verdict counts behind them."""

    def __init__(self, workload: str, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.cases = len(workloads.load_pinned(workload)["cases"])
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop(TERM_BUDGET_ENV, None)
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.setup: List[float] = []

    def spawn(self, modes: List[str]) -> Optional[List[dict]]:
        """Run one child per mode, up to WORKERS at once, and return their
        samples.  A child that fails or outlives its cap counts all of its
        grid runs' cases as failed, and then None is returned."""
        samples: List[dict] = []
        for first in range(0, len(modes), WORKERS):
            batch = modes[first:first + WORKERS]
            start = time.monotonic()
            procs = [subprocess.Popen(
                [sys.executable, str(CHILD), mode, self.workload, str(self.seed)],
                stdout=subprocess.PIPE, env=self.env, cwd=str(HERE.parent))
                for mode in batch]
            for mode, proc in zip(batch, procs):
                sample = self._collect(mode, proc, start)
                if sample is not None:
                    samples.append(sample)
        return None if self.broken else samples

    def _collect(self, mode: str, proc: subprocess.Popen, start: float) -> Optional[dict]:
        left = self.started + RUN_CAP_S - time.monotonic()
        try:
            out, _ = proc.communicate(timeout=max(1.0, min(CHILD_CAP_S, left)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{mode} child killed after its time cap", file=sys.stderr)
            out = b""
        if proc.returncode != 0 or not out.strip():
            grid_runs = GRID_RUNS[mode]
            self.broken = True
            self.attempted += grid_runs * self.cases
            self.failed += grid_runs * self.cases
            return None
        sample = json.loads(out.splitlines()[-1])
        sample["mode"] = mode
        self.setup.append((sample["imported_at"] - start - sample["import_probes_s"])
                          * sample["import_speed"])
        self.attempted += sample["attempted"]
        self.failed += sample["failed"]
        return sample


def slowest_case(samples: List[dict]) -> float:
    """The largest per-case time, each case taken at its median over the
    samples."""
    return max(median(t) for t in zip(*(s["case_s"] for s in samples)))


def measure_end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    """Batches of samples until the next batch would end after ``seconds``:
    cold-warm children while a batch of them fits, then cold-only ones for
    more ``wall_s``."""
    if run.spawn(["setup"] * SETUP_PROBES) is None:
        return {}
    samples: List[dict] = []
    took: Dict[str, float] = {}
    mode: Optional[str] = "cold-warm"
    while mode is not None:
        began = time.monotonic()
        batch = run.spawn([mode] * WORKERS)
        if batch is None:
            return {}
        samples += batch
        took[mode] = time.monotonic() - began
        if "cold" not in took:
            took["cold"] = took[mode] - min(s["warm_raw_s"] for s in batch)
        left = run.started + seconds - time.monotonic()
        mode = next((m for m in ("cold-warm", "cold") if took[m] <= left), None)
    both = [s for s in samples if s["mode"] == "cold-warm"]
    print(f"{run.workload}: {len(samples)} cold samples, {len(both)} warm, "
          f"{len(run.setup)} setup, {WORKERS} at a time; uncorrected median wall "
          f"{median([s['raw_wall_s'] for s in samples]):.3f} s cold, "
          f"{median([s['warm_raw_s'] for s in both]):.3f} s warm")
    return {
        "wall_s": median([s["wall_s"] for s in samples]),
        "warm_wall_s": median([s["warm_wall_s"] for s in both]),
        "setup_s": median(run.setup),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in both]),
        "slowest_case_s": slowest_case(samples),
    }


def measure_layers(run: Run, seconds: float) -> Dict[str, float]:
    """Pairs of an untraced and a traced cold child until the next pair
    would end after ``seconds``."""
    pairs: List[List[dict]] = []
    while True:
        began = time.monotonic()
        pair = run.spawn(["cold", "traced"])
        if pair is None:
            return {}
        pairs.append(pair)
        now = time.monotonic()
        if now + (now - began) > run.started + seconds:
            break
    print(f"{run.workload}: {len(pairs)} untraced and traced pairs")
    # median_low keeps a count a whole number.
    metrics = {name: median_low([p[1]["layers"][name] for p in pairs])
               for name in pairs[0][1]["layers"]}
    for family in FAMILIES:
        metrics[f"verify.family.{family}.s"] = median(
            [p[0]["family_s"].get(family, 0.0) for p in pairs])
    # Wall seconds, not reference seconds: the traced child runs no probe.
    metrics["trace.wall_s"] = median([p[1]["wall_s"] for p in pairs])
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - median([p[0]["raw_wall_s"] for p in pairs]))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "dickson" / "__init__.py").is_file():
        print(f"no dickson sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, started)
    metrics = (measure_layers if args.trace else measure_end_to_end)(run, args.seconds)
    names = PER_LAYER if args.trace else tuple(END_TO_END)
    units = {n: layer_unit(n) for n in PER_LAYER} if args.trace else END_TO_END
    names = [n for n in names if n in metrics]
    for name in names:
        print(f"{args.workload:<15} {name:<45} {metrics[name]:>14.6g} {units[name]}")
    correct = run.failed == 0 and not run.broken
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
