"""The benchmark's workloads, run in-process through dickson's public API.

Every workload is a fixed grid of verification cases.  The benchmark seed
reaches the program only as the grid seed (``GridConfig.seed``, or
``--seed`` on the command line), which picks the randomized bracket
prefixes of the ``recursion`` family; no verdict depends on it.

This module imports only the standard library at the top, so that a child
process can time ``import dickson`` on its own.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

PINNED_DIR = Path(__file__).resolve().parent / "expected"

# The fields of a report case that must match the pinned copy exactly.
CASE_FIELDS = ("theorem", "p", "n", "s", "i", "d",
               "passed", "skipped", "flagged", "witness")

# ``stretch-main`` as GridConfig keyword arguments, one report each.
# (3,3) main at i = 7 is left out: one such case takes about 20 s, more
# than the rest of the grid together.
STRETCH_MAIN: Tuple[dict, ...] = (
    dict(theorems=("main", "det-formula"), pairs=((3, 3),), i_max=6),
    dict(theorems=("main", "det-formula"), pairs=((2, 4),), i_max=6),
    dict(theorems=("main", "det-formula"), pairs=((5, 3),), i_max=4),
)

# ``stretch-closed`` likewise.  (5,3) cor-n2 (15.6 s for s = 0) and (5,3)
# kernel above i = 4 (up to 38.6 s a case) are left out.
STRETCH_CLOSED: Tuple[dict, ...] = (
    dict(theorems=("cor-n1", "cor-n2", "cor-n3", "kernel", "invariance", "recursion"),
         pairs=((3, 3),)),
    dict(theorems=("cor-n1", "cor-n2", "kernel", "invariance", "recursion"), pairs=((2, 4),)),
    dict(theorems=("kernel", "invariance"), pairs=((5, 3),), i_max=4),
)

STRETCH = {"stretch-main": STRETCH_MAIN, "stretch-closed": STRETCH_CLOSED}
WORKLOADS = ("default-grid", "stretch-main", "stretch-closed")


def grid_seed(seed: int) -> int:
    """The benchmark seed folded into the 64-bit range the CLI accepts."""
    return seed % 2 ** 64


def _run_grid(workload: str, seed: int) -> List[str]:
    """The workload's JSON reports.  ``default-grid`` is the report of
    ``dickson-verify --format json --seed S``, the one every user sees."""
    if workload == "default-grid":
        from dickson import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--format", "json", "--seed", str(grid_seed(seed))])
        if code != 0:
            raise RuntimeError(f"dickson-verify exited with {code}")
        return [out.getvalue()]
    from dickson import GridConfig, emit_report, run_grid

    return [emit_report(run_grid(GridConfig(seed=grid_seed(seed), **kw)), "json")
            for kw in STRETCH[workload]]


def run_timed(workload: str, seed: int) -> Tuple[float, float, List[dict]]:
    """Run the workload's grid and serialize its reports; return the
    ``time.monotonic`` start and end of that and the parsed reports
    (parsing is not timed)."""
    start = time.monotonic()
    texts = _run_grid(workload, seed)
    end = time.monotonic()
    return start, end, [json.loads(t) for t in texts]


def strip_case(case: dict) -> dict:
    return {k: case.get(k) for k in CASE_FIELDS}


def pinned_path(workload: str) -> Path:
    return PINNED_DIR / f"{workload}.json"


def load_pinned(workload: str) -> dict:
    with open(pinned_path(workload), encoding="utf-8") as handle:
        return json.load(handle)


def pin_reports(reports: List[dict]) -> dict:
    """The pinned form of a workload's reports: every case without its
    timing, and the report-level sign flag."""
    flags = {r["sign_flag"] for r in reports}
    if len(flags) != 1:
        raise ValueError(f"reports disagree on the sign flag: {sorted(flags)}")
    return {
        "sign_flag": flags.pop(),
        "cases": [strip_case(c) for r in reports for c in r["cases"]],
    }


def compare(pinned: dict, reports: List[dict], seed: int) -> Tuple[int, int, List[str]]:
    """Check reports against the pinned copy.

    Returns (attempted, failed, notes).  A case counts as failed when it
    is missing, extra, or differs from its pinned entry in any field: a
    failure, a skip, a lost or new flag and a changed witness all count.
    A report whose sign flag or seed is wrong adds one failure.
    """
    expected = pinned["cases"]
    got = [strip_case(c) for r in reports for c in r["cases"]]
    notes = []
    failed = 0
    for k in range(max(len(expected), len(got))):
        want = expected[k] if k < len(expected) else None
        have = got[k] if k < len(got) else None
        if want != have:
            failed += 1
            if len(notes) < 5:
                notes.append(f"case {k}: expected {want}, got {have}")
    for r in reports:
        if r["sign_flag"] != pinned["sign_flag"] or r["seed"] != grid_seed(seed):
            failed += 1
            notes.append(f"report sign_flag {r['sign_flag']} seed {r['seed']}")
    return max(len(expected), len(got)), failed, notes


def seconds_by_family(reports: List[dict], seconds: List[float]) -> Dict[str, float]:
    """Per-case ``seconds``, in report order, summed by theorem."""
    out: Dict[str, float] = {}
    cases = [c for r in reports for c in r["cases"]]
    for c, t in zip(cases, seconds):
        out[c["theorem"]] = out.get(c["theorem"], 0.0) + t
    return out


def case_seconds(reports: List[dict]) -> List[float]:
    """Each case's ``elapsed_ms`` in seconds, in report order."""
    return [c["elapsed_ms"] / 1000.0 for r in reports for c in r["cases"]]
