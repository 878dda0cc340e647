"""The benchmark workloads, run in process, match their pinned reports.

The pins under perfbench/expected hold every case's verdict, flag and
witness; this test only reads them.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "pinned_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_matches_its_pin(workload):
    seed = 1
    pinned = workloads.load_pinned(workload)
    _, _, reports = workloads.run_timed(workload, seed)
    attempted, failed, notes = workloads.compare(pinned, reports, seed)
    assert attempted == len(pinned["cases"])
    assert (failed, notes) == (0, [])
