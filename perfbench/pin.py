"""Write the pinned report of each workload from the current program.

    PYTHONPATH=src python3 perfbench/pin.py [WORKLOAD ...]

Run this only when a verdict is meant to change; the benchmark checks every
run against these files.
"""
import json
import sys

import workloads


def main(names) -> None:
    for name in names or workloads.WORKLOADS:
        *_, reports = workloads.run_timed(name, 0)
        pinned = workloads.pin_reports(reports)
        lines = [json.dumps(c, sort_keys=True) for c in pinned["cases"]]
        with open(workloads.pinned_path(name), "w", encoding="utf-8") as handle:
            handle.write(f'{{"sign_flag": {pinned["sign_flag"]}, "cases": [\n')
            handle.write(",\n".join(lines) + "\n]}\n")
        cases = pinned["cases"]
        print(f"{name}: {len(cases)} cases, "
              f"{sum(c['flagged'] for c in cases)} flagged, "
              f"{sum(not c['passed'] or c['skipped'] for c in cases)} failed or skipped")


if __name__ == "__main__":
    main(sys.argv[1:])
