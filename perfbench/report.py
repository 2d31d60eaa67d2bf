"""Print every end-to-end and per-layer metric of the benchmark, and save them.

Usage, from the root of a checkout:

    python3 perfbench/report.py --seed N [--out perfbench/out/report.json]

For every workload it makes one untraced run and one traced run (see run.py),
each as long as ``run_seconds`` in BENCHMARK.json.  It prints each metric by
name with its unit, and writes the same figures, with the seed, nproc, the
Python version and the sample counts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=str(run.HERE / "out" / "report.json"))
    args = parser.parse_args()
    problem = run.check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in workloads.WORKLOADS:
        entry = {}
        for trace, part in ((False, "end_to_end"), (True, "per_layer")):
            samples = run.measure(workload, args.seed, seconds, trace)
            try:
                result = run.summarize(samples, trace)
            except RuntimeError as exc:
                print(f"perfbench: {workload}: {exc}", file=sys.stderr)
                return 1
            metrics = result["metrics"]
            if not trace:
                ratio = result["failed"] / result["attempted"]
                metrics["fail_ratio"] = {"value": ratio, "unit": "ratio"}
            entry[part] = metrics
            entry[f"{part}_checks"] = {
                key: result[key] for key in ("correct", "attempted", "failed", "failures")
            }
            entry[f"{part}_environment"] = run.environment(args.seed, samples)
        report[workload] = entry
        for part in ("end_to_end", "per_layer"):
            env = entry[f"{part}_environment"]
            print(f"{workload} {part}: samples {env['samples']}, seed {env['seed']},"
                  f" nproc {env['nproc']}, python {env['python']}")
            for name, metric in entry[part].items():
                print(f"  {name:44s} {metric['value']:16.6g} {metric['unit']}")
            for failure in entry[f"{part}_checks"]["failures"]:
                print(f"  failure: {failure}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if all(e[f"{p}_checks"]["correct"] for e in report.values() for p in ("end_to_end", "per_layer")) else 1


if __name__ == "__main__":
    sys.exit(main())
