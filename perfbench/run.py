"""Benchmark of the arcact CLI: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|enum|chartable|poly \
        --seed N --seconds S --trace 0|1

Closed loop, one client: the run starts one fresh child process at a time
(child.py) and waits for it, until the next child would end past --seconds.
Each child runs the whole workload once, cold.  With --trace 0 the run also
starts a few children that only set up, and reports the end-to-end metrics
as medians over its children.  With --trace 1 it alternates untraced and
traced children and reports the per-layer metrics, medians over the traced
children, and the tracing overhead.

The end-to-end times (setup_s, wall_s, items_per_s) and trace.overhead_s are
in reference seconds.  The speed of a shared host drifts by tens of percent
over minutes, mostly as gaps of a few milliseconds in which the process does
not run at all; the guest's CPU-time accounting does not see them.  So every
child times a fixed pure-Python loop, the probe, every 0.1 s of its timed
body (child.Probe; a set-up-only child probes right after set-up), and
scales its times by PROBE_REF_S / its mean probe time: they become the times
the child would take on a host where the probe takes PROBE_REF_S.  The mean,
not the minimum, because the gaps that slow the probes slow the body alike.
The probes' own time is left out of every time the child reports.
Raw wall and mean probe times are printed for each child.  The per-layer
times are not scaled, but leave the probes out as well.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it describe each child.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# Children that only import arcact and build the argvs, so that setup_s is a
# median of several set-ups even when few whole workloads fit in a run.
SETUP_RUNS = 20
HARD_LIMIT_S = 170  # a run must end within 180 s
# A round figure near the mean probe time (child.probe_loop) on an idle host
# where the benchmark was defined (2-core x86-64, Python 3.11).  Only its
# constancy matters.
PROBE_REF_S = 0.006

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _spawn(workload: str, seed: int, trace: bool, setup_only: bool, timeout: float) -> dict:
    """Run one child and return its result, with spawn-to-ready and duration."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s", "duration": time.monotonic() - spawned}
    duration = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "duration": duration}
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return {"error": f"child printed no result: {lines[-1][:200]}", "duration": duration}
    result["setup_s"] = result["ready"] - spawned
    result["duration"] = duration
    result["traced"] = trace
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run children for about `seconds` and return every child's result."""
    start = time.monotonic()
    setups = []
    if not trace:
        setups = [_spawn(workload, seed, False, True, 60) for _ in range(SETUP_RUNS)]
    children = []
    while True:
        traced = trace and len(children) % 2 == 1
        done = [c["duration"] for c in children if c.get("traced", False) == traced] or [
            c["duration"] for c in children
        ]
        elapsed = time.monotonic() - start
        minimum = 2 if trace else 1
        if len(children) >= minimum and elapsed + max(done) > seconds:
            break
        remaining = HARD_LIMIT_S - elapsed
        if remaining < 5:
            break
        children.append(_spawn(workload, seed, traced, False, remaining))
    return {"setups": setups, "children": children}


def summarize(samples: dict, trace: bool) -> dict:
    """The result object: correctness counts and the metrics of the run."""
    children = samples["children"]
    ok = [c for c in children if "error" not in c]
    untraced = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    failures = [c["error"] for c in samples["setups"] + children if "error" in c]
    attempted = len(failures) + sum(c["attempted"] for c in ok)
    for c in ok:
        failures.extend(f"{name}: {detail}" for name, detail in c["failures"])
    if untraced:
        for c in traced:
            attempted += 1
            if c["digests"] != untraced[0]["digests"]:
                failures.append("traced run changed the output digests")
    if not untraced or (trace and not traced):
        raise RuntimeError("no child completed: " + "; ".join(failures[:3]))

    median = statistics.median

    def ref(c, key):
        """c[key] in reference seconds (see the module docstring)."""
        return c[key] * PROBE_REF_S / statistics.fmean(c["probe_s"])

    if trace:
        # median_low keeps counts whole: it is always one child's value.
        metrics = {
            name: {"value": statistics.median_low(c["layers"][name] for c in traced), "unit": unit}
            for name, (unit, _) in layers.PER_LAYER.items()
            if name != "trace.overhead_s"
        }
        overhead = median(ref(c, "wall_s") for c in traced) - median(ref(c, "wall_s") for c in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups = [c for c in samples["setups"] + children if "error" not in c]
        values = {
            "setup_s": median(ref(c, "setup_s") for c in setups),
            "wall_s": median(ref(c, "wall_s") for c in untraced),
            "items_per_s": median(c["items"] / ref(c, "wall_s") for c in untraced),
            "peak_rss_mb": median(c["peak_rss_mb"] for c in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
    }


def environment(seed: int, samples: dict) -> dict:
    children = samples["children"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "samples": {
            "untraced": sum(1 for c in children if not c.get("traced", False)),
            "traced": sum(1 for c in children if c.get("traced", False)),
            "setup_only": len(samples["setups"]),
        },
    }


def check_checkout() -> str | None:
    """Why the program cannot be benchmarked here, or None."""
    if not (ROOT / "src" / "arcact" / "cli.py").is_file():
        return f"no arcact sources under {ROOT / 'src'}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for c in samples["setups"] + samples["children"]:
        if "error" in c:
            print(f"child failed: {c['error']}")
        elif "wall_s" in c:
            print(f"child traced={int(c['traced'])} raw_wall_s={c['wall_s']:.4f}"
                  f" probe_s={statistics.fmean(c['probe_s']):.5f}"
                  f" raw_setup_s={c['setup_s']:.4f}"
                  f" peak_rss_mb={c['peak_rss_mb']:.1f} items={c['items']} failures={len(c['failures'])}")
            if c["failures"] and c["stderr"]:
                print(f"child stderr: {c['stderr']}")
    try:
        result = summarize(samples, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in result.pop("failures")[:20]:
        print(f"failure: {failure}")
    print("environment: " + json.dumps(environment(args.seed, samples)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
