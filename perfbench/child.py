"""One measured run of one workload, in a fresh interpreter.

Started by run.py, never imported.  It imports ``arcact`` from the
checkout's ``src``, builds the workload's command lines, then calls
``arcact.cli.main(argv)`` for each of them with stdout sent to an in-memory
digest.  The timed body is the sum of those calls; between them, untimed,
each output is reduced to what the checks need.  Every cache of the program
is an unbounded ``lru_cache`` and a CLI user pays the cold cost on each
invocation, so each run is a new process and the caches must be empty when
the timed body starts.

All through the timed body it times a fixed pure-Python loop that does not
touch arcact (see Probe).  The parent uses those times to express wall times
in seconds of a host running at reference speed (see run.py).

Prints one JSON object on the real stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads


# One probe: a fixed pure-Python loop that does not touch arcact, about 5 ms
# on an idle 2-core x86-64 host.  Long enough to span a few of the host's
# scheduling gaps, short enough to sample the body many times.
PROBE_ITERS = 25_000
PROBE_INTERVAL_S = 0.1
MIN_PROBES = 5  # a set-up, or a body too short for the timer, is probed this often


def probe_loop() -> float:
    """Seconds the probe loop takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(PROBE_ITERS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


class Probe:
    """Samples the host's speed all through the timed body.

    A real-time interval timer runs the probe loop every PROBE_INTERVAL_S.
    ``clock()`` is a perf_counter that stops while a probe runs, so the
    probes add nothing to the wall time or to the traced spans.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe_loop())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop once set up")
    args = parser.parse_args()
    root = Path(args.root)

    src = root / "src"
    sys.path.insert(0, str(src))
    import arcact
    import arcact.cli
    from arcact import families, unitriangular

    if not Path(arcact.__file__).resolve().is_relative_to(src.resolve()):
        print(f"arcact imported from {arcact.__file__}, not from {src}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed, root)
    # Guard against warm runs: the timed body must start with empty caches.
    warm = {
        "families._enumerated": families._enumerated.cache_info().currsize,
        "unitriangular.build_chartable": unitriangular.build_chartable.cache_info().currsize,
    }
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "probe_s": [probe_loop() for _ in range(MIN_PROBES)]}))
        return 0

    probe = Probe()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install(probe.clock)

    outcomes = []
    errors = io.StringIO()
    wall = 0.0
    with probe:
        for cmd in cmds:
            outcome = workloads.Outcome(cmd, workloads.Sink(cmd))
            start = probe.clock()
            with contextlib.redirect_stdout(outcome.sink), contextlib.redirect_stderr(errors):
                try:
                    outcome.exit_code = arcact.cli.main(list(cmd.argv))
                except SystemExit as exc:
                    outcome.exit_code = exc.code
                except Exception as exc:  # a crash is a failed item, not a harness error
                    outcome.error = f"{type(exc).__name__}: {exc}"
            wall += probe.clock() - start
            workloads.settle(outcome)  # untimed: parse what the checks need, drop the text
            outcomes.append(outcome)
    probe.samples += [probe_loop() for _ in range(MIN_PROBES - len(probe.samples))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Read the spans before the checks below call into arcact themselves.
    traced = tracer and layers.collect(tracer, workloads.EXPECTED["verify_ids"])

    checks = [
        (f"warm cache {name}", size == 0, f"currsize {size}") for name, size in warm.items()
    ]
    for outcome in outcomes:
        checks.extend(workloads.check(outcome))
    digests = {outcome.command.key: outcome.digest for outcome in outcomes}
    result = {
        "ready": ready,
        "wall_s": wall,
        "probe_s": probe.samples,
        "peak_rss_mb": peak_rss_mb,
        "items": workloads.items_done(args.workload, outcomes),
        "attempted": len(checks),
        "failures": [[name, detail] for name, ok, detail in checks if not ok],
        "stderr": errors.getvalue()[-2000:],
        "digests": digests,
    }
    if traced:
        result["layers"] = traced
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
