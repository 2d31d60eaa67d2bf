"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import functools
import json
import signal
import subprocess
import sys
import time
import types

import layers
import run
import workloads
from child import Probe
from tracer import Tracer


def _make_package(tmp_path, name):
    pkg = tmp_path / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text("def leaf(x):\n    return x + 1\n")
    (pkg / "high.py").write_text(
        "from .low import leaf\n\n\ndef caller(x):\n    return leaf(x) * 2\n"
    )
    sys.path.insert(0, str(tmp_path))
    try:
        __import__(f"{name}.high")
    finally:
        sys.path.remove(str(tmp_path))
    return sys.modules[f"{name}.low"], sys.modules[f"{name}.high"]


def test_wrapper_counts_call_through_from_imported_name(tmp_path):
    low, high = _make_package(tmp_path, "pb_from_import")
    tracer = Tracer()
    tracer.patch(low, "leaf", "low.leaf")
    tracer.patch(high, "caller", "high.caller")
    assert high.caller(1) == 4
    stats = tracer.stats_dict()
    assert stats["low.leaf"]["calls"] == 1
    assert stats["high.caller"]["calls"] == 1
    # The caller's self time excludes the span of the call it made.
    caller = stats["high.caller"]
    assert caller["self_s"] <= caller["total_s"] - stats["low.leaf"]["total_s"] + 1e-9


def test_arcact_calls_through_from_imports_are_traced():
    """cli binds enumerate_family with a from-import; identities reaches plus."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import contextlib, io, json, layers, time, arcact.cli, arcact.identities as ids\n"
        "tracer = layers.install(time.perf_counter)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    arcact.cli.main(['enum', '--family', 'NC', '--n', '3', '--group', 'Z2'])\n"
        "enum = tracer.stats_dict()['families.enumerate_family']\n"
        "assert ids.run('orbit-main', 'quick').ok\n"
        "print(json.dumps([enum, tracer.stats_dict()['action.plus']]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(run.ROOT / "src"), str(run.HERE)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    enum, plus = json.loads(out.stdout)
    assert enum["calls"] == 1 and enum["items"] == 5  # the five noncrossing partitions of 3
    assert plus["calls"] > 0


def test_generator_span_covers_iteration_only():
    now = [0.0]

    def sleep(seconds):  # advances a fake clock, so host load cannot matter
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])

    def produce():
        for i in range(3):
            sleep(2)
            yield i

    wrapped = tracer.span_wrapper("gen", produce)
    items = []
    for item in wrapped():
        sleep(5)  # the consumer's work is not the generator's
        items.append(item)
    stat = tracer.stats_dict()["gen"]
    assert items == [0, 1, 2]
    assert stat["calls"] == 1 and stat["items"] == 3
    assert stat["total_s"] == stat["self_s"] == 6


def test_probe_samples_the_body_and_leaves_its_time_out():
    handler = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        start, clock_start = time.perf_counter(), probe.clock()
        while time.perf_counter() - start < 0.35:
            pass
        wall, clocked = time.perf_counter() - start, probe.clock() - clock_start
    assert len(probe.samples) >= 2
    assert clocked <= wall - sum(probe.samples)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_generator_returned_by_plain_function_is_traced():
    tracer = Tracer()
    wrapped = tracer.span_wrapper("ret", lambda: (i for i in range(4)))
    assert list(wrapped()) == [0, 1, 2, 3]
    assert tracer.stats_dict()["ret"]["items"] == 4


def test_wrapped_lru_cache_still_reports_cache_info(monkeypatch):
    module = types.ModuleType("pb_lru")
    module.cached = functools.lru_cache(maxsize=None)(abs)
    monkeypatch.setitem(sys.modules, "pb_lru", module)
    tracer = Tracer()
    tracer.patch(module, "cached", "cached")
    assert module.cached(-1) == module.cached(-1) == 1
    assert tracer.stats_dict()["cached"]["calls"] == 2
    assert module.cached.cache_info().hits == 1


def _outcome(key, argv, text):
    command = workloads.Command(key, argv)
    outcome = workloads.Outcome(command, workloads.Sink(command), exit_code=0)
    outcome.sink.write(text)
    workloads.settle(outcome)
    return outcome


def test_digest_mismatch_is_a_failure():
    key = next(k for k in workloads.EXPECTED["digests"] if k.startswith("poly "))
    items = workloads.check(_outcome(key, ("poly",), '{"not": "the pinned payload"}\n'))
    failed = [name for name, ok, _ in items if not ok]
    assert failed == [f"{key} digest"]


def test_malformed_output_fails_without_raising():
    key = next(k for k in workloads.EXPECTED["digests"] if k.startswith("chartable "))
    items = workloads.check(_outcome(key, ("chartable",), "not json\n"))
    assert [(name, ok) for name, ok, _ in items] == [(f"{key} exit", True), (f"{key} output", False)]


def test_traced_digest_change_is_a_failure():
    child = {"attempted": 1, "failures": [], "wall_s": 1.0, "probe_s": [0.006], "setup_s": 0.1,
             "items": 1, "peak_rss_mb": 1.0, "layers": dict.fromkeys(layers.PER_LAYER, 0)}
    samples = {"setups": [], "children": [
        {**child, "traced": False, "digests": {"a": "1"}},
        {**child, "traced": True, "digests": {"a": "2"}},
    ]}
    result = run.summarize(samples, trace=True)
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 3


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
