"""Self-test of the benchmark at tiny sizes; runs in a few seconds.

Checks that every workload runs clean and prints exactly the metrics
BENCHMARK.json lists, that a corrupted result registers as a failed
operation, and that a traced run fails loudly when a layer it must reach
is bypassed.  Run with ``python3 benchmark/run.py --selftest``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import axbdd

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _check(failures, ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        failures.append(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures: list[str] = []
    _check(failures, [w["name"] for w in spec["workloads"]] == list(workloads.LOOPS),
           "BENCHMARK.json lists the benchmark's workloads")

    for workload in workloads.LOOPS:
        for trace in (False, True):
            run, result, _ = workloads.run_workload(workload, 1, 1, trace, tiny=True)
            tag = f"{workload} trace={int(trace)}"
            _check(failures, run.failed == 0 and run.attempted > 0,
                   f"{tag}: {run.attempted} attempted, {run.failed} failed {run.problems}")
            _check(failures, list(result) == expected[trace],
                   f"{tag}: prints exactly the metrics BENCHMARK.json lists")
            _check(failures, all(units.get(n) == u for n, (_, u) in result.items()),
                   f"{tag}: units match BENCHMARK.json")
            values = [v for v, _ in result.values()]
            finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
            if not trace:
                finite = finite and all(v > 0 for v in values)
            _check(failures, finite, f"{tag}: values are finite"
                   + ("" if trace else " and positive"))

        run, _, _ = workloads.run_workload(workload, 1, 1, False, tiny=True, corrupt=True)
        _check(failures, run.failed > 0,
               f"{workload}: a WCE one too high counts as {run.failed} failed operation(s)")

    # A refactor that routes the search around bitvec.subtract must not
    # leave the traced run reporting zeros for that layer.
    original = axbdd.search.subtract
    axbdd.search.subtract = lambda a, b: original(a, b)
    try:
        workloads.run_workload("search12", 1, 1, True, tiny=True)
        loud = False
    except tracing.TraceError as exc:
        loud = "bitvec.subtract" in str(exc)
    finally:
        axbdd.search.subtract = original
    _check(failures, loud, "a bypassed layer makes the traced run fail")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0
