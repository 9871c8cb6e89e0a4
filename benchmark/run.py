"""axbdd benchmark: three seeded closed-loop workloads over the public API.

Run from the repository root::

    python3 benchmark/run.py --workload corpus16 --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 1            # every workload, one process each
    python3 benchmark/run.py --selftest          # tiny sizes, a few seconds

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones from a traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("corpus16", "search12", "oracle20")


def _die(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import axbdd from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "axbdd" / "__init__.py").is_file():
        _die(f"no axbdd sources under {src}")
    sys.path.insert(0, str(src))
    import axbdd

    if Path(axbdd.__file__).resolve().parent != (src / "axbdd").resolve():
        _die(f"imported axbdd from {axbdd.__file__}, not {src}")


def git_rev():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_rev(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(args) -> int:
    import workloads

    print("# env " + json.dumps(environment(args), sort_keys=True))
    run, result, notes = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"# inputs {args.workload} sha256={notes['digest']}")
    times = notes["setup_times"]
    print(f"# setup_s: median of {len(times)} builds, {min(times):.6f}..{max(times):.6f} s")
    for problem in run.problems:
        print(f"# problem: {problem}")
    print(f"# operations: {run.attempted} attempted, {run.failed} failed")
    for name, (value, unit) in result.items():
        print(f"{name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {workload}", flush=True)
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    import_package()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
