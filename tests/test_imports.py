"""numpy stays on the oracle path: the referee is the one module that loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import axbdd

PACKAGE = Path(axbdd.__file__).parent

# ``sys.modules["numpy"] = None`` makes every later numpy import raise.
WITHOUT_NUMPY = """
import contextlib, io, pathlib, sys
sys.modules["numpy"] = None
from axbdd import (
    ALGORITHMS, METRICS, CorpusSpec, OracleLimitError, SearchConfig, emit,
    evaluate_error, gen_adder, mutate, oracle_metrics, run_corpus, run_search,
)
from axbdd.cli import main

golden = gen_adder("rca", 8, False)
approx = mutate(golden, 1, 4)
for metric in METRICS:
    for algo in ALGORITHMS:
        evaluate_error(golden, approx, metric, algo)
run_search(golden, SearchConfig(threshold=50, max_generations=2, seed=1))
run_corpus(CorpusSpec(kinds=["rca"], bits=[4], mutants=2,
                      evolve_generations=0, warmup=False))
root = pathlib.Path(sys.argv[1])
(root / "golden.net").write_text(emit(golden))
(root / "approx.net").write_text(emit(approx))
pair = ["--golden", str(root / "golden.net"), "--approx", str(root / "approx.net")]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["eval", *pair, "--metric", "wce", "--algo", "noabs"]) == 0
    assert main(["verify", *pair, "--max-oracle-bits", "4"]) == 0
try:
    oracle_metrics(golden, approx)
except ImportError:
    pass
else:
    raise AssertionError("the oracle ran without numpy")
try:
    oracle_metrics(golden, approx, limit=4)
except OracleLimitError:
    print("ok")
"""

WITH_NUMPY = """
import sys
from axbdd import gen_adder, mutate, oracle_metrics
golden = gen_adder("rca", 2, False)
print("numpy" in sys.modules)
oracle_metrics(golden, mutate(golden, 1, 2))
print("numpy" in sys.modules)
"""


def run_python(source, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_the_bdd_path_runs_without_numpy(tmp_path):
    assert run_python(WITHOUT_NUMPY, str(tmp_path)) == ["ok"]


def test_only_the_oracle_loads_numpy():
    assert run_python(WITH_NUMPY) == ["False", "True"]


def imports(path):
    """What a source file imports: top-level module names, and modules of
    the package with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_the_referee_import_boundary():
    assert imports(PACKAGE / "oracle.py") == {"numpy", ".circuit"}
    assert imports(PACKAGE / "circuit.py") == {".oracle"}
    users = sorted(p.name for p in PACKAGE.glob("*.py") if "numpy" in imports(p))
    assert users == ["oracle.py"]
