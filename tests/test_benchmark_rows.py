"""The benchmark's per-layer rows name functions that exist, and its CLI
workload runs.

Each row of BENCHMARK.json's per_layer list named
<module>.<function>.<counter> reads the spans of one public function of
fgrnn.<module>. The benchmark raises KeyError for a row whose function is
gone, so renaming or removing such a function breaks it; this test says
which row first. The CLI workload drives cli.main through gen-data,
train, eval and predict; a run of it at toy size checks that each of its
operations succeeds.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import fgrnn

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
MODULES = {path.stem for path in Path(fgrnn.__file__).parent.glob("*.py")
           if not path.stem.startswith("_")}


def test_every_layer_row_names_a_public_function():
    rows = [row["name"].split(".")
            for row in json.loads(SPEC.read_text())["per_layer"]]
    layer_rows = [parts for parts in rows if len(parts) == 3]
    assert layer_rows
    for module, function, _ in layer_rows:
        assert module in MODULES, f"{module}: no module fgrnn.{module}"
        mod = importlib.import_module(f"fgrnn.{module}")
        obj = getattr(mod, function, None)
        assert (not function.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__), (
            f"fgrnn.{module} defines no public function {function}")


def test_cli_workload_runs_at_toy_size():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-fo-n1502",
         "--size", "toy", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, result
