"""The benchmark's per-layer rows name functions that exist, and its CLI
workload runs.

Each row of BENCHMARK.json's per_layer list named
<module>.<function>.<counter> reads the spans of one public function of
fgrnn.<module>. The benchmark raises KeyError for a row whose function is
gone, so renaming or removing such a function breaks it; this test says
which row first. The CLI workload drives cli.main through gen-data,
train, eval and predict; a run of it at toy size checks that each of its
operations succeeds.

Each toy run, at seed 1, also pins the digest of its outputs, so that a
change meant to keep every output byte-identical shows it cheaply; a
change that alters outputs on purpose updates DIGESTS.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fgrnn

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
# the digest each workload prints at --size toy --seed 1
DIGESTS = {"cli-fo-n1502": "56f913870da46d0a",
           "train-cheb-n128": "10d88c0be91490b4",
           "stability-n512": "6f90aba9c13d875b"}
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


def _toy_run(workload, *extra):
    """The stdout lines of one toy-size benchmark run, which must exit 0."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--size", "toy", "--seconds", "0.1", "--seed", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_cli_workload_runs_at_toy_size():
    lines = _toy_run("cli-fo-n1502", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["failed"] == 0 and result["attempted"] > 0, result
    assert f"digest {DIGESTS['cli-fo-n1502']}" in lines


# not `failed`: the toy train-cheb-n128 run fails its copy-last gate, as
# its few epochs at toy size do not beat that baseline
@pytest.mark.parametrize("workload", ["train-cheb-n128", "stability-n512"])
def test_toy_run_digest(workload):
    assert f"digest {DIGESTS[workload]}" in _toy_run(workload)
