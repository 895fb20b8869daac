"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench -q
"""

import inspect
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.prepare()

import tracer  # noqa: E402
import workloads  # noqa: E402
from fgrnn import cells, cli, gconv, graph, sparse, stability, training  # noqa: E402

SPEC = run.load_spec()


def _bindings():
    """{(module, attribute): function} for every function bound in fgrnn."""
    return {(name, attr): obj
            for name, mod in list(sys.modules.items())
            if name == "fgrnn" or name.startswith("fgrnn.")
            for attr, obj in vars(mod).items() if inspect.isfunction(obj)}


@pytest.fixture(scope="module")
def results():
    """One toy invocation per workload and trace mode, plus the bindings
    before and after each."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            before = _bindings()
            res = run.run_workload(name, seed=1, seconds=0.1, trace=trace,
                                   size="toy")
            out[name, trace] = (res, before, _bindings())
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_named_metric(results, name, trace):
    res, _, _ = results[name, trace]
    entries = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in entries]
    assert [m["unit"] for m in res["metrics"].values()] == [m["unit"] for m in entries]
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", ["cli-fo-n1502", "stability-n512"])
def test_toy_workloads_pass_their_gates(results, name):
    for trace in (0, 1):
        assert results[name, trace][0]["correct"]


def test_wrappers_are_restored_after_each_run(results):
    for res, before, after in results.values():
        assert after == before


def test_traced_counts_match_the_package():
    # traced bptt calls see the transitions the benchmark derives itself,
    # and the wasted-work ratio is the known 18 spmm per Chebyshev step
    res = run.run_workload("train-cheb-n128", 1, 0.1, 1, "toy")["metrics"]
    assert res["training.transitions"]["value"] == workloads.bptt_transitions(40, 10, 1, 2)
    assert res["training.spmm_per_transition"]["value"] == 18
    assert res["graph.build_laplacians.converged_ratio"]["value"] == 1


def test_wrapper_is_installed_under_every_binding():
    original = _bindings()
    t = tracer.Tracer()
    with t.installed():
        assert gconv.spmm is sparse.spmm is training.spmm
        assert sparse.spmm is not original["fgrnn.sparse", "spmm"]
        for mod in (training, stability, cli):
            assert mod.preactivation is cells.preactivation
        assert cells.preactivation is not original["fgrnn.cells", "preactivation"]
    assert _bindings() == original
    with pytest.raises(RuntimeError):
        with t.installed():
            raise RuntimeError("boom")
    assert _bindings() == original


def test_spans_nest_and_self_times_sum_to_the_wall_time():
    rng = np.random.default_rng(0)
    lap = graph.build_laplacians(graph.build_knn_graph(rng.standard_normal((12, 3)), 3))
    x = rng.standard_normal((12, 3))
    t = tracer.Tracer()
    with t.installed(), t.root("bench.op"):
        gconv.cheb_conv(lap, x, gconv.ChebFilter([1.0, 0.5, 0.25]))
    assert [(s[0], s[3]) for s in t.spans] == [
        ("bench.op", -1), ("gconv.cheb_conv", 0), ("sparse.spmm", 1), ("sparse.spmm", 1)]
    for name, start, end, parent, _ in t.spans[1:]:
        _, p_start, p_end, _, _ = t.spans[parent]
        assert p_start <= start <= end <= p_end
    assert t.spans[2][2] <= t.spans[3][1]  # siblings do not overlap
    stats, wall, problems = tracer.aggregate(t.spans)
    own = tracer.self_times(t.spans)
    assert problems == []
    assert min(own) >= 0 and math.isclose(sum(own), wall, rel_tol=1e-9)
    assert stats["sparse.spmm.calls"] == 2
    assert stats["sparse.spmm.flops"] == 2 * (2 * lap.scaled.nnz * 3)


def test_aggregate_flags_a_span_outside_the_root():
    spans = [("bench.op", 0.0, 1.0, -1, None), ("sparse.spmm", 2.0, 3.0, -1, None)]
    assert tracer.aggregate(spans)[2]


def test_nan_loss_counts_as_a_failed_operation(monkeypatch):
    assert workloads.gate_train(False, math.nan, 1.0, 2, 2)
    assert workloads.gate_train(False, 0.5, 1.0, 2, 2) == []
    w = workloads.TrainCheb("toy")
    state = w.setup(1, None)
    real_train = training.train

    def nan_train(*args, **kwargs):
        out = real_train(*args, **kwargs)
        out.epoch_losses[-1] = (out.epoch_losses[-1][0], math.nan)
        return out

    monkeypatch.setattr(training, "train", nan_train)
    res = w.op(state, None)
    assert res.failed == 1
    assert any("not finite" in p for p in res.problems)
