"""The benchmark's three workloads, their correctness gates and digests.

Each workload has a ``setup(seed, workdir)`` that generates its inputs
from the seed and an ``op(state, workdir)`` that runs one closed-loop
operation and checks its outputs. The package sees only the generated
inputs. Calls into fgrnn go through module attributes (``training.train``,
``cli.main``) so that the tracer's wrappers see them.

The ``toy`` size exists for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from fgrnn import cli, data, graph, stability, training

import reference

SPLIT = 0.8  # TrainConfig's default train/test split


@dataclass
class OpResult:
    work: int          # BPTT transitions trained, or sweep points computed
    work_s: float      # wall time of the training call or the sweep
    attempted: int     # operations: commands, train() calls, points, checks
    failed: int
    digest: str        # of the op's outputs; equal across repeats of an op
    problems: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)  # {name: (value, unit)}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def copy_last_baseline(frames: np.ndarray, split: float = SPLIT) -> float:
    """Mean loss of predicting each test frame as its predecessor, over the
    warm-started tail that ``training.evaluate`` scores."""
    tail = frames[int(math.floor(frames.shape[0] * split)) - 1:]
    d = tail[1:] - tail[:-1]
    return float(np.mean(np.sum(d * d, axis=(1, 2))))


def bptt_transitions(n_frames, t_w, stride, epochs, split=SPLIT) -> int:
    """Transitions ``train`` backpropagates through: windows of t_w steps
    starting every stride frames of the training partition."""
    n_train = int(math.floor(split * n_frames))
    per_epoch = 0
    for s in range(0, max(n_train - 1, 0), stride):
        e = min(s + t_w + 1, n_train)
        if e - s >= 2:
            per_epoch += e - s - 1
    return epochs * per_epoch


def gate_train(aborted: bool, test_loss: float, baseline: float,
               epochs_done: int, epochs: int) -> list:
    """Problems with a training run; empty when it passes."""
    problems = []
    if aborted:
        problems.append("training aborted")
    if epochs_done != epochs:
        problems.append(f"{epochs_done} of {epochs} epochs done")
    if not math.isfinite(test_loss):
        problems.append(f"test loss {test_loss} is not finite")
    elif not test_loss < baseline:
        problems.append(f"test loss {test_loss:.6g} not below copy-last "
                        f"baseline {baseline:.6g}")
    return problems


def gradient_checks(seed: int = 2, tol: float = 1e-6):
    """Finite-difference check of BPTT for each trainable family on a toy
    instance (criterion 2). Returns ({family: rel. error}, problems)."""
    errors, problems = {}, []
    for family in ("chebyshev", "first_order"):
        rng = np.random.default_rng(seed)
        lap = graph.build_laplacians(
            graph.build_knn_graph(rng.standard_normal((12, 3)), 3))
        p = training.init_params(
            training.TrainConfig(family=family, k=3, p=3, seed=seed), 12, 3)
        window = 0.5 * rng.standard_normal((4, 12, 3))
        err = float(training.finite_difference_check(p, lap, window))
        errors[family] = err
        if not err < tol:
            problems.append(f"{family}: finite-difference rel. error {err:.3g}")
    return errors, problems


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _quiet_cli(argv) -> int:
    """Runs one fgrnn command in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class TrainCheb:
    """Library ``train()`` with criterion 7's Chebyshev configuration."""

    name = "train-cheb-n128"
    setup_repeats = 5
    reference = staticmethod(reference.small_arrays)

    def __init__(self, size="full"):
        self.synth = {} if size == "full" else {"n_nodes": 16, "n_frames": 40}
        # two epochs: the first alone does not yet beat the copy-last baseline
        self.cfg = {"family": "chebyshev", "k": 3, "t_w": 10, "stride": 1,
                    "epochs": 2, "seed": 0}

    def setup(self, seed, workdir):
        seq, g = data.generate_synthetic(data.SyntheticConfig(seed=seed, **self.synth))
        return {"seq": seq, "graph": g, "baseline": copy_last_baseline(seq.frames)}

    def op(self, state, workdir) -> OpResult:
        cfg = training.TrainConfig(**self.cfg)
        run, work_s = _timed(training.train, cfg, state["seq"], state["graph"])
        test_loss = run.epoch_losses[-1][1] if run.epoch_losses else math.nan
        problems = gate_train(run.aborted, test_loss, state["baseline"],
                              run.epochs_done, cfg.epochs)
        digest = _sha(repr(run.epoch_losses), repr(run.alpha_history),
                      repr(run.beta_history))
        work = bptt_transitions(state["seq"].n_frames, cfg.t_w,
                                cfg.effective_stride, cfg.epochs)
        return OpResult(work, work_s, attempted=2, failed=int(bool(problems)),
                        digest=digest, problems=problems,
                        extras={"train_transitions_per_s": (work / work_s, "1/s"),
                                "test_loss": (test_loss, "loss")})


def _read_arrays(text):
    """{name: (rows, cols)} of the array blocks in a checkpoint file."""
    shapes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("W", "U", "V", "b", "z"):
            shapes[parts[0]] = (int(parts[1]), int(parts[2]))
    return shapes


class CliPipeline:
    """fgrnn gen-data, then train -> eval -> predict through ``cli.main``."""

    name = "cli-fo-n1502"
    setup_repeats = 3
    reference = staticmethod(reference.mixed)

    def __init__(self, size="full"):
        full = size == "full"
        self.n, self.t = (1502, 200) if full else (24, 30)
        self.t_w = 10 if full else 4
        self.p, self.epochs = 3, 1
        self.horizon = 10 if full else 3

    def setup(self, seed, workdir):
        paths = {"frames": os.path.join(workdir, "frames.txt"),
                 "graph": os.path.join(workdir, "graph.txt")}
        rc = _quiet_cli(["gen-data", "--out-frames", paths["frames"],
                         "--out-graph", paths["graph"], "base_shape=cylinder",
                         f"n_nodes={self.n}", f"n_frames={self.t}", f"seed={seed}"])
        if rc != 0:
            raise RuntimeError(f"fgrnn gen-data exited {rc}")
        return paths

    def op(self, state, workdir) -> OpResult:
        out = {k: os.path.join(workdir, k) for k in
               ("model.ckpt", "history.csv", "eval.csv", "pred.txt")}
        inputs = ["--frames", state["frames"], "--graph", state["graph"]]
        model = ["--checkpoint", out["model.ckpt"]]
        rc_train, train_s = _timed(_quiet_cli, [
            "train", *inputs, "--out-checkpoint", out["model.ckpt"],
            "--out-history", out["history.csv"], "family=first_order",
            f"p={self.p}", f"t_w={self.t_w}", f"epochs={self.epochs}"])
        rc_eval, eval_s = _timed(_quiet_cli, [
            "eval", *model, *inputs, "--out", out["eval.csv"]])
        rc_pred, predict_s = _timed(_quiet_cli, [
            "predict", *model, *inputs, "--horizon", str(self.horizon),
            "--out", out["pred.txt"]])
        codes = {"train": rc_train, "eval": rc_eval, "predict": rc_pred}
        problems = [f"fgrnn {c} exited {rc}" for c, rc in codes.items() if rc != 0]
        texts = {}
        for key, path in out.items():
            if os.path.exists(path):
                with open(path) as fh:
                    texts[key] = fh.read()
        gate = self.gate(texts)
        history = texts.get("history.csv", "").splitlines()
        test_loss = float(history[-1].split(",")[2]) if len(history) > 1 else math.nan
        work = bptt_transitions(self.t, self.t_w, self.t_w, self.epochs)
        return OpResult(
            work, train_s, attempted=len(codes) + 1,
            failed=sum(rc != 0 for rc in codes.values()) + int(bool(gate)),
            digest=_sha(*(texts.get(k, "") for k in sorted(out))),
            problems=problems + gate,
            extras={"train_transitions_per_s": (work / train_s, "1/s"),
                    "eval_s": (eval_s, "s"), "predict_s": (predict_s, "s"),
                    "test_loss": (test_loss, "loss")})

    def gate(self, texts) -> list:
        """Shapes of the history, checkpoint, eval and prediction files."""
        n, f, p = self.n, 3, self.p
        problems = []
        if set(texts) != {"model.ckpt", "history.csv", "eval.csv", "pred.txt"}:
            return [f"missing outputs; found {sorted(texts)}"]
        rows = [r.split(",") for r in texts["history.csv"].splitlines()[1:]]
        if len(rows) != self.epochs or any(len(r) != 6 for r in rows):
            problems.append(f"history has {len(rows)} rows, want {self.epochs}")
        elif not all(math.isfinite(float(v)) for r in rows for v in r):
            problems.append("history holds a non-finite value")
        want = {"W": (f, p), "U": (p, p), "V": (p, f), "b": (1, n), "z": (1, n)}
        got = _read_arrays(texts["model.ckpt"])
        if got != want:
            problems.append(f"checkpoint arrays {got}, want {want}")
        if len(texts["eval.csv"].splitlines()) != self.t:  # header + T-1 losses
            problems.append("eval has the wrong number of transitions")
        pred = texts["pred.txt"].splitlines()
        if (not pred or pred[0].split() != ["gfrm", "1", str(n), str(f), str(self.horizon)]
                or len(pred) != 1 + n * self.horizon):
            problems.append(f"prediction file is not {self.horizon} frames of "
                            f"{n}x{f}")
        return problems


class StabilitySweep:
    """``stability_sweep`` over a 3x3x3 grid with a relu width-1 cell."""

    name = "stability-n512"
    setup_repeats = 5
    reference = staticmethod(reference.dense)
    alphas, betas, horizons = (0.0, 0.5, 1.0), (0.0, 0.5, 1.0), (4, 8, 12)

    def __init__(self, size="full"):
        self.n = 512 if size == "full" else 24

    def setup(self, seed, workdir):
        _, g = data.generate_synthetic(
            data.SyntheticConfig(n_nodes=self.n, n_frames=4, seed=seed))
        # w = 1 makes the input drive the relu mask, so D_t is not all zero
        base = stability.scalar_cell_params(u=1.0, n_nodes=self.n, w=1.0,
                                            activation="relu")
        return {"graph": g, "base": base, "seed": seed}

    def op(self, state, workdir) -> OpResult:
        rows, work_s = _timed(stability.stability_sweep, state["graph"],
                              state["base"], self.alphas, self.betas,
                              self.horizons, state["seed"])
        problems = self.gate(rows)
        points = len(self.alphas) * len(self.betas) * len(self.horizons)
        return OpResult(points, work_s, attempted=points + 1,
                        failed=int(bool(problems)),
                        digest=_sha(stability.sweep_csv(rows)),
                        problems=problems,
                        extras={"sweep_points_per_s": (points / work_s, "1/s")})

    def gate(self, rows) -> list:
        """cond = 1 for the pure residual; the bound dominates where finite."""
        problems = []
        want = len(self.alphas) * len(self.betas) * len(self.horizons)
        if len(rows) != want:
            problems.append(f"{len(rows)} sweep rows, want {want}")
        for r in rows:
            if r.alpha == 0.0 and r.beta == 1.0 and abs(r.condition_number - 1.0) > 1e-12:
                problems.append(f"cond {r.condition_number} at alpha=0, beta=1, T={r.horizon}")
            if r.bound is not None and r.condition_number > r.bound * (1 + 1e-12):
                problems.append(f"cond {r.condition_number:.6g} above bound "
                                f"{r.bound:.6g} at alpha={r.alpha}, "
                                f"beta={r.beta}, T={r.horizon}")
        return problems


WORKLOADS = {w.name: w for w in (TrainCheb, CliPipeline, StabilitySweep)}
