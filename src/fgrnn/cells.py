"""Recurrent cells: graph RNN with weighted residual, readout.

The cell update is

    h_tilde = act(conv(x; W) + conv(h_prev; U) + b 1^T)
    h       = alpha * h_tilde + beta * h_prev

with alpha = 1, beta = 0 reducing to the standard graph RNN. The readout
is x_hat = conv(h; V) + z 1^T in the same filter family. Biases b and z
are per-node and broadcast across feature columns. ModelParams keeps the
whole trainable set in one flat vector theta, with named views.

unroll is the forward pass: training, evaluation, prediction and the
stability diagnostics all run the recurrence through it, from the zero
state. It takes each step's input term and leaves the readout to its
callers, so that a window's input terms and readouts can each be made in
one stacked operation around the per-step loop. A step keeps h_tilde, h
and the basis of h; act' is written in act's output, so h_tilde is all it
needs. preactivation is the one pre-activation of a step, and
readout(p, fam, step.basis) the one readout, both built on conv_family's
primitives.

A checkpoint holds the parameters, the checksum of the graph they were
trained on and, from train, the training block (epoch, Adam step, rate
and moments). load_checkpoint, given the graph a command runs on, is the
one place that checks that binding: a checkpoint trained on another graph
fails at its graph_checksum line.
"""

from __future__ import annotations

import copy
import math
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import (ContractViolation, NumericOverflow, ParseError, in_file,
                     read_text)
from .gconv import ChebFamily, FirstOrderFamily
from .graph import Graph, LaplacianSet

FAMILIES = ("chebyshev", "first_order")


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # exp(-a) overflows to inf for a < -709, where 1 / (1 + inf) = 0 is exact
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


# name: (act, act' as a function of act's output y)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda y: 1.0 - y ** 2),
    "relu": (lambda a: np.maximum(a, 0.0), lambda y: (y > 0.0).astype(np.float64)),
    "sigmoid": (_sigmoid, lambda y: y * (1.0 - y)),
}


class ModelParams:
    """The trainable set {W, U, V, alpha, beta, b, z} as one flat vector.

    theta holds W, U, V, alpha, beta, b and z in that order, the order of a
    checkpoint's Adam moments too. W, U and V are Chebyshev coefficients
    (length K each) or first-order weights (F x p, p x p, p x F); b and z
    hold one value per node. They are views into theta, bound once, and
    alpha and beta read and write their slots as Python floats. like(vec)
    lays the same views over another vector of theta's size: a gradient,
    or a copy to perturb.
    """

    def __init__(self, conv_family: str, W, U, V, alpha: float, beta: float,
                 b, z, activation: str = "tanh"):
        if conv_family not in FAMILIES:
            raise ContractViolation(f"unknown family {conv_family!r}")
        if activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {activation!r}")
        self.conv_family, self.activation = conv_family, activation
        filters = [np.asarray(a, dtype=np.float64) for a in (W, U, V)]
        if conv_family == "chebyshev":
            filters = [a.ravel() for a in filters]
            if min(a.size for a in filters) < 1:
                raise ContractViolation(
                    "Chebyshev filters need K >= 1 coefficients")
        elif any(a.ndim != 2 for a in filters):
            raise ContractViolation("first-order weights must be 2-D")
        biases = [np.asarray(a, dtype=np.float64).ravel() for a in (b, z)]
        self._shapes = ([a.shape for a in filters] + [(), ()]
                        + [a.shape for a in biases])
        self._bind(np.concatenate([a.ravel() for a in filters]
                                  + [[alpha, beta]] + biases))

    def _bind(self, theta: np.ndarray):
        self.theta, views, off = theta, [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(theta[off:off + size].reshape(shape))
            off += size
        self.W, self.U, self.V, self._alpha, self._beta, self.b, self.z = views

    def like(self, vec: np.ndarray) -> "ModelParams":
        """This layout over vec, which it shares rather than copies."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self.theta.shape:
            raise ContractViolation(f"like: vector of shape {vec.shape}, "
                                    f"parameters {self.theta.shape}")
        other = copy.copy(self)
        other._bind(vec)
        return other

    alpha = property(lambda self: float(self._alpha),
                     lambda self, value: self._alpha.fill(value))
    beta = property(lambda self: float(self._beta),
                    lambda self, value: self._beta.fill(value))


def conv_family(p: ModelParams, lap: LaplacianSet):
    """The basis / combine / coefficient-gradient primitives of p's family."""
    if p.conv_family == "chebyshev":
        # one basis length serves W, U and V, even if their orders differ
        return ChebFamily(lap, max(len(p.W), len(p.U), len(p.V)))
    return FirstOrderFamily(lap)


def preactivation(p: ModelParams, fam, wx: np.ndarray,
                  bh: np.ndarray | None = None) -> np.ndarray:
    """a = wx + combine(U, bh) + b 1^T, from a step's input term wx and the
    basis bh of the previous state; bh None is the zero state, which adds
    no recurrent term. Raises NumericOverflow if a is not finite."""
    a = wx if bh is None else wx + fam.combine(p.U, bh)
    a = a + p.b[:, None]
    if not np.isfinite(a).all():
        raise NumericOverflow("non-finite pre-activation")
    return a


def readout(p: ModelParams, fam, basis: np.ndarray) -> np.ndarray:
    """x_hat = combine(V, basis) + z 1^T, the readout from a stored basis of
    h, with no sparse product. basis may also be a stack of steps' bases,
    the step axis after the basis axis, to read out every step at once."""
    return fam.combine(p.V, basis) + p.z[:, None]


def input_terms(p: ModelParams, fam, frames):
    """combine(W, basis(x)) of each frame x, made one frame at a time: the
    input of unroll for callers that stream their frames."""
    for x in frames:
        yield fam.combine(p.W, fam.basis(x))


class Step(NamedTuple):
    """One step of unroll; its prediction is readout(p, fam, basis)."""

    h_tilde: np.ndarray  # act(a) of the pre-activation a; act' reads it
    h: np.ndarray        # alpha * h_tilde + beta * h_prev
    basis: np.ndarray    # basis of h: readout at this step, recurrence at the next


def unroll(p: ModelParams, fam, terms, feedback: int = 0):
    """The forward recurrence from the zero state, one Step per input.

    fam is conv_family(p, lap), and terms yields each step's input term
    combine(W, basis(x_t)): a stack made in one product for a whole window
    (training.bptt), or input_terms(p, fam, frames) for callers that
    stream. After them come `feedback` more steps, each fed the previous
    step's prediction. The zero state adds no recurrent term and no sparse
    product at the first step.

    Per step this runs only the recurrence: the pre-activation from the
    input term and basis(h_{t-1}), h_t, and one basis of h_t, which serves
    both the recurrent term at t+1 and the readout at t. The readout
    itself is left to the caller (readout of one step's basis, or of a
    stack of bases); unroll reads out only the steps it feeds back.
    """
    act = ACTIVATIONS[p.activation][0]
    alpha, beta = p.alpha, p.beta
    h = bh = None
    for t, wx in enumerate(chain(terms, repeat(None, feedback))):
        if wx is None:
            if t == 0:
                raise ContractViolation("unroll: feedback needs an input step")
            wx = fam.combine(p.W, fam.basis(readout(p, fam, bh)))
        if h is None:
            h = np.zeros(wx.shape)
        try:
            a = preactivation(p, fam, wx, bh)
        except NumericOverflow as exc:
            raise NumericOverflow(f"step {t + 1}: {exc}") from None
        h_tilde = act(a)
        h = alpha * h_tilde + beta * h
        bh = fam.basis(h)
        yield Step(h_tilde, h, bh)


# --- checkpoint IO ---------------------------------------------------------

def _write_array(fh, name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def save_checkpoint(p: ModelParams, path, graph_checksum: str,
                    train_state: dict | None = None):
    """Plain-text checkpoint; round-trips exactly at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("fgrnn-checkpoint 1\n")
        fh.write(f"family {p.conv_family}\n")
        fh.write(f"activation {p.activation}\n")
        # the format's node-operator entry; L1 is the only operator
        fh.write("use_plain_laplacian 0\n")
        fh.write(f"graph_checksum {graph_checksum}\n")
        fh.write(f"alpha {p.alpha:.17g}\n")
        fh.write(f"beta {p.beta:.17g}\n")
        for name in ("W", "U", "V", "b", "z"):
            _write_array(fh, name, getattr(p, name))
        if train_state is not None:
            fh.write(f"epoch {train_state['epoch']}\n")
            fh.write(f"adam_step {train_state['adam_step']}\n")
            fh.write(f"lr {train_state['lr']:.17g}\n")
            _write_array(fh, "adam_m", train_state["adam_m"])
            _write_array(fh, "adam_v", train_state["adam_v"])


_ARRAY_NAMES = ("W", "U", "V", "b", "z", "adam_m", "adam_v")


def _read_array(lines, k):
    """The array whose 'name rows cols' header is lines[k]."""
    name, rows, cols = lines[k].split()
    if not (rows.isdecimal() and cols.isdecimal()):
        raise ParseError(f"expected '{name} rows cols', got {lines[k]!r}",
                         line=k + 1)
    rows, cols = int(rows), int(cols)
    if k + 1 + rows > len(lines):
        raise ParseError(f"{name}: header promises {rows} rows, the file ends "
                         f"after {len(lines) - k - 1}", line=k + 1)
    try:
        block = [[float(v) for v in line.split()]
                 for line in lines[k + 1:k + 1 + rows]]
        arr = np.array(block, dtype=np.float64).reshape(rows, cols)
    except ValueError:
        raise ParseError(f"{name}: the {rows} lines after the header are not "
                         f"{rows} x {cols} numbers", line=k + 1) from None
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{name}: values must be finite", line=k + 1)
    return arr


def load_checkpoint(path, graph: Graph | None = None,
                    n_features: int | None = None):
    """Returns (ModelParams, graph_checksum, train_state or None); a
    train_state is what training.train's resume takes with the parameters.

    Raises ParseError naming the file and line for a truncated file, an
    array block that does not match its header or holds a non-finite
    value, a b or z block of more than one row, a W, U or V block of no
    value, a missing entry, an unknown family or activation, a
    node-operator entry other than 0 (the entry is optional; L1 is the
    only node operator), a non-finite alpha or beta, a negative epoch or
    adam_step, or Adam moments of another length than the parameters.
    Given the graph the model is to run on, the file's graph_checksum must
    be graph.checksum(), and b, z and first-order W, U and V must fit its
    N nodes and F features: n_features, or the row count of the file's own
    W when n_features is None.
    """
    lines = read_text(path).splitlines()
    with in_file(path):
        return _parse_checkpoint(lines, graph, n_features)


def _check_shapes(arrays, where, family, n_nodes, n_features):
    """ParseError at the first array that does not fit N nodes and F
    features, F being W's row count when n_features is None."""
    need = {"b": (1, n_nodes), "z": (1, n_nodes)}
    if family == "first_order":
        if n_features is None:
            n_features = arrays["W"].shape[0]
        width = arrays["W"].shape[1]
        need.update(W=(n_features, width), U=(width, width),
                    V=(width, n_features))
    for name, shape in need.items():
        got = arrays[name].shape
        if got != shape:
            raise ParseError(
                f"checkpoint {name} is {got[0]} x {got[1]}, but N={n_nodes} "
                f"nodes and F={n_features} features need {shape[0]} x "
                f"{shape[1]}", line=where[name])


def _parse_checkpoint(lines, graph=None, n_features=None):
    if not lines or lines[0] != "fgrnn-checkpoint 1":
        raise ParseError("not a checkpoint file", line=1)
    scalars, arrays, where = {}, {}, {}
    k = 1
    while k < len(lines):
        parts = lines[k].split()
        if len(parts) == 3 and parts[0] in _ARRAY_NAMES:
            arrays[parts[0]] = _read_array(lines, k)
            where[parts[0]] = k + 1
            k += arrays[parts[0]].shape[0] + 1
        elif len(parts) == 2:
            scalars[parts[0]] = parts[1]
            where[parts[0]] = k + 1
            k += 1
        else:
            raise ParseError(f"expected 'key value' or 'name rows cols', "
                             f"got {lines[k]!r}", line=k + 1)

    def need(keys, found):
        for key in keys:
            if key not in found:
                raise ParseError(f"the file ends without a {key!r} entry",
                                 line=len(lines))

    def number(key, cast=float):
        try:
            value = cast(scalars[key])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"{key} must be a finite number, got "
                             f"{scalars[key]!r}", line=where[key])
        return value

    def count(key):
        value = number(key, int)
        if value < 0:
            raise ParseError(f"{key} must be >= 0, got {value}",
                             line=where[key])
        return value

    need(("family", "activation", "graph_checksum", "alpha", "beta"), scalars)
    need(("W", "U", "V", "b", "z"), arrays)
    for key, allowed in (("family", FAMILIES), ("activation", ACTIVATIONS),
                         ("use_plain_laplacian", ("0",))):
        if key in scalars and scalars[key] not in allowed:
            raise ParseError(f"{key} must be one of {', '.join(allowed)}, "
                             f"got {scalars[key]!r}", line=where[key])
    for key in ("b", "z"):
        if arrays[key].shape[0] != 1:
            raise ParseError(f"{key}: expected 1 row of per-node values, got "
                             f"{arrays[key].shape[0]}", line=where[key])
    for key in ("W", "U", "V"):
        if arrays[key].size == 0:
            raise ParseError(f"{key}: a filter needs at least one "
                             f"coefficient", line=where[key])
    if graph is not None:
        if scalars["graph_checksum"] != graph.checksum():
            raise ParseError(
                f"graph_checksum {scalars['graph_checksum']} is not the "
                f"graph's {graph.checksum()}: the checkpoint was trained on "
                f"another graph", line=where["graph_checksum"])
        _check_shapes(arrays, where, scalars["family"], graph.n_nodes,
                      n_features)
    p = ModelParams(
        scalars["family"], arrays["W"], arrays["U"], arrays["V"],
        alpha=number("alpha"), beta=number("beta"), b=arrays["b"],
        z=arrays["z"], activation=scalars["activation"])
    train_state = None
    if "epoch" in scalars:
        need(("adam_step", "lr"), scalars)
        need(("adam_m", "adam_v"), arrays)
        for key in ("adam_m", "adam_v"):
            if arrays[key].size != p.theta.size:
                raise ParseError(f"{key}: {arrays[key].size} values for "
                                 f"{p.theta.size} parameters", line=where[key])
        train_state = {
            "epoch": count("epoch"),
            "adam_step": count("adam_step"),
            "lr": number("lr"),
            "adam_m": arrays["adam_m"].ravel(),
            "adam_v": arrays["adam_v"].ravel(),
        }
    return p, scalars["graph_checksum"], train_state
