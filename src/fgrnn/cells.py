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
needs. preactivation is the one pre-activation of a step,
readout(p, fam, step.basis) the one readout, and step_vjp the reverse of
one step (training.bptt's), all built on conv_family's primitives.

A checkpoint holds exactly what train writes: the parameters, the
checksum of the graph they were trained on and the training block (epoch,
Adam step, rate and moments), each entry once, as _ENTRIES lists them.
save_checkpoint and load_checkpoint both take the graph, and
load_checkpoint is the one place that checks that binding: a checkpoint
trained on another graph fails at its graph_checksum line.
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
from .graph import Graph, LaplacianSet, build_laplacians

# family: (the config key that sizes its filters, the shapes of W, U and V
# at that size s for F features)
FAMILIES = {
    "chebyshev": ("k", lambda s, f: [(s,)] * 3),
    "first_order": ("p", lambda s, f: [(f, s), (s, s), (s, f)]),
}


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
    (K each, one order for all three) or first-order weights (F x p, p x p,
    p x F); b and z hold one value per node. They are views into theta,
    bound once, and alpha and beta read and write their slots as Python
    floats. like(vec) lays the same views over another vector of theta's
    size: a gradient, or a copy to perturb.
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
            orders = [a.size for a in filters]
            if min(orders) < 1 or len(set(orders)) > 1:
                raise ContractViolation(
                    f"Chebyshev W, U and V need one order K >= 1, got "
                    f"{orders[0]}, {orders[1]} and {orders[2]}")
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
        return ChebFamily(lap, len(p.W))
    return FirstOrderFamily(lap)


def laplacians_for(p: ModelParams, g: Graph) -> LaplacianSet:
    """The Laplacians of g for p's family: a first-order model leaves the
    scaled Laplacian, and lambda_max's power iteration, unmade."""
    return build_laplacians(g, scaled=p.conv_family == "chebyshev")


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


def step_vjp(p: ModelParams, fam, v: np.ndarray, dact: np.ndarray,
             pre: np.ndarray | None = None) -> np.ndarray:
    """dJ/dh_{t-1} from v = dJ/dh_t, the reverse of one unroll step:
    adjoint(pre + pre_adjoint(U, alpha * v * dact)) + beta * v, dact being
    act'(a_t) and pre the readout's share (a step of pre_adjoint) or None."""
    mixed = fam.pre_adjoint(p.U, p.alpha * v * dact)
    return fam.adjoint(mixed if pre is None else pre + mixed) + p.beta * v


# --- checkpoint IO ---------------------------------------------------------

def _write_array(fh, name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
    for row in arr:
        fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def save_checkpoint(p: ModelParams, path, graph: Graph, train_state: dict):
    """Plain-text checkpoint of p, trained on graph, with its training
    block; round-trips exactly at 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("fgrnn-checkpoint 1\n")
        fh.write(f"family {p.conv_family}\n")
        fh.write(f"activation {p.activation}\n")
        # the format's node-operator entry; L1 is the only operator
        fh.write("use_plain_laplacian 0\n")
        fh.write(f"graph_checksum {graph.checksum()}\n")
        fh.write(f"alpha {p.alpha:.17g}\n")
        fh.write(f"beta {p.beta:.17g}\n")
        for name in ("W", "U", "V", "b", "z"):
            _write_array(fh, name, getattr(p, name))
        fh.write(f"epoch {train_state['epoch']}\n")
        fh.write(f"adam_step {train_state['adam_step']}\n")
        fh.write(f"lr {train_state['lr']:.17g}\n")
        _write_array(fh, "adam_m", train_state["adam_m"])
        _write_array(fh, "adam_v", train_state["adam_v"])


# every entry save_checkpoint writes, in its order: True for a 'name rows
# cols' array block, False for a 'key value' line. Each is read once, and
# each is required but use_plain_laplacian.
_ENTRIES = {
    "family": False, "activation": False, "use_plain_laplacian": False,
    "graph_checksum": False, "alpha": False, "beta": False,
    "W": True, "U": True, "V": True, "b": True, "z": True,
    "epoch": False, "adam_step": False, "lr": False,
    "adam_m": True, "adam_v": True,
}


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


def load_checkpoint(path, graph: Graph, n_features: int):
    """(ModelParams, train_state) of the checkpoint at path, for a model
    that runs on graph with n_features features; train_state is what
    training.train's resume takes with the parameters.

    Raises ParseError naming the file and line for a truncated file, a
    line that is not one of the entries save_checkpoint writes or repeats
    one, an array block that does not match its header or holds a
    non-finite value, a b or z block of more than one row, a W, U or V
    block of no value, a Chebyshev W, U or V of more than one row, a
    Chebyshev U or V of another order than W, a missing entry, an unknown
    family or activation, a node-operator entry other than 0 (the entry is
    optional; L1 is the only node operator), a non-finite alpha or beta, a
    negative epoch or adam_step, or Adam moments of another length than
    the parameters. The file's graph_checksum must be graph.checksum(),
    and b, z and first-order W, U and V must fit its N nodes and the
    n_features features.
    """
    lines = read_text(path).splitlines()
    with in_file(path):
        return _parse_checkpoint(lines, graph, n_features)


def _check_shapes(arrays, where, family, n_nodes, n_features):
    """ParseError at the first array that does not fit N nodes and F
    features."""
    need = {"b": (1, n_nodes), "z": (1, n_nodes)}
    if family == "first_order":
        shapes = FAMILIES[family][1](arrays["W"].shape[1], n_features)
        need.update(zip("WUV", shapes))
    else:
        for name in ("W", "U", "V"):
            if arrays[name].shape[0] != 1:
                raise ParseError(
                    f"{name}: expected 1 row of Chebyshev coefficients, got "
                    f"{arrays[name].shape[0]}", line=where[name])
        order = arrays["W"].size
        for name in ("U", "V"):
            if arrays[name].size != order:
                raise ParseError(
                    f"{name}: {arrays[name].size} Chebyshev coefficients, "
                    f"but W has {order}: W, U and V share one order K",
                    line=where[name])
    for name, shape in need.items():
        got = arrays[name].shape
        if got != shape:
            raise ParseError(
                f"checkpoint {name} is {got[0]} x {got[1]}, but N={n_nodes} "
                f"nodes and F={n_features} features need {shape[0]} x "
                f"{shape[1]}", line=where[name])


def _parse_checkpoint(lines, graph, n_features):
    if not lines or lines[0] != "fgrnn-checkpoint 1":
        raise ParseError("not a checkpoint file", line=1)
    scalars, arrays, where = {}, {}, {}
    k = 1
    while k < len(lines):
        parts = lines[k].split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'key value' or 'name rows cols', "
                             f"got {lines[k]!r}", line=k + 1)
        name = parts[0]
        if name not in _ENTRIES:
            raise ParseError(f"unknown entry {name!r}", line=k + 1)
        if name in where:
            raise ParseError(f"{name} given twice, first at line "
                             f"{where[name]}", line=k + 1)
        if _ENTRIES[name] != (len(parts) == 3):
            form = "rows cols" if _ENTRIES[name] else "value"
            raise ParseError(f"expected '{name} {form}', got {lines[k]!r}",
                             line=k + 1)
        where[name] = k + 1
        if _ENTRIES[name]:
            arrays[name] = _read_array(lines, k)
            k += arrays[name].shape[0] + 1
        else:
            scalars[name] = parts[1]
            k += 1
    for name in _ENTRIES:
        if name not in where and name != "use_plain_laplacian":
            raise ParseError(f"the file ends without a {name!r} entry",
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
    if scalars["graph_checksum"] != graph.checksum():
        raise ParseError(
            f"graph_checksum {scalars['graph_checksum']} is not the "
            f"graph's {graph.checksum()}: the checkpoint was trained on "
            f"another graph", line=where["graph_checksum"])
    _check_shapes(arrays, where, scalars["family"], graph.n_nodes, n_features)
    p = ModelParams(
        scalars["family"], arrays["W"], arrays["U"], arrays["V"],
        alpha=number("alpha"), beta=number("beta"), b=arrays["b"],
        z=arrays["z"], activation=scalars["activation"])
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
    return p, train_state
