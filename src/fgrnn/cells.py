"""Recurrent cells: graph RNN with weighted residual, readout.

The cell update is

    h_tilde = act(conv(x; W) + conv(h_prev; U) + b 1^T)
    h       = alpha * h_tilde + beta * h_prev

with alpha = 1, beta = 0 reducing to the standard graph RNN. The readout
is x_hat = conv(h; V) + z 1^T in the same filter family. Biases b and z
are per-node and broadcast across feature columns. ModelParams keeps the
whole trainable set in one flat vector theta, with named views.

advance is the one forward step: from the previous Step, or from the zero
state, and a step's input term, it runs only the recurrence. A step keeps
h_tilde, h and the basis of h; act' is written in act's output, so
h_tilde is all it needs. unroll is advance over a sequence of input terms
from the zero state: training, evaluation, prediction and the stability
diagnostics all run the recurrence through it, and leave the readout to
their callers, so that a window's input terms and readouts can each be
made in one stacked operation around the per-step loop. rollout is the
one place a prediction becomes the next input: from a carried Step, it
feeds each readout back as the input of the next step. preactivation is
the one pre-activation of a step, readout(p, fam, step.basis) the one
readout, and step_vjp the reverse of one step (training.bptt's), all
built on conv_family's primitives.

A checkpoint holds exactly what train writes: the parameters, the
checksum of the graph they were trained on and the training block (epoch,
Adam step, rate and moments), each entry once. _ENTRIES is the one
statement of that layout: save_checkpoint writes the entries by walking
it, and load_checkpoint reads them by walking it in the same order, so a
line other than the next entry save_checkpoint writes is refused where it
stands. Both take the graph, and load_checkpoint is the one place that
checks that binding: a checkpoint trained on another graph fails at its
graph_checksum line.
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np

from .errors import (ContractViolation, NumericOverflow, ParseError, in_file,
                     read_text)
from .gconv import ChebFamily, FirstOrderFamily
from .graph import Graph, LaplacianSet

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
    checkpoint's Adam moments too. W, U and V have the shapes FAMILIES gives
    at s, the size of W's last axis (K or p), and F, its first: K
    coefficients each, or F x p, p x p and p x F. b and z hold one value
    per node each (fits). They are views into theta, bound once, and alpha
    and beta read and write their slots as Python floats. like(vec) lays
    the same views over another vector of theta's size: a gradient, or a
    copy to perturb.
    """

    def __init__(self, conv_family: str, W, U, V, alpha: float, beta: float,
                 b, z, activation: str = "tanh"):
        if conv_family not in FAMILIES:
            raise ContractViolation(f"unknown family {conv_family!r}")
        if activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {activation!r}")
        self.conv_family, self.activation = conv_family, activation
        arrays = [np.asarray(a, dtype=np.float64) for a in (W, U, V, b, z)]
        self._shapes = [a.shape for a in arrays]  # of W, U, V, b and z
        w, nodes = self._shapes[0], self._shapes[3]
        if not self.fits(nodes[0] if nodes else 0, w[0] if w else 0):
            raise ContractViolation(
                f"{conv_family} W, U, V, b and z of shapes "
                f"{', '.join(map(str, self._shapes))}: need a non-empty W, "
                f"U and V of the shapes FAMILIES gives at W's shape, and b "
                f"and z of one value per node each")
        flat = [a.ravel() for a in arrays]
        self._bind(np.concatenate(flat[:3] + [[alpha, beta]] + flat[3:]))

    def fits(self, n_nodes: int, n_features: int) -> bool:
        """Whether this model runs on frames of n_nodes nodes and
        n_features features: W is not empty, W, U and V have FAMILIES'
        shapes at s, the size of W's last axis, and b and z hold n_nodes
        values each."""
        w = self._shapes[0]
        need = FAMILIES[self.conv_family][1](w[-1] if w else 0, n_features)
        return math.prod(w) > 0 and self._shapes == need + [(n_nodes,)] * 2

    def _bind(self, theta: np.ndarray):
        self.theta, views, off = theta, [], 0
        for shape in self._shapes[:3] + [(), ()] + self._shapes[3:]:
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
    """One step of advance; its prediction is readout(p, fam, basis)."""

    h_tilde: np.ndarray  # act(a) of the pre-activation a; act' reads it
    h: np.ndarray        # alpha * h_tilde + beta * h_prev
    basis: np.ndarray    # basis of h: readout at this step, recurrence at the next


def advance(p: ModelParams, fam, wx: np.ndarray, prev: Step | None) -> Step:
    """The step after prev (None: the zero state) on the input term wx: h
    and the one basis of h, for this step's readout and the next step's
    recurrent term. The zero state adds no recurrent term, no spmm."""
    a = preactivation(p, fam, wx, None if prev is None else prev.basis)
    h_tilde = ACTIVATIONS[p.activation][0](a)
    h = p.alpha * h_tilde + p.beta * (np.zeros(wx.shape) if prev is None
                                      else prev.h)
    return Step(h_tilde, h, fam.basis(h))


def unroll(p: ModelParams, fam, terms):
    """advance from the zero state, one Step per input term combine(W,
    basis(x_t)) of terms: a stack made in one product for a window
    (training.bptt), or input_terms(p, fam, frames) streamed. The readout
    is the caller's; NumericOverflow names the step that overflowed."""
    step = None
    for t, wx in enumerate(terms):
        try:
            step = advance(p, fam, wx, step)
        except NumericOverflow as exc:
            raise NumericOverflow(f"step {t + 1}: {exc}") from None
        yield step


def rollout(p: ModelParams, fam, last: Step, horizon: int):
    """horizon predictions: readout(last), then the readout of each step
    fed the prediction before it, and no step after the last prediction;
    NumericOverflow names the fed-back step that overflowed."""
    for k in range(horizon):
        if k:
            try:
                last = advance(p, fam, fam.combine(p.W, fam.basis(x_hat)),
                               last)
            except NumericOverflow as exc:
                raise NumericOverflow(f"fed-back step {k}: {exc}") from None
        x_hat = readout(p, fam, last.basis)
        yield x_hat


def step_vjp(p: ModelParams, fam, v: np.ndarray, dact: np.ndarray,
             pre: np.ndarray | None = None) -> np.ndarray:
    """dJ/dh_{t-1} from v = dJ/dh_t, the reverse of one unroll step:
    adjoint(pre + pre_adjoint(U, alpha * v * dact)) + beta * v, dact being
    act'(a_t) and pre the readout's share (a step of pre_adjoint) or None."""
    mixed = fam.pre_adjoint(p.U, p.alpha * v * dact)
    return fam.adjoint(mixed if pre is None else pre + mixed) + p.beta * v


# --- checkpoint IO ---------------------------------------------------------

# every entry of a checkpoint, in the order save_checkpoint writes them and
# load_checkpoint reads them: True for a 'name rows cols' array block,
# False for a 'name value' line. Each is required but use_plain_laplacian.
_ENTRIES = (
    ("family", False), ("activation", False),
    ("use_plain_laplacian", False), ("graph_checksum", False),
    ("alpha", False), ("beta", False),
    ("W", True), ("U", True), ("V", True), ("b", True), ("z", True),
    ("epoch", False), ("adam_step", False), ("lr", False),
    ("adam_m", True), ("adam_v", True),
)


def save_checkpoint(p: ModelParams, path, graph: Graph, train_state: dict):
    """Plain-text checkpoint of p, trained on graph, with its training
    block; round-trips exactly at 17 significant digits."""
    values = {"family": p.conv_family, "activation": p.activation,
              # the format's node-operator entry; L1 is the only operator
              "use_plain_laplacian": 0, "graph_checksum": graph.checksum(),
              "alpha": p.alpha, "beta": p.beta, **train_state,
              **{name: getattr(p, name) for name in "WUVbz"}}
    with open(path, "w") as fh:
        fh.write("fgrnn-checkpoint 1\n")
        for name, is_array in _ENTRIES:
            value = values[name]
            if is_array:
                arr = np.atleast_2d(np.asarray(value, dtype=np.float64))
                fh.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
                for row in arr:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
            elif isinstance(value, float):
                fh.write(f"{name} {value:.17g}\n")
            else:
                fh.write(f"{name} {value}\n")


def _read_array(lines, k, name, rows, cols):
    """The rows x cols array name whose header is lines[k]."""
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
    line other than the next entry save_checkpoint writes (the entries
    come in _ENTRIES' order, and the file ends after adam_v), an array
    block that does not match its header or holds a non-finite value, a W
    block of no value, an unknown family or activation, a node-operator
    entry other than 0 (the entry is optional; L1 is the only node
    operator), a non-finite alpha or beta, a negative epoch, adam_step or
    adam_v value, or Adam moments of another length than the parameters.
    The file's graph_checksum must be graph.checksum(), and each of W, U,
    V, b and z must be, in 2-D, the shape ModelParams takes at W's column
    count, the graph's N and n_features (_check_shapes).
    """
    lines = read_text(path).splitlines()
    with in_file(path):
        return _parse_checkpoint(lines, graph, n_features)


def _check_shapes(arrays, where, family, n_nodes, n_features) -> dict:
    """{name: shape} of b and z (N values) and W, U and V (FAMILIES' at W's
    column count) once each block, as written in 2-D, has that shape; else
    ParseError at the first that does not."""
    key, shapes = FAMILIES[family]
    size = arrays["W"].shape[1]
    need = dict(zip("bzWUV", [(n_nodes,)] * 2 + shapes(size, n_features)))
    for name, shape in need.items():
        got, block = arrays[name].shape, (1,) * (2 - len(shape)) + shape
        if got != block:
            raise ParseError(
                f"checkpoint {name} is {got[0]} x {got[1]}, but N={n_nodes} "
                f"nodes and F={n_features} features need {block[0]} x "
                f"{block[1]} in a {family} model of {key.upper()}={size}, "
                f"W's column count", line=where[name])
    return need


def _parse_checkpoint(lines, graph, n_features):
    if not lines or lines[0] != "fgrnn-checkpoint 1":
        raise ParseError("not a checkpoint file", line=1)
    scalars, arrays, where = {}, {}, {}
    k = 1
    for name, is_array in _ENTRIES:
        parts = lines[k].split() if k < len(lines) else []
        if name == "use_plain_laplacian" and parts[:1] != [name]:
            continue  # optional on read, so that a writer may drop it
        if k == len(lines):
            raise ParseError(f"the file ends without a {name!r} entry",
                             line=k)
        if (parts[:1] != [name] or len(parts) != 2 + is_array
                or is_array and not "".join(parts[1:]).isdecimal()):
            form = "rows cols" if is_array else "value"
            raise ParseError(f"expected '{name} {form}', got {lines[k]!r}",
                             line=k + 1)
        where[name] = k + 1
        if is_array:
            arrays[name] = _read_array(lines, k, name, *map(int, parts[1:]))
            k += arrays[name].shape[0] + 1
        else:
            scalars[name] = parts[1]
            k += 1
    if k < len(lines):
        raise ParseError(f"expected the end of the file after adam_v, got "
                         f"{lines[k]!r}", line=k + 1)

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
    if arrays["W"].size == 0:  # W's column count sizes every filter
        raise ParseError("W: a filter needs at least one coefficient",
                         line=where["W"])
    if scalars["graph_checksum"] != graph.checksum():
        raise ParseError(
            f"graph_checksum {scalars['graph_checksum']} is not the "
            f"graph's {graph.checksum()}: the checkpoint was trained on "
            f"another graph", line=where["graph_checksum"])
    need = _check_shapes(arrays, where, scalars["family"], graph.n_nodes,
                         n_features)
    p = ModelParams(
        scalars["family"], alpha=number("alpha"), beta=number("beta"),
        activation=scalars["activation"],
        **{name: arrays[name].reshape(shape) for name, shape in need.items()})
    for key in ("adam_m", "adam_v"):
        if arrays[key].size != p.theta.size:
            raise ParseError(f"{key}: {arrays[key].size} values for "
                             f"{p.theta.size} parameters", line=where[key])
    if (arrays["adam_v"] < 0).any():  # a mean of squares, under a sqrt
        raise ParseError("adam_v: values must be >= 0", line=where["adam_v"])
    train_state = {
        "epoch": count("epoch"),
        "adam_step": count("adam_step"),
        "lr": number("lr"),
        "adam_m": arrays["adam_m"].ravel(),
        "adam_v": arrays["adam_v"].ravel(),
    }
    return p, train_state
