"""Recurrent cells: graph RNN with weighted residual, readout.

The cell update is

    h_tilde = act(conv(x; W) + conv(h_prev; U) + b 1^T)
    h       = alpha * h_tilde + beta * h_prev

with alpha = 1, beta = 0 reducing to the standard graph RNN. The readout
is x_hat = conv(h; V) + z 1^T in the same filter family. Biases b and z
are per-node and broadcast across feature columns.

unroll is the forward pass: training, evaluation, prediction and the
stability diagnostics all run the recurrence through it. fgrnn_step is
the one-step reference on cheb_conv / first_order_conv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NamedTuple, Union

import numpy as np

from .errors import ContractViolation, NumericOverflow, ParseError, in_file
from .gconv import (ChebFamily, ChebFilter, FeatureTransform, FirstOrderFamily,
                    cheb_conv, first_order_conv)
from .graph import LaplacianSet

FAMILIES = ("chebyshev", "first_order")

ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2),
    "relu": (lambda a: np.maximum(a, 0.0), lambda a: (a > 0.0).astype(np.float64)),
    "sigmoid": (lambda a: 1.0 / (1.0 + np.exp(-a)),
                lambda a: (s := 1.0 / (1.0 + np.exp(-a))) * (1.0 - s)),
}

Filter = Union[ChebFilter, FeatureTransform]


def filter_array(filt: Filter) -> np.ndarray:
    """The trainable array of a filter: Chebyshev coefficients or weights."""
    return filt.coeffs if isinstance(filt, ChebFilter) else filt.weights


@dataclass
class ModelParams:
    """Full trainable set {W, U, V, alpha, beta, b, z} for one filter family."""

    conv_family: str
    input_filter: Filter       # W
    recurrent_filter: Filter   # U
    readout_filter: Filter     # V
    alpha: float
    beta: float
    bias: np.ndarray           # b, length N
    readout_bias: np.ndarray   # z, length N
    activation: str = "tanh"
    use_plain_laplacian: bool = field(default=False)

    def __post_init__(self):
        if self.conv_family not in FAMILIES:
            raise ContractViolation(f"unknown family {self.conv_family!r}")
        if self.activation not in ACTIVATIONS:
            raise ContractViolation(f"unknown activation {self.activation!r}")
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.readout_bias = np.asarray(self.readout_bias, dtype=np.float64)

    def copy(self) -> "ModelParams":
        def cp(f):
            return type(f)(filter_array(f).copy())
        return replace(self, input_filter=cp(self.input_filter),
                       recurrent_filter=cp(self.recurrent_filter),
                       readout_filter=cp(self.readout_filter),
                       bias=self.bias.copy(), readout_bias=self.readout_bias.copy())


def conv_apply(p: ModelParams, lap: LaplacianSet, x: np.ndarray,
               filt: Filter) -> np.ndarray:
    if p.conv_family == "chebyshev":
        return cheb_conv(lap, x, filt)
    return first_order_conv(lap, x, filt, p.use_plain_laplacian)


def conv_family(p: ModelParams, lap: LaplacianSet):
    """The basis / combine / coefficient-gradient primitives of p's family."""
    if p.conv_family == "chebyshev":
        # one basis length serves W, U and V, even if their orders differ
        return ChebFamily(lap, max(f.order for f in (
            p.input_filter, p.recurrent_filter, p.readout_filter)))
    return FirstOrderFamily(lap, p.use_plain_laplacian)


def preactivation(p: ModelParams, lap: LaplacianSet, h_prev: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    a = (conv_apply(p, lap, x, p.input_filter)
         + conv_apply(p, lap, h_prev, p.recurrent_filter)
         + p.bias[:, None])
    if not np.all(np.isfinite(a)):
        raise NumericOverflow("non-finite pre-activation")
    return a


def fgrnn_step(p: ModelParams, lap: LaplacianSet, h_prev: np.ndarray,
               x: np.ndarray):
    """One recurrent step; returns (h_tilde, h)."""
    a = preactivation(p, lap, h_prev, x)
    act = ACTIVATIONS[p.activation][0]
    h_tilde = act(a)
    h = p.alpha * h_tilde + p.beta * h_prev
    return h_tilde, h


def readout(p: ModelParams, lap: LaplacianSet, h: np.ndarray) -> np.ndarray:
    return conv_apply(p, lap, h, p.readout_filter) + p.readout_bias[:, None]


def _hidden_width(p: ModelParams, n_features: int) -> int:
    if p.conv_family == "chebyshev":
        return n_features
    return p.input_filter.weights.shape[1]


class Step(NamedTuple):
    """One step of unroll."""

    a: np.ndarray        # pre-activation
    h_tilde: np.ndarray  # act(a)
    h: np.ndarray        # alpha * h_tilde + beta * h_prev
    basis: np.ndarray    # basis of h: readout at this step, recurrence at the next
    x_hat: np.ndarray    # prediction of the next frame


def unroll(p: ModelParams, fam, input_bases, h0: np.ndarray | None = None,
           feedback: int = 0):
    """The forward recurrence, one Step per input.

    fam is conv_family(p, lap) and input_bases yields fam.basis of each
    input frame. After them come `feedback` more steps, each fed the
    previous prediction. The state starts at h0, or at zero when h0 is
    None; a zero state adds no recurrent term and no sparse product. Each
    step takes one basis of h_t, which serves both the readout at t and
    the recurrent term at t+1.
    """
    act = ACTIVATIONS[p.activation][0]
    h, bh, x_hat = h0, (None if h0 is None else fam.basis(h0)), None
    for t, bx in enumerate(chain(input_bases, repeat(None, feedback))):
        if bx is None:
            if x_hat is None:
                raise ContractViolation("unroll: feedback needs an input step")
            bx = fam.basis(x_hat)
        if h is None:
            h = np.zeros((bx.shape[1], _hidden_width(p, bx.shape[2])))
        a = fam.combine(p.input_filter, bx)
        if bh is not None:
            a = a + fam.combine(p.recurrent_filter, bh)
        a = a + p.bias[:, None]
        if not np.all(np.isfinite(a)):
            raise NumericOverflow(f"step {t + 1}: non-finite pre-activation")
        h_tilde = act(a)
        h = p.alpha * h_tilde + p.beta * h
        bh = fam.basis(h)
        x_hat = fam.combine(p.readout_filter, bh) + p.readout_bias[:, None]
        yield Step(a, h_tilde, h, bh, x_hat)


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
        fh.write(f"use_plain_laplacian {int(p.use_plain_laplacian)}\n")
        fh.write(f"graph_checksum {graph_checksum}\n")
        fh.write(f"alpha {p.alpha:.17g}\n")
        fh.write(f"beta {p.beta:.17g}\n")
        for name, filt in (("W", p.input_filter), ("U", p.recurrent_filter),
                           ("V", p.readout_filter)):
            _write_array(fh, name, filter_array(filt))
        _write_array(fh, "b", p.bias)
        _write_array(fh, "z", p.readout_bias)
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
        return np.array(block, dtype=np.float64).reshape(rows, cols)
    except ValueError:
        raise ParseError(f"{name}: the {rows} lines after the header are not "
                         f"{rows} x {cols} numbers", line=k + 1) from None


def load_checkpoint(path):
    """Returns (ModelParams, graph_checksum, train_state or None).

    Raises ParseError naming the file and line for a truncated file, an
    array block that does not match its header, a b or z block of more
    than one row, a missing entry, or a non-finite alpha or beta.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    with in_file(path):
        return _parse_checkpoint(lines)


def _parse_checkpoint(lines):
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

    need(("family", "activation", "graph_checksum", "alpha", "beta"), scalars)
    need(("W", "U", "V", "b", "z"), arrays)
    for key in ("b", "z"):
        if arrays[key].shape[0] != 1:
            raise ParseError(f"{key}: expected 1 row of per-node values, got "
                             f"{arrays[key].shape[0]}", line=where[key])
    family = scalars["family"]
    wrap = ((lambda a: ChebFilter(a.ravel())) if family == "chebyshev"
            else FeatureTransform)
    p = ModelParams(
        conv_family=family,
        input_filter=wrap(arrays["W"]),
        recurrent_filter=wrap(arrays["U"]),
        readout_filter=wrap(arrays["V"]),
        alpha=number("alpha"),
        beta=number("beta"),
        bias=arrays["b"].ravel(),
        readout_bias=arrays["z"].ravel(),
        activation=scalars["activation"],
        use_plain_laplacian=("use_plain_laplacian" in scalars
                             and bool(number("use_plain_laplacian", int))),
    )
    train_state = None
    if "epoch" in scalars:
        need(("adam_step", "lr"), scalars)
        need(("adam_m", "adam_v"), arrays)
        train_state = {
            "epoch": number("epoch", int),
            "adam_step": number("adam_step", int),
            "lr": number("lr"),
            "adam_m": arrays["adam_m"].ravel(),
            "adam_v": arrays["adam_v"].ravel(),
        }
    return p, scalars["graph_checksum"], train_state
