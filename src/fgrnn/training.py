"""The loss, truncated BPTT, Adam, gradient verification, parameter counts.

The reverse pass is exact backpropagation through the unrolled cell,
including the residual weights alpha and beta (dJ/dalpha sums
<dJ/dh_t, h_tilde_t>; dJ/dbeta sums <dJ/dh_t, h_{t-1}>, with the
recursive path through h_prev handled by the accumulated hidden-state
gradient). Every gradient is verified against central finite
differences in the test suite.

BPTT runs the recurrence, and only the recurrence, one step at a time;
everything else in a window is one stacked operation. Per step:
  * forward (cells.advance): the pre-activation from the step's input term
    and combine(U, basis(h_{t-1})), then h_t, then the basis of h_t, which
    serves both the readout at t and the recurrent term at t+1;
  * reverse (cells.step_vjp): dJ/dh_t = adjoint(the readout's share + the
    U pre_adjoint of alpha dJ/dh_{t+1} act'(a_{t+1})) + beta dJ/dh_{t+1}.
Once per window:
  * act'(a_t) of every step from the stacked h_tilde_t = act(a_t), which
    dJ/dalpha reads too, and after the reverse loop every dJ/da_t from it;
  * the input bases of every step, and with them the input terms
    combine(W, basis(x_t)): train carries them from window to window
    (_with_input_bases), and a window's one product over its
    column-stacked input frames covers only the frames it adds to those
    of the window before; bptt called without them makes them all;
  * the readout x_hat = combine(V, basis(h_t)) + z and the step losses of
    every step, with one product by L for the regularizer and its
    gradient when lambda_reg > 0;
  * the readout's share of every step's dJ/dh_t, pre_adjoint(V, dJ/dx_hat)
    of the stack: for Chebyshev the whole adjoint, one stacked product per
    order; for first-order dJ/dx_hat V^T, which each step adds to its
    dJ/da_{t+1} U^T before its one sparse product (gconv adjoint);
  * the coefficient gradients of W, U and V, each coeff_grad of a stack
    of stored bases, with no sparse product. dJ/dx of the input branch,
    which no parameter needs, is never formed.
spmm treats columns independently, so every stacked product gives each
step bit for bit what a product of its own would. A window of T steps
makes (K-1)(1 + 2T) sparse products with Chebyshev filters of order K and
1 + 2T first-order ones (about 2(K-1) and 2 per transition), plus one when
lambda_reg > 0. Of those, the K-1 (or 1) input-basis products are narrower
in train, over the frames a window adds, and a window that adds none, at
the end of the training frames, makes none: in each epoch of train,
each training input frame gets its bases once, however far the windows
overlap. teacher_forced_losses, the one forward-only loss pass (of
evaluate, eval and the finite-difference check), streams its frames one at
a time through cells.input_terms instead, so it holds no window-sized
stacks. Each pass first refuses frames that the model does not fit
(_check_fit, before any step), so its predictions have the targets'
shape. Both score through one step loss, _step_losses (bptt a window's
stack of steps, teacher_forced_losses a stack of one per step), and both
refuse a non-finite step loss through one check.

Adam's decay rates and epsilon are module constants; train passes
adam_step the epoch's decayed rate on every step, so an AdamState holds
only the step count and the two moments. train resumes from a
checkpoint's (params, train_state), and the TrainRun it returns knows its
first epoch and its checkpoint's training block (TrainRun.train_state).
parse_config reads a config dataclass from the one {key: text} dict that
the CLI merges from its --config file and its command line, and names
the file and line, or the command line, of a key it refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .cells import (ACTIVATIONS, FAMILIES, ModelParams, conv_family,
                    input_terms, readout, step_vjp, unroll)
from .data import FrameSequence
from .errors import (ContractViolation, NumericOverflow, ParseError,
                     check_config, place_keys)
from .gconv import over_steps
from .graph import Graph, LaplacianSet, build_laplacians
from .sparse import spmm


# --- the loss and BPTT --------------------------------------------------------

def teacher_forced_losses(p: ModelParams, lap: LaplacianSet,
                          frames: np.ndarray,
                          lambda_reg: float = 0.0) -> list:
    """The loss of each transition of frames, one step at a time from the
    zero state: step t consumes frame t and is scored against frame t+1.
    The forward-only pass of evaluate, eval and the finite-difference
    check. Each step is scored by _step_losses as a stack of one, its
    gradient dropped, so bptt's loss over a window is their sum."""
    _check_fit(p, frames, "teacher_forced_losses")
    fam = conv_family(p, lap)
    steps = unroll(p, fam, input_terms(p, fam, frames[:-1]))
    return _finite_losses([
        _step_losses(readout(p, fam, step.basis)[None], x[None], lap,
                     lambda_reg)[0].item()
        for step, x in zip(steps, frames[1:])])


def _check_fit(p: ModelParams, frames: np.ndarray, caller: str):
    """Refuses, naming both shapes, (T, N, F) frames that p does not fit,
    then frames of no transition to score (T < 2)."""
    if frames.ndim != 3 or not p.fits(*frames.shape[1:]):
        raise ContractViolation(
            f"{caller}: frames of shape {frames.shape} do not fit the "
            f"{p.conv_family} model's W, U, V, b and z of shapes "
            f"{', '.join(str(a.shape) for a in (p.W, p.U, p.V, p.b, p.z))}")
    if len(frames) < 2:
        raise ContractViolation(f"{caller}: frames of shape {frames.shape} "
                                f"hold no transition; a pass needs at least "
                                f"2 frames")


def _finite_losses(losses: list) -> list:
    """losses, once each is finite; else NumericOverflow names the step."""
    for t, loss in enumerate(losses):
        if not math.isfinite(loss):
            raise NumericOverflow(f"step {t + 1}: non-finite loss")
    return losses


def _step_losses(x_hats: np.ndarray, targets: np.ndarray, lap: LaplacianSet,
                 lambda_reg: float):
    """(per-step loss, dJ/dx_hat) of (T, N, F) stacks of predictions and
    targets, the package's one loss.

    A step's loss is sum((x_hat - x)^2) + lambda_reg * tr(x_hat^T L x_hat).
    The regularizer is applied to the prediction so the term carries
    gradient; applied to the ground truth it would be a constant. One
    product by L serves the regularizer of every step and its gradient.
    """
    if lambda_reg < 0:
        raise ContractViolation("lambda_reg must be >= 0")
    d = x_hats - targets
    losses = np.sum(d * d, axis=(1, 2))
    d_xhat = 2.0 * d
    if lambda_reg > 0.0:
        lx = over_steps(partial(spmm, lap.laplacian), x_hats)
        losses = losses + lambda_reg * np.sum(x_hats * lx, axis=(1, 2))
        d_xhat += 2.0 * lambda_reg * lx
    return losses, d_xhat


def bptt(p: ModelParams, lap: LaplacianSet, window: np.ndarray,
         lambda_reg: float = 0.0, bases: np.ndarray | None = None):
    """Exact gradients of the summed step losses (_step_losses) over one
    window (the plain prediction loss when lambda_reg is 0).

    window is a (T_w+1, N, F) array; step t consumes frame t and is
    scored against frame t+1. bases, when given, is
    over_steps(fam.basis, window[:-1]) of p's family, the input bases that
    train carries from window to window; None makes them here. Returns
    (loss, gradient), the gradient laid out as p (p.like): grad.theta is
    dJ/dtheta, grad.W is dJ/dW, and so on.
    """
    window = np.asarray(window, dtype=np.float64)
    _check_fit(p, window, "bptt")
    fam = conv_family(p, lap)
    if bases is None:
        bases = over_steps(fam.basis, window[:-1])
    elif bases.shape[1:] != window[:-1].shape:
        raise ContractViolation(f"bptt: bases of shape {bases.shape} for "
                                f"input frames {window[:-1].shape}")

    # bx[:, t] is the basis of input frame t and bh[:, t] that of h_t; the
    # input terms, the readouts and the losses of every step are each made
    # at once, so that the unroll runs only the recurrence
    bx = np.ascontiguousarray(bases)
    steps = list(unroll(p, fam, fam.combine(p.W, bx)))
    bh = np.stack([step.basis for step in steps], axis=1)
    losses, d_xhat = _step_losses(readout(p, fam, bh), window[1:], lap,
                                  lambda_reg)
    losses = _finite_losses(losses.tolist())

    h_tildes = np.stack([step.h_tilde for step in steps])
    dact = ACTIVATIONS[p.activation][1](h_tildes)
    # the readout upstream's share of every dJ/dh_t at once
    readout_adj = fam.pre_adjoint(p.V, d_xhat)
    # dJ/dh_t, last step first: the last h_t feeds the readout alone
    g_h = [fam.adjoint(readout_adj[-1])]
    for t in reversed(range(len(steps) - 1)):
        g_h.append(step_vjp(p, fam, g_h[-1], dact[t + 1], readout_adj[t]))
    g_h = g_h[::-1]
    # dJ/da_t a step at a time, then stacked: made by one product over the
    # stacked g_h, it left glibc malloc holding about 14 MB more after an
    # N=1502 train
    g_a = np.stack([p.alpha * g * d for g, d in zip(g_h, dact)])
    g_h = np.stack(g_h)

    # every coefficient gradient is read from the stored bases
    states = np.stack([step.h for step in steps])
    grad = p.like(np.empty_like(p.theta))
    grad.W[...] = fam.coeff_grad(p.W, bx, g_a)
    grad.U[...] = fam.coeff_grad(p.U, bh[:, :-1], g_a[1:])
    grad.V[...] = fam.coeff_grad(p.V, bh, d_xhat)
    grad.alpha = np.sum(g_h * h_tildes)
    grad.beta = np.sum(g_h[1:] * states[:-1])
    grad.b[...] = g_a.sum(axis=(0, 2))
    grad.z[...] = d_xhat.sum(axis=(0, 2))
    if not np.all(np.isfinite(grad.theta)):
        raise NumericOverflow("non-finite gradient in window")
    return sum(losses), grad


def finite_difference_check(p: ModelParams, lap: LaplacianSet,
                            window: np.ndarray, step: float = 1e-5,
                            lambda_reg: float = 0.0) -> float:
    """Max relative error between BPTT and central finite differences."""
    if step <= 0:
        raise ContractViolation("step must be > 0")
    _, grad = bptt(p, lap, window, lambda_reg)
    analytic = grad.theta
    work = p.like(p.theta.copy())
    worst = 0.0
    for k in range(p.theta.size):
        work.theta[k] = p.theta[k] + step
        j_plus = sum(teacher_forced_losses(work, lap, window, lambda_reg))
        work.theta[k] = p.theta[k] - step
        j_minus = sum(teacher_forced_losses(work, lap, window, lambda_reg))
        work.theta[k] = p.theta[k]
        numeric = (j_plus - j_minus) / (2.0 * step)
        denom = max(abs(analytic[k]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[k] - numeric) / denom)
    return worst


# --- Adam --------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    n_params: int
    step: int = 0
    first_moment: np.ndarray = field(default=None)
    second_moment: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.first_moment is None:
            self.first_moment = np.zeros(self.n_params)
        if self.second_moment is None:
            self.second_moment = np.zeros(self.n_params)


def adam_step(state: AdamState, p: ModelParams, grad: ModelParams, lr: float):
    """One bias-corrected Adam update of p.theta at rate lr, in place;
    returns (state, p). grad is laid out as p (see bptt)."""
    g = grad.theta
    if len(g) != state.n_params:
        raise ContractViolation("adam_step: gradient size mismatch")
    state.step += 1
    state.first_moment = ADAM_BETA1 * state.first_moment + (1 - ADAM_BETA1) * g
    state.second_moment = (ADAM_BETA2 * state.second_moment
                           + (1 - ADAM_BETA2) * g * g)
    m_hat = state.first_moment / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2 ** state.step)
    p.theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return state, p


# --- parameter counting -------------------------------------------------------

# the paper's baselines, counted but not trained: (size key or None, count(N, size))
_BASELINES = {"dense": (None, lambda n, s: 3 * n * n + 2 * n + 2),
              "lstm_dense": (None, lambda n, s: 8 * n * n + 4 * n),
              "lstm_gcn": ("k", lambda n, s: 4 * n + 8 * s)}
COUNTED_FAMILIES = (*FAMILIES, *_BASELINES)


def count_params(family: str, n: int, k: int = 0, p: int = 0) -> int:
    """Trainable-parameter count of a family of COUNTED_FAMILIES at N nodes."""
    if n < 1:
        raise ContractViolation("count_params: n must be positive")
    if family in FAMILIES:
        key, shapes = FAMILIES[family]
        # the paper's table counts first-order weights at F = P
        count = lambda n, s: sum(math.prod(x) for x in shapes(s, s)) + 2 * n + 2
    elif family in _BASELINES:
        key, count = _BASELINES[family]
    else:
        raise ContractViolation(f"count_params: unknown family {family!r}")
    size = {"k": k, "p": p, None: 1}[key]
    if size < 1:
        raise ContractViolation(f"count_params: {family} needs {key.upper()} >= 1")
    return count(n, size)


# --- configuration and the training loop --------------------------------------

# (key, test, requirement) for the TrainConfig values; check_config also
# requires every float to be finite
_CONFIG_RANGES = (
    ("family", lambda v: v in FAMILIES, f"one of {', '.join(FAMILIES)}"),
    ("k", lambda v: v >= 1, ">= 1"),
    ("p", lambda v: v >= 1, ">= 1"),
    ("t_w", lambda v: v >= 1, ">= 1"),
    ("stride", lambda v: v >= 0, ">= 0 (0 means t_w)"),
    ("epochs", lambda v: v >= 0, ">= 0"),
    ("lr", lambda v: v > 0, "> 0"),
    ("lr_decay", lambda v: v > 0, "> 0"),
    ("split", lambda v: 0 < v < 1, "in (0, 1)"),
    ("activation", lambda v: v in ACTIVATIONS,
     f"one of {', '.join(ACTIVATIONS)}"),
    ("lambda_reg", lambda v: v >= 0, ">= 0"),
    ("seed", lambda v: v >= 0, ">= 0"),
    ("init_scale", lambda v: v >= 0 and math.isfinite(2 * v),
     ">= 0, and finite when doubled"),
)


@dataclass
class TrainConfig:
    family: str = "first_order"
    k: int = 3            # Chebyshev order
    p: int = 3            # hidden width for the first-order family
    t_w: int = 10         # BPTT window length
    stride: int = 0       # 0 means stride = t_w (non-overlapping)
    epochs: int = 10
    lr: float = 1e-2
    lr_decay: float = 0.9
    split: float = 0.8
    activation: str = "tanh"
    lambda_reg: float = 0.0  # > 0 adds the graph regularizer to the loss
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        check_config(self, _CONFIG_RANGES)

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else self.t_w

    def rate(self, epochs_done: int) -> float:
        """The learning rate of the last of epochs_done epochs (lr when
        none ran): the rate train gives that epoch and its checkpoint
        records."""
        return self.lr * self.lr_decay ** max(epochs_done - 1, 0)


def parse_key_values(text: str) -> dict:
    """{key: (value, line)} from 'key = value' lines; '#' starts a comment.
    A key set twice raises ParseError at its second line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ParseError(f"config key {key!r} set twice, first at line "
                             f"{values[key][1]}", line=lineno)
        values[key] = (val.strip(), lineno)
    return values


def parse_config(values: dict, cls, sources=None):
    """A cls, any config dataclass, from {key: text value}.

    Each value is read as the type of its field's default: int, float or
    str. An unknown key or a value that does not convert raises ParseError
    naming the key and, when sources maps the key to a (path, line) pair,
    that place. cls itself checks the ranges and raises ContractViolation,
    which is raised again with the place of the key it names (place_keys).
    """
    sources = sources or {}
    kinds = {f.name: type(f.default) for f in fields(cls)}
    kwargs = {}
    for key, val in values.items():
        path, line = sources.get(key, (None, None))
        if key not in kinds:
            raise ParseError(f"unknown config key {key!r}", line, path)
        kind = kinds[key]
        try:
            kwargs[key] = kind(val)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ParseError(f"config key {key!r} must be {expected}, "
                             f"got {val!r}", line, path) from None
    try:
        return cls(**kwargs)
    except ContractViolation as exc:
        place_keys(exc, sources)
        raise


def init_params(cfg: TrainConfig, n_nodes: int, n_features: int) -> ModelParams:
    """Small symmetric filter init; alpha = beta = 0.5; zero biases."""
    rng = np.random.default_rng(cfg.seed)
    s = cfg.init_scale + 0.0  # -0.0 draws as 0.0, every other float as is
    key, shapes = FAMILIES[cfg.family]
    w, u, v = (rng.uniform(-s, s, size=shape)
               for shape in shapes(getattr(cfg, key), n_features))
    return ModelParams(
        cfg.family, w, u, v, alpha=0.5, beta=0.5, b=np.zeros(n_nodes),
        z=np.zeros(n_nodes), activation=cfg.activation)


@dataclass
class TrainRun:
    cfg: TrainConfig
    epoch_losses: list          # (train_loss, test_loss) per epoch run
    alpha_history: list
    beta_history: list
    final_params: ModelParams
    adam: AdamState
    epochs_done: int            # the resumed checkpoint's epochs included
    aborted: bool = False

    @property
    def first_epoch(self) -> int:
        """Epochs done before this run: those of the checkpoint it resumed."""
        return self.epochs_done - len(self.epoch_losses)

    @property
    def train_state(self) -> dict:
        """The training block of this run's checkpoint: the rate is the
        last epoch's, the resumed checkpoint's included."""
        return {"epoch": self.epochs_done, "adam_step": self.adam.step,
                "lr": self.cfg.rate(self.epochs_done),
                "adam_m": self.adam.first_moment,
                "adam_v": self.adam.second_moment}


def _windows(n_train: int, t_w: int, stride: int):
    # train refuses n_train < 2 and TrainConfig t_w < 1, so every window
    # holds at least 2 frames
    return [(s, min(s + t_w + 1, n_train))
            for s in range(0, n_train - 1, stride)]


def _with_input_bases(fam, frames: np.ndarray, windows):
    """(s, e, bases) for each window (s, e) of _windows, bases being the
    input bases bptt takes for frames[s:e].

    Windows start and end in order, so a window's input frames s..e-2
    begin with those it shares with the window before. Their bases are
    taken from that window's, and one stacked product makes those of the
    frames it adds, so each frame's bases are made once per call, however
    far the windows overlap. spmm treats columns independently, so they
    are bit for bit those of a product over the whole window. Only the
    bases of the window yielded are held between windows.
    """
    bases, lo, hi = None, 0, 0  # bases of input frames lo..hi-1
    for s, e in windows:
        parts = [bases[:, s - lo:]] if s < hi else []
        if max(s, hi) < e - 1:
            parts.append(over_steps(fam.basis, frames[max(s, hi):e - 1]))
        bases = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        del parts  # and with it the window before's bases
        lo, hi = s, e - 1
        yield s, e, bases


def evaluate(p: ModelParams, lap: LaplacianSet, frames: np.ndarray,
             n_train: int):
    """(mean train transition loss, mean test transition loss) of one
    teacher-forced pass over the whole sequence from the zero state.

    The first n_train - 1 transitions are those of the training partition
    frames[:n_train]; the rest score each test frame, the last train frame
    included as the first input, after the state has consumed every
    earlier frame. Raises ContractViolation if either part has no
    transition to score.
    """
    if not 2 <= n_train < len(frames):
        raise ContractViolation(
            f"evaluate: a split after frame {n_train} of {len(frames)} "
            f"leaves a partition with no transition to score")
    losses = teacher_forced_losses(p, lap, frames)
    return (float(np.mean(losses[:n_train - 1])),
            float(np.mean(losses[n_train - 1:])))


# the package checks finiteness itself and aborts the run, instead of numpy
# warning of the overflow first
@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, dataset: FrameSequence, g: Graph,
          resume: tuple | None = None) -> TrainRun:
    """Windowed BPTT + Adam over the training partition, the first
    floor(cfg.split * T) of dataset's T frames; each epoch's losses score
    them and the test frames after them (evaluate).

    resume is a checkpoint's (params, train_state), as load_checkpoint
    returns them: the run goes on from that epoch, Adam step and moments,
    and updates params in place. Without it the run starts from
    init_params, the one reader of cfg's model keys (family, k, p and
    activation). Raises ContractViolation if cfg.split leaves fewer than
    2 training frames. An overflow aborts the run with the parameters and
    Adam state of the last epoch it completed, or those it started from.
    """
    n_train = math.floor(cfg.split * dataset.n_frames)
    if n_train < 2:
        raise ContractViolation(
            f"config key 'split' = {cfg.split!r} leaves {n_train} of "
            f"{dataset.n_frames} frames to train on; a window needs 2",
            "split")
    if resume is None:
        p = init_params(cfg, dataset.n_nodes, dataset.n_features)
        adam, epochs_done = AdamState(p.theta.size), 0
    else:
        p, state = resume
        adam = AdamState(p.theta.size, state["adam_step"],
                         state["adam_m"].copy(), state["adam_v"].copy())
        epochs_done = state["epoch"]
    lap = build_laplacians(g, scaled=False)  # made on a Chebyshev read
    windows = _windows(n_train, cfg.t_w, cfg.effective_stride)
    fam = conv_family(p, lap)

    epoch_losses, alphas, betas = [], [], []
    aborted = False
    try:
        for epoch in range(epochs_done, epochs_done + cfg.epochs):
            done = (p.theta.copy(), adam.step, adam.first_moment.copy(),
                    adam.second_moment.copy())
            lr = cfg.rate(epoch + 1)
            for s, e, bases in _with_input_bases(fam, dataset.frames,
                                                 windows):
                _, grad = bptt(p, lap, dataset.frames[s:e], cfg.lambda_reg,
                               bases=bases)
                adam_step(adam, p, grad, lr)
            epoch_losses.append(evaluate(p, lap, dataset.frames, n_train))
            alphas.append(p.alpha)
            betas.append(p.beta)
            epochs_done = epoch + 1
    except NumericOverflow:
        # abort at the last completed epoch; caller decides how to report
        p.theta[...], adam.step, adam.first_moment, adam.second_moment = done
        aborted = True
    return TrainRun(cfg, epoch_losses, alphas, betas, p, adam, epochs_done,
                    aborted)


def history_csv(run: TrainRun) -> str:
    """The run's epochs as CSV rows, numbered on from run.first_epoch,
    each with the rate train gave it (run.cfg.rate)."""
    lines = ["epoch,train_loss,test_loss,alpha,beta,lr"]
    for i, (tr, te) in enumerate(run.epoch_losses):
        epoch = run.first_epoch + i + 1
        lines.append(f"{epoch},{tr:.17g},{te:.17g},"
                     f"{run.alpha_history[i]:.17g},"
                     f"{run.beta_history[i]:.17g},{run.cfg.rate(epoch):.17g}")
    return "\n".join(lines) + "\n"
