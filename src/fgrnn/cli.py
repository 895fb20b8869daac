"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, stability, params, sweep-T.
Exit codes: 0 success, 1 I/O error, 2 config/usage error, 3 numeric
failure.

train writes its checkpoint with cells.save_checkpoint: the model, the
graph's checksum and the run's training block. eval, predict and train
--resume read one with cells.load_checkpoint given the graph and the
frames' feature count, which refuses one trained on another graph.
train --resume also refuses a model key (family, activation, and k or p)
that is set on the command line or in --config and differs from the
checkpoint; the model comes from the checkpoint, and the run's TrainRun
supplies the new checkpoint's training block and the history's epoch
numbers. It refuses an lr or lr_decay, set or left at its default, that
would not have given the checkpoint's last epoch the rate the checkpoint
records. train --append-history adds the run's rows to the history file,
and the CSV header too when the file is new or empty.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from itertools import islice

import numpy as np

from . import data as datamod
from . import training
from .cells import (ACTIVATIONS, FAMILIES, conv_family, input_terms,
                    laplacians_for, load_checkpoint, readout,
                    save_checkpoint, unroll)
from .errors import (ContractViolation, NumericOverflow, ParseError, in_file,
                     place_keys, read_text)
from .graph import load_graph, save_graph
from .stability import (check_node_count, scalar_cell_params, stability_sweep,
                        sweep_csv)
from .training import (TrainConfig, count_params, history_csv, parse_config,
                       parse_key_values, train)


def _config(args, cls):
    """(cfg, sources): the cls that args' --config file and key=value pairs
    set, the pairs winning, and {key: (path, line)} of the keys set in
    either. Each key keeps its source through the merge, the file and its
    line or the command line (line None), so that parse_config, and
    place_keys after it, name the place of a key they refuse."""
    given = {}
    for pair in args.overrides or []:
        if "=" not in pair:
            raise ContractViolation(f"override {pair!r} is not key=value")
        key, _, val = pair.partition("=")
        given[key.strip()] = (val.strip(), "command line", None)
    if args.config:
        text = read_text(args.config)
        with in_file(args.config):
            given = {**{key: (val, args.config, line) for key, (val, line)
                        in parse_key_values(text).items()}, **given}
    sources = {key: (path, line) for key, (_, path, line) in given.items()}
    cfg = parse_config({key: val for key, (val, _, _) in given.items()}, cls,
                       sources)
    return cfg, sources


# --- gen-data ----------------------------------------------------------------

def cmd_gen_data(args):
    cfg, sources = _config(args, datamod.SyntheticConfig)
    try:
        seq, graph = datamod.generate_synthetic(cfg)
    except ContractViolation as exc:  # a value so large the frames overflow
        place_keys(exc, sources)
        raise
    datamod.save_frames(seq, args.out_frames)
    save_graph(graph, args.out_graph)
    print(f"wrote {args.out_frames} ({seq.n_frames} frames, {seq.n_nodes} nodes) "
          f"and {args.out_graph} ({len(graph.edges)} edges)")
    return 0


# --- train -------------------------------------------------------------------

def _load_inputs(frames_path, graph_path):
    seq = datamod.load_frames(frames_path)
    graph = load_graph(graph_path)
    if graph.n_nodes != seq.n_nodes:
        raise ContractViolation(f"graph {graph_path} has {graph.n_nodes} nodes "
                                f"but frames {frames_path} have {seq.n_nodes}")
    return seq, graph


def _train(path, cfg, seq, graph, resume=None):
    """train(cfg, seq, graph, resume), with the frame file at path named in
    front of a refusal of cfg.split: its frames are too few to split."""
    try:
        return train(cfg, seq, graph, resume)
    except ContractViolation as exc:
        if exc.key == "split":
            exc.args = (f"{path}: {exc}",)
        raise


def _need_frames(path, seq, need, why):
    """Refuses a frame file of fewer than `need` frames, naming the file;
    `why` ends the message."""
    if seq.n_frames < need:
        raise ContractViolation(f"{path}: {seq.n_frames} frame(s) {why}")


def _resume(path, graph, n_features, cfg, given):
    """The (params, train_state) of the checkpoint at path, for a train
    run of cfg on graph. Each model key in given, the keys set on the
    command line or in --config, must agree with the checkpoint, and so
    must the rate cfg's lr and lr_decay give its last epoch."""
    p, state = load_checkpoint(path, graph, n_features)
    model = {"family": p.conv_family, "activation": p.activation,
             FAMILIES[p.conv_family][0]: p.W.shape[-1]}
    for key, value in model.items():
        if key in given and getattr(cfg, key) != value:
            raise ContractViolation(
                f"{path}: config key {key!r} is {getattr(cfg, key)!r}, but "
                f"the checkpoint's model has {value!r}")
    rate = cfg.rate(state["epoch"])
    if rate != state["lr"]:
        raise ContractViolation(
            f"{path}: config keys 'lr' = {cfg.lr!r} and 'lr_decay' = "
            f"{cfg.lr_decay!r} give rate {rate!r} at the checkpoint's epoch "
            f"{state['epoch']}, but its lr is {state['lr']!r}")
    return p, state


def cmd_train(args):
    cfg, given = _config(args, TrainConfig)
    seq, graph = _load_inputs(args.frames, args.graph)
    _need_frames(args.frames, seq, 2, "cannot be split into train and test "
                 "frames; train needs 2 or more")
    resume = (_resume(args.resume, graph, seq.n_features, cfg, given)
              if args.resume else None)
    run = _train(args.frames, cfg, seq, graph, resume)
    save_checkpoint(run.final_params, args.out_checkpoint, graph,
                    run.train_state)
    csv = history_csv(run)
    with open(args.out_history, "a" if args.append_history else "w") as fh:
        if fh.tell():
            # appending to a history that already has its header
            csv = csv.split("\n", 1)[1]
        fh.write(csv)
    for i, (tr, te) in enumerate(run.epoch_losses):
        print(f"epoch {run.first_epoch + i + 1}: train {tr:.6g} test {te:.6g} "
              f"alpha {run.alpha_history[i]:.4f} beta {run.beta_history[i]:.4f}")
    if run.aborted:
        print("training aborted: numeric overflow", file=sys.stderr)
        return 3
    return 0


# --- eval / predict ------------------------------------------------------------

def cmd_eval(args):
    seq, graph = _load_inputs(args.frames, args.graph)
    _need_frames(args.frames, seq, 2,
                 "hold no transition to score; eval needs 2 or more")
    p, _ = load_checkpoint(args.checkpoint, graph, seq.n_features)
    lap = laplacians_for(p, graph)
    losses = training.teacher_forced_losses(p, lap, seq.frames)
    lines = ["t,loss"] + [f"{t + 1},{v:.17g}" for t, v in enumerate(losses)]
    out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    print(f"mean transition loss: {float(np.mean(losses)):.17g}")
    return 0


def cmd_predict(args):
    if args.horizon < 1:
        raise ContractViolation(f"--horizon must be >= 1, got {args.horizon}")
    seq, graph = _load_inputs(args.frames, args.graph)
    if args.horizon > 1:
        _need_frames(args.frames, seq, 1, "leave no input step to feed back "
                     f"from; predict --horizon {args.horizon} needs 1 or more")
    p, _ = load_checkpoint(args.checkpoint, graph, seq.n_features)
    fam = conv_family(p, laplacians_for(p, graph))
    # horizon 1 is teacher forced: one prediction per input frame but the
    # last. A longer horizon consumes every frame, then feeds its
    # predictions back; it keeps the prediction after the last frame and
    # the fed-back ones.
    inputs = seq.frames[:-1] if args.horizon == 1 else seq.frames
    steps = unroll(p, fam, input_terms(p, fam, inputs),
                   feedback=args.horizon - 1)
    if args.horizon > 1:
        steps = islice(steps, max(len(inputs) - 1, 0), None)
    preds = [readout(p, fam, step.basis) for step in steps]
    frames = (np.stack(preds) if preds
              else np.zeros((0, seq.n_nodes, seq.n_features)))
    out_seq = datamod.FrameSequence(frames)
    datamod.save_frames(out_seq, args.out)
    print(f"wrote {len(preds)} predicted frames to {args.out}")
    return 0


# --- stability ------------------------------------------------------------------

def _parse_grid(text, flag, cast=float):
    try:
        vals = [cast(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ContractViolation(f"{flag}: bad grid {text!r}: {exc}") from None
    if not vals:
        raise ContractViolation(f"{flag}: empty grid {text!r}")
    if not all(math.isfinite(v) for v in vals):
        raise ContractViolation(
            f"{flag}: grid values must be finite, got {text!r}")
    for k, v in enumerate(vals):
        if v in vals[:k]:
            raise ContractViolation(
                f"{flag}: grid value {v!r} given twice in {text!r}")
    return vals


def cmd_stability(args):
    for flag, value in (("--u", args.u), ("--w", args.w),
                        ("--bias", args.bias)):
        if not math.isfinite(value):
            raise ContractViolation(f"{flag} must be finite, got {value!r}")
    alphas = _parse_grid(args.alpha, "--alpha")
    betas = _parse_grid(args.beta, "--beta")
    horizons = _parse_grid(args.T, "--T", int)
    if min(horizons) < 2:
        raise ContractViolation(f"--T values must be >= 2, got {min(horizons)}")
    if args.seed < 0:
        raise ContractViolation(f"--seed must be >= 0, got {args.seed}")
    # N is checked before anything of size N is built
    if args.graph:
        graph = load_graph(args.graph)
        check_node_count(graph.n_nodes)
    else:
        if args.n_nodes < datamod.MIN_SYNTH_NODES:
            raise ContractViolation(
                f"--n-nodes must be >= {datamod.MIN_SYNTH_NODES}, "
                f"got {args.n_nodes}")
        check_node_count(args.n_nodes)
        cfg = datamod.SyntheticConfig(n_nodes=args.n_nodes, n_frames=4, seed=args.seed)
        _, graph = datamod.generate_synthetic(cfg)
    base = scalar_cell_params(u=args.u, n_nodes=graph.n_nodes, w=args.w,
                              b=args.bias, activation=args.activation)
    rows = stability_sweep(graph, base, alphas, betas, horizons, seed=args.seed)
    csv = sweep_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


# --- params / sweep-T -------------------------------------------------------------

def cmd_params(args):
    print(count_params(args.family, args.n, k=args.k, p=args.p))
    return 0


def cmd_sweep_t(args):
    t_list = _parse_grid(args.T, "--T", int)
    if min(t_list) < 1:
        raise ContractViolation(f"--T values must be >= 1, got {min(t_list)}")
    if args.seeds < 1:
        raise ContractViolation(f"--seeds must be >= 1, got {args.seeds}")
    base, _ = _config(args, TrainConfig)
    seq, graph = _load_inputs(args.frames, args.graph)
    _need_frames(args.frames, seq, 2, "cannot be split into train and test "
                 "frames; sweep-T needs 2 or more")
    lines = ["T,seed,final_alpha,final_beta,test_loss"]
    for t_w in t_list:
        for s in range(args.seeds):
            # only T may vary: with stride unset, every T trains on the
            # window starts of the smallest T, so each run makes the same
            # number of Adam updates under the same learning-rate schedule
            cfg = replace(base, t_w=t_w, stride=base.stride or min(t_list),
                          seed=base.seed + s)
            run = _train(args.frames, cfg, seq, graph)
            if run.aborted:
                print(f"T={t_w} seed={cfg.seed}: training aborted: numeric "
                      f"overflow", file=sys.stderr)
            if run.aborted or not run.epoch_losses:
                lines.append(f"{t_w},{cfg.seed},nan,nan,nan")
                continue
            lines.append(f"{t_w},{cfg.seed},{run.final_params.alpha:.17g},"
                         f"{run.final_params.beta:.17g},"
                         f"{run.epoch_losses[-1][1]:.17g}")
    csv = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(csv)
    return 0


# --- argument parsing ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fgrnn",
                                  description="Graph-sequence prediction toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic point-cloud sequence")
    g.add_argument("--config")
    g.add_argument("--out-frames", required=True)
    g.add_argument("--out-graph", required=True)
    g.add_argument("overrides", nargs="*", metavar="key=value")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config")
    t.add_argument("--frames", required=True)
    t.add_argument("--graph", required=True)
    t.add_argument("--out-checkpoint", required=True)
    t.add_argument("--out-history", required=True)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--append-history", action="store_true")
    t.add_argument("overrides", nargs="*", metavar="key=value")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="per-transition loss of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--frames", required=True)
    e.add_argument("--graph", required=True)
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    pr = sub.add_parser("predict", help="one-step or rolled-out predictions")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--frames", required=True)
    pr.add_argument("--graph", required=True)
    pr.add_argument("--horizon", type=int, default=1)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    st = sub.add_parser("stability", help="Jacobian-product stability sweep")
    st.add_argument("--graph")
    st.add_argument("--n-nodes", type=int, default=32)
    st.add_argument("--alpha", default="0,0.5,1")
    st.add_argument("--beta", default="0,0.5,1")
    st.add_argument("--T", default="4,8,12")
    st.add_argument("--u", type=float, default=1.0)
    st.add_argument("--w", type=float, default=0.0)
    st.add_argument("--bias", type=float, default=0.0)
    st.add_argument("--activation", default="relu",
                    choices=sorted(ACTIVATIONS))
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out")
    st.set_defaults(func=cmd_stability)

    pa = sub.add_parser("params", help="trainable-parameter count")
    pa.add_argument("family", choices=["chebyshev", "first_order", "dense",
                                       "lstm_dense", "lstm_gcn"])
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--k", type=int, default=0)
    pa.add_argument("--p", type=int, default=0)
    pa.set_defaults(func=cmd_params)

    sw = sub.add_parser(
        "sweep-T", help="train one model per window length",
        description="Train one model per BPTT window length T and seed. "
                    "Only T varies: unless stride= is given, every T uses "
                    "the smallest T as its stride, so all runs share the "
                    "same window starts and make the same number of Adam "
                    "updates.")
    sw.add_argument("--config")
    sw.add_argument("--frames", required=True)
    sw.add_argument("--graph", required=True)
    sw.add_argument("--T", required=True, help="comma-separated window lengths")
    sw.add_argument("--seeds", type=int, default=1)
    sw.add_argument("--out")
    sw.add_argument("overrides", nargs="*", metavar="key=value")
    sw.set_defaults(func=cmd_sweep_t)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the package checks finiteness itself and reports it by exit code 3
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ParseError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericOverflow as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
