"""Command-line entry point.

Subcommands: gen-data, train, eval, predict, stability, params, sweep-T.
Exit codes: 0 success, 1 I/O error or out of memory, 2 config/usage
error, 3 numeric failure.

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
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as datamod
from . import training
from .cells import (ACTIVATIONS, FAMILIES, conv_family, input_terms,
                    load_checkpoint, readout, rollout, save_checkpoint,
                    unroll)
from .errors import (ContractViolation, NumericOverflow, ParseError, in_file,
                     place_keys, read_text)
from .graph import build_laplacians, load_graph, save_graph
from .stability import (check_node_count, scalar_cell_params, stability_sweep,
                        sweep_csv)
from .training import (COUNTED_FAMILIES, TrainConfig, count_params,
                       history_csv, parse_config, parse_key_values, train)


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


def _write_out(path, text, rows=None):
    """Writes text to the file at path, or to stdout when path is unset;
    a file of `rows` rows, when given, is named in a line on stdout."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        if rows is not None:
            print(f"wrote {rows} rows to {path}")
    else:
        sys.stdout.write(text)


def _resume(path, graph, n_features, cfg, given):
    """The (params, train_state) of the checkpoint at path, for a train
    run of cfg on graph. Each model key in given, the keys set on the
    command line or in --config, must agree with the checkpoint, and so
    must the rate cfg's lr and lr_decay give its last epoch."""
    p, state = load_checkpoint(path, graph, n_features)
    model = {"family": p.conv_family, "activation": p.activation,
             FAMILIES[p.conv_family][0]: p.W.shape[-1]}
    with in_file(path):
        for key, value in model.items():
            if key in given and getattr(cfg, key) != value:
                raise ContractViolation(
                    f"config key {key!r} is {getattr(cfg, key)!r}, but the "
                    f"checkpoint's model has {value!r}")
        rate = cfg.rate(state["epoch"])
        if rate != state["lr"]:
            raise ContractViolation(
                f"config keys 'lr' = {cfg.lr!r} and 'lr_decay' = "
                f"{cfg.lr_decay!r} give rate {rate!r} at the checkpoint's "
                f"epoch {state['epoch']}, but its lr is {state['lr']!r}")
    return p, state


def cmd_train(args):
    cfg, given = _config(args, TrainConfig)
    seq, graph = _load_inputs(args.frames, args.graph)
    resume = (_resume(args.resume, graph, seq.n_features, cfg, given)
              if args.resume else None)
    with in_file(args.frames):
        run = train(cfg, seq, graph, resume)
    save_checkpoint(run.final_params, args.out_checkpoint, graph,
                    run.train_state)
    csv = history_csv(run)
    with open(args.out_history, "ab+" if args.append_history else "wb") as fh:
        if fh.tell():
            # appending to a history that already has its header; the rows
            # start on a new line even if its last line has no newline
            fh.seek(-1, os.SEEK_END)
            csv = csv.split("\n", 1)[1]
            if fh.read(1) != b"\n":
                csv = "\n" + csv
        fh.write(csv.encode())
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
    p, _ = load_checkpoint(args.checkpoint, graph, seq.n_features)
    lap = build_laplacians(graph, scaled=False)
    with in_file(args.frames):
        losses = training.teacher_forced_losses(p, lap, seq.frames)
    lines = ["t,loss"] + [f"{t + 1},{v:.17g}" for t, v in enumerate(losses)]
    _write_out(args.out, "\n".join(lines) + "\n")
    print(f"mean transition loss: {float(np.mean(losses)):.17g}")
    return 0


def cmd_predict(args):
    if args.horizon < 1:
        raise ContractViolation(f"--horizon must be >= 1, got {args.horizon}")
    seq, graph = _load_inputs(args.frames, args.graph)
    if args.horizon > 1 and seq.n_frames == 0:
        raise ContractViolation(
            f"{args.frames}: 0 frame(s) leave no input step to feed back "
            f"from; predict --horizon {args.horizon} needs 1 or more")
    p, _ = load_checkpoint(args.checkpoint, graph, seq.n_features)
    fam = conv_family(p, build_laplacians(graph, scaled=False))
    if args.horizon == 1:
        # teacher forced: one prediction per input frame but the last
        preds = [readout(p, fam, step.basis) for step in
                 unroll(p, fam, input_terms(p, fam, seq.frames[:-1]))]
    else:
        # rolled out from the step after every frame, holding no other
        for last in unroll(p, fam, input_terms(p, fam, seq.frames)):
            pass
        preds = list(rollout(p, fam, last, args.horizon))
    frames = (np.stack(preds) if preds
              else np.zeros((0, seq.n_nodes, seq.n_features)))
    bad = [k for k, frame in enumerate(frames) if not np.isfinite(frame).all()]
    if bad:  # the model's overflow, not a fault of the input frames
        raise NumericOverflow(f"predicted frame {bad[0] + 1}: non-finite value")
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
    _write_out(args.out, sweep_csv(rows), len(rows))
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
    base, given = _config(args, TrainConfig)
    seq, graph = _load_inputs(args.frames, args.graph)
    # only T may vary: with stride unset, every T trains on the window
    # starts of the smallest T, so each run makes the same number of Adam
    # updates under the same learning-rate schedule
    stride = base.stride if "stride" in given else min(t_list)
    lines = ["T,seed,final_alpha,final_beta,test_loss"]
    for t_w in t_list:
        for s in range(args.seeds):
            cfg = replace(base, t_w=t_w, stride=stride, seed=base.seed + s)
            with in_file(args.frames):
                run = train(cfg, seq, graph)
            if run.aborted:
                print(f"T={t_w} seed={cfg.seed}: training aborted: numeric "
                      f"overflow", file=sys.stderr)
            if run.aborted or not run.epoch_losses:
                lines.append(f"{t_w},{cfg.seed},nan,nan,nan")
                continue
            lines.append(f"{t_w},{cfg.seed},{run.final_params.alpha:.17g},"
                         f"{run.final_params.beta:.17g},"
                         f"{run.epoch_losses[-1][1]:.17g}")
    _write_out(args.out, "\n".join(lines) + "\n", len(lines) - 1)
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

    t = sub.add_parser("train", help="train a model")
    t.add_argument("--config")
    t.add_argument("--frames", required=True)
    t.add_argument("--graph", required=True)
    t.add_argument("--out-checkpoint", required=True)
    t.add_argument("--out-history", required=True)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--append-history", action="store_true")
    t.add_argument("overrides", nargs="*", metavar="key=value")

    e = sub.add_parser("eval", help="per-transition loss of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--frames", required=True)
    e.add_argument("--graph", required=True)
    e.add_argument("--out")

    pr = sub.add_parser("predict", help="one-step or rolled-out predictions")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--frames", required=True)
    pr.add_argument("--graph", required=True)
    pr.add_argument("--horizon", type=int, default=1)
    pr.add_argument("--out", required=True)

    st = sub.add_parser("stability", help="Jacobian-product stability sweep")
    st.add_argument("--graph")
    st.add_argument("--n-nodes", type=int, default=32)
    st.add_argument("--alpha", default="0,0.5,1")
    st.add_argument("--beta", default="0,0.5,1")
    st.add_argument("--T", default="4,8,12")
    st.add_argument("--u", type=float, default=1.0)
    st.add_argument("--w", type=float, default=1.0)
    st.add_argument("--bias", type=float, default=0.0)
    st.add_argument("--activation", default="relu",
                    choices=sorted(ACTIVATIONS))
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--out")

    pa = sub.add_parser("params", help="trainable-parameter count")
    pa.add_argument("family", choices=COUNTED_FAMILIES)
    pa.add_argument("--n", type=int, required=True)
    pa.add_argument("--k", type=int, default=0)
    pa.add_argument("--p", type=int, default=0)

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
    return top


# built once: argparse links its parsers and actions in cycles, which only
# the cyclic collector frees
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # each subcommand runs cmd_<name>, looked up at call time, so that a
    # wrapper put in the module's place of a cmd_ function is the one called
    run = globals()["cmd_" + args.command.lower().replace("-", "_")]
    # the package checks finiteness itself and reports it by exit code 3
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run(args)
    except (ParseError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericOverflow as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size numpy cannot allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
