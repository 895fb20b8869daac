"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and file outputs
are exercised exactly as a shell user would see them.
"""

import argparse
import gc
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fgrnn
from fgrnn import cli, stability
from fgrnn.cells import FAMILIES, load_checkpoint, save_checkpoint
from fgrnn.data import SyntheticConfig, load_frames
from fgrnn.errors import (ContractViolation, NumericOverflow, ParseError,
                          in_file)
from fgrnn.graph import build_laplacians, load_graph
from fgrnn.training import COUNTED_FAMILIES, TrainConfig, train

from . import reference as ref
from .reference import step_loss


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    frames, graph = str(d / "frames.txt"), str(d / "graph.txt")
    rc = cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                   "n_nodes=16", "n_frames=30", "seed=3"])
    assert rc == 0
    return frames, graph


def _train(frames, graph, out_dir, name, *extra):
    ckpt = str(out_dir / f"{name}.ckpt")
    hist = str(out_dir / f"{name}.csv")
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--out-checkpoint", ckpt, "--out-history", hist,
                   "family=first_order", "p=2", "epochs=2", "t_w=4",
                   *extra])
    return rc, ckpt, hist


@pytest.fixture(scope="module")
def small_checkpoint(small_dataset, tmp_path_factory):
    rc, ckpt, _ = _train(*small_dataset, tmp_path_factory.mktemp("model"), "m",
                         "epochs=1")
    assert rc == 0
    return ckpt


def test_gen_data_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        f, g = str(tmp_path / f"f{tag}.txt"), str(tmp_path / f"g{tag}.txt")
        assert cli.main(["gen-data", "--out-frames", f, "--out-graph", g,
                         "n_nodes=12", "n_frames=8", "seed=7"]) == 0
        paths.append((f, g))
    assert Path(paths[0][0]).read_text() == Path(paths[1][0]).read_text()
    assert Path(paths[0][1]).read_text() == Path(paths[1][1]).read_text()
    seq = load_frames(paths[0][0])
    assert (seq.n_frames, seq.n_nodes, seq.n_features) == (8, 12, 3)
    assert load_graph(paths[0][1]).n_nodes == 12


def test_gen_data_rejects_unknown_key(tmp_path):
    rc = cli.main(["gen-data", "--out-frames", str(tmp_path / "f"),
                   "--out-graph", str(tmp_path / "g"), "bogus=1"])
    assert rc == 2


@pytest.mark.parametrize("override", [
    "n_frames=0", "n_frames=-3", "seed=-1", "n_nodes=5", "rotation_rate=nan",
    "base_shape=blob", "deformation_frequency=1e308", "rotation_rate=1e308",
    "noise_std=1e308"])
def test_gen_data_bad_value_exit_code(tmp_path, capsys, override):
    rc = cli.main(["gen-data", "--out-frames", str(tmp_path / "f"),
                   "--out-graph", str(tmp_path / "g"), override])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"'{override.split('=')[0]}'" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_gen_data_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "data.cfg"
    cfg.write_text("# synthetic data\nn_nodes 12\n")
    rc = cli.main(["gen-data", "--config", str(cfg), "--out-frames",
                   str(tmp_path / "f"), "--out-graph", str(tmp_path / "g")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert f"error: {cfg}: line 2: expected 'key = value'" in err


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_config_key_set_twice_names_its_second_line(small_dataset, tmp_path,
                                                    capsys, command):
    frames, graph = small_dataset
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("seed = 1\n# the same key again\nseed = 2\n")
    out = tmp_path / "out"
    argv = {
        "gen-data": ["--out-frames", str(out), "--out-graph",
                     str(tmp_path / "g"), "n_nodes=12"],
        "train": ["--frames", frames, "--graph", graph, "--out-checkpoint",
                  str(out), "--out-history", str(tmp_path / "h")],
    }[command]
    # a command-line override of the key does not hide the file's fault
    assert cli.main([command, "--config", str(cfg), *argv, "seed=3"]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: line 3: config key 'seed' set twice, first at "
        f"line 1\n")
    assert not out.exists()


def test_override_wins_over_the_config_file(tmp_path):
    cfg = tmp_path / "data.cfg"
    cfg.write_text("n_nodes = 12\nn_frames = 8\nseed = 1\n")
    outs = []
    for tag, extra in (("file", []), ("override", ["seed=2"]),
                       ("flag", ["n_nodes=12", "n_frames=8", "seed=2"])):
        out = tmp_path / f"{tag}.txt"
        config = [] if tag == "flag" else ["--config", str(cfg)]
        assert cli.main(["gen-data", *config, "--out-frames", str(out),
                         "--out-graph", str(tmp_path / f"{tag}.g"),
                         *extra]) == 0
        outs.append(out.read_bytes())
    assert outs[0] != outs[1] == outs[2]


def test_train_config_bad_line_names_the_file(small_dataset, tmp_path, capsys):
    frames, graph = small_dataset
    cfg = tmp_path / "train.cfg"
    cfg.write_text("family = first_order\np 2\n")
    rc = cli.main(["train", "--config", str(cfg), "--frames", frames,
                   "--graph", graph, "--out-checkpoint", str(tmp_path / "c"),
                   "--out-history", str(tmp_path / "h")])
    assert rc == 2
    assert (f"error: {cfg}: line 2: expected 'key = value'"
            in capsys.readouterr().err)
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("text,line,message", [
    ("epochs = 1\nepoghs = 2\n", 2, "unknown config key 'epoghs'"),
    ("# one epoch\nepochs = x\n", 2,
     "config key 'epochs' must be an integer, got 'x'"),
])
def test_config_file_key_refused_at_its_line(small_dataset, tmp_path, capsys,
                                             text, line, message):
    frames, graph = small_dataset
    cfg = tmp_path / "train.cfg"
    cfg.write_text(text)
    argv = ["train", "--frames", frames, "--graph", graph,
            "--out-checkpoint", str(tmp_path / "c"),
            "--out-history", str(tmp_path / "h")]
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line {line}: {message}\n"
    # the same key on the command line is refused there, and a command-line
    # value of a key replaces the file's, place included
    key, _, val = text.splitlines()[-1].partition(" = ")
    assert cli.main([*argv, f"{key}={val}"]) == 2
    assert capsys.readouterr().err == f"error: command line: {message}\n"
    cfg.write_text("epochs = x\n")
    assert cli.main([*argv, "--config", str(cfg), "epochs=y"]) == 2
    assert capsys.readouterr().err == (
        "error: command line: config key 'epochs' must be an integer, "
        "got 'y'\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command,text,message", [
    ("gen-data", "n_nodes = 12\nn_frames = -1\n",
     "config key 'n_frames' must be >= 1, got -1"),
    ("train", "epochs = 1\nlr = -0.5\n",
     "config key 'lr' must be > 0, got -0.5"),
    ("train", "epochs = 1\nlr = nan\n",
     "config key 'lr' must be finite, got nan"),
], ids=["gen-data range", "train range", "train non-finite"])
def test_config_value_out_of_range_refused_at_its_line(
        small_dataset, tmp_path, capsys, command, text, message):
    frames, graph = small_dataset
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [command, *{
        "gen-data": ["--out-frames", str(out), "--out-graph",
                     str(tmp_path / "g")],
        "train": ["--frames", frames, "--graph", graph, "--out-checkpoint",
                  str(out), "--out-history", str(tmp_path / "h")],
    }[command]]
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: line 2: {message}\n"
    # on the command line, the value is refused there
    override = text.splitlines()[-1].replace(" = ", "=")
    assert cli.main([*argv, "--config", str(cfg), override]) == 2
    assert capsys.readouterr().err == f"error: command line: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("n_nodes = 12\nn_frames = 8\nnoise_std = 1e308\n",
     "{here}: config 'noise_std' too large: the generated frames overflow"),
    ("n_nodes = 12\nn_frames = 8\nrotation_rate = 1e308\n",
     "{here}: config 'rotation_rate' too large: the generated frames "
     "overflow"),
    # each term is finite, their sum is not: the refusal names both keys,
    # each with its own place
    ("n_nodes = 12\nn_frames = 8\ndeformation_amplitude = 1e308\n"
     "noise_std = 5e307\n",
     "config 'deformation_amplitude' ({cfg}: line 3) and 'noise_std' "
     "({here}) too large: the generated frames overflow"),
], ids=["noise", "rotation", "two keys"])
def test_overflowing_config_value_refused_at_its_line(tmp_path, capsys,
                                                      text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    argv = ["gen-data", "--out-frames", str(tmp_path / "f"), "--out-graph",
            str(tmp_path / "g"), "--config", str(cfg)]
    last = len(text.splitlines())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: " + message.format(
        cfg=cfg, here=f"{cfg}: line {last}") + "\n"
    # the last key, set on the command line too, is refused there
    override = text.splitlines()[-1].replace(" = ", "=")
    assert cli.main([*argv, override]) == 2
    assert capsys.readouterr().err == "error: " + message.format(
        cfg=cfg, here="command line") + "\n"
    assert not (tmp_path / "f").exists() and not (tmp_path / "g").exists()


def test_params_command(capsys):
    cases = [
        (["params", "chebyshev", "--n", "1502", "--k", "3"], 3015),
        (["params", "first_order", "--n", "1502", "--p", "3"], 3033),
        (["params", "dense", "--n", "1502"], 6771018),
        (["params", "lstm_dense", "--n", "1502"], 18054040),
        (["params", "lstm_gcn", "--n", "1502", "--k", "3"], 6032),
    ]
    for argv, expected in cases:
        assert cli.main(argv) == 0
        assert int(capsys.readouterr().out.strip()) == expected


def test_params_rejects_missing_order():
    assert cli.main(["params", "chebyshev", "--n", "10"]) == 2


def test_params_offers_every_counted_family(capsys):
    # the trainable families of cells.FAMILIES, then the paper's baselines
    assert COUNTED_FAMILIES == (*FAMILIES, "dense", "lstm_dense", "lstm_gcn")
    command = next(a for a in cli._PARSER._actions if a.dest == "command")
    family = next(a for a in command.choices["params"]._actions
                  if a.dest == "family")
    assert tuple(family.choices) == COUNTED_FAMILIES
    for family in COUNTED_FAMILIES:
        assert cli.main(["params", family, "--n", "4", "--k", "1", "--p", "1"]) == 0


def test_train_writes_history_and_checkpoint(small_dataset, tmp_path):
    frames, graph = small_dataset
    rc, ckpt, hist = _train(frames, graph, tmp_path, "run")
    assert rc == 0
    lines = Path(hist).read_text().splitlines()
    assert lines[0] == "epoch,train_loss,test_loss,alpha,beta,lr"
    assert len(lines) == 3
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2]
    lines = Path(ckpt).read_text().splitlines()
    assert lines[4] == f"graph_checksum {load_graph(graph).checksum()}"
    _, state = load_checkpoint(ckpt, load_graph(graph), 3)
    assert state["epoch"] == 2


def test_train_deterministic(small_dataset, tmp_path):
    frames, graph = small_dataset
    _, _, h1 = _train(frames, graph, tmp_path, "d1")
    _, _, h2 = _train(frames, graph, tmp_path, "d2")
    assert Path(h1).read_text() == Path(h2).read_text()


def test_resume_matches_single_run(small_dataset, tmp_path):
    frames, graph = small_dataset
    # one uninterrupted 4-epoch run
    rc, ckpt_full, hist_full = _train(frames, graph, tmp_path, "full",
                                      "epochs=4")
    assert rc == 0
    # 2 epochs, then resume for 2 more, appending to the same history
    rc, ckpt_a, hist_ab = _train(frames, graph, tmp_path, "half")
    assert rc == 0
    ckpt_b = str(tmp_path / "half2.ckpt")
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--out-checkpoint", ckpt_b, "--out-history", hist_ab,
                   "--resume", ckpt_a, "--append-history",
                   "family=first_order", "p=2", "epochs=2", "t_w=4"])
    assert rc == 0
    assert Path(hist_ab).read_text() == Path(hist_full).read_text()
    pa, _ = load_checkpoint(ckpt_full, load_graph(graph), 3)
    pb, _ = load_checkpoint(ckpt_b, load_graph(graph), 3)
    assert pa.alpha == pb.alpha and pa.beta == pb.beta
    np.testing.assert_array_equal(pa.W, pb.W)


@pytest.mark.parametrize("existing", [None, ""], ids=["missing", "empty"])
def test_append_history_to_a_new_file_writes_its_header(
        small_dataset, small_checkpoint, tmp_path, existing):
    frames, graph = small_dataset
    _, _, hist = _train(frames, graph, tmp_path, "w")
    appended = tmp_path / "new.csv"
    if existing is not None:
        appended.write_text(existing)
    assert cli.main(["train", "--frames", frames, "--graph", graph,
                     "--out-checkpoint", str(tmp_path / "a.ckpt"),
                     "--out-history", str(appended), "--append-history",
                     "family=first_order", "p=2", "epochs=2", "t_w=4"]) == 0
    assert appended.read_text() == Path(hist).read_text()
    # a resume that trains no epoch leaves a header and no rows
    fresh = tmp_path / "none.csv"
    assert cli.main(["train", "--frames", frames, "--graph", graph,
                     "--resume", small_checkpoint, "--append-history",
                     "--out-checkpoint", str(tmp_path / "z.ckpt"),
                     "--out-history", str(fresh), "epochs=0"]) == 0
    assert fresh.read_text() == "epoch,train_loss,test_loss,alpha,beta,lr\n"


@pytest.fixture(scope="module")
def other_graph_dataset(tmp_path_factory):
    """A 16-node set whose kNN graph is not small_dataset's."""
    d = tmp_path_factory.mktemp("other")
    frames, graph = str(d / "frames.txt"), str(d / "graph.txt")
    assert cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                     "n_nodes=16", "n_frames=10", "seed=9",
                     "noise_std=0.5"]) == 0
    return frames, graph


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_checkpoint_of_another_graph_names_its_checksum_line(
        small_checkpoint, other_graph_dataset, tmp_path, capsys, command):
    frames, graph = other_graph_dataset
    inputs = ["--frames", frames, "--graph", graph]
    argv = {
        "eval": ["eval", "--checkpoint", small_checkpoint, *inputs],
        "predict": ["predict", "--checkpoint", small_checkpoint, *inputs,
                    "--out", str(tmp_path / "p.txt")],
        "train": ["train", *inputs, "--resume", small_checkpoint,
                  "--out-checkpoint", str(tmp_path / "c.ckpt"),
                  "--out-history", str(tmp_path / "h.csv")],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {small_checkpoint}: line 5: graph_checksum ")
    assert load_graph(graph).checksum() in err
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def cheb_checkpoint(small_dataset, tmp_path_factory):
    rc, ckpt, _ = _train(*small_dataset, tmp_path_factory.mktemp("cheb"), "c",
                         "epochs=1", "family=chebyshev", "k=3")
    assert rc == 0
    return ckpt


@pytest.mark.parametrize("model,setting,message", [
    ("cheb", "family=first_order",
     "config key 'family' is 'first_order', but the checkpoint's model has "
     "'chebyshev'"),
    ("cheb", "activation=relu",
     "config key 'activation' is 'relu', but the checkpoint's model has "
     "'tanh'"),
    ("cheb", "k=2", "config key 'k' is 2, but the checkpoint's model has 3"),
    ("first_order", "family=chebyshev",
     "config key 'family' is 'chebyshev', but the checkpoint's model has "
     "'first_order'"),
    ("first_order", "p=5",
     "config key 'p' is 5, but the checkpoint's model has 2"),
], ids=["cheb family", "cheb activation", "cheb k", "first_order family",
        "first_order p"])
@pytest.mark.parametrize("where", ["command line", "config file"])
def test_resume_refuses_a_conflicting_model_key(
        small_dataset, small_checkpoint, cheb_checkpoint, tmp_path, capsys,
        model, setting, message, where):
    frames, graph = small_dataset
    ckpt = cheb_checkpoint if model == "cheb" else small_checkpoint
    argv = ["train", "--frames", frames, "--graph", graph, "--resume", ckpt,
            "--out-checkpoint", str(tmp_path / "c.ckpt"),
            "--out-history", str(tmp_path / "h.csv"), "epochs=1"]
    if where == "command line":
        argv.append(setting)
    else:
        config = tmp_path.parent / f"{tmp_path.name}.cfg"
        config.write_text(setting.replace("=", " = ") + "\n")
        argv += ["--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
    assert not any(tmp_path.iterdir())


def test_resume_takes_unset_model_keys_from_the_checkpoint(
        small_dataset, cheb_checkpoint, tmp_path):
    # the default family is first_order; left unset, the checkpoint's wins,
    # and keys that agree with it may be given
    frames, graph = small_dataset
    for name, extra in (("a", []), ("b", ["family=chebyshev", "k=3",
                                          "activation=tanh", "p=7"])):
        out = tmp_path / f"{name}.ckpt"
        assert cli.main(["train", "--frames", frames, "--graph", graph,
                         "--resume", cheb_checkpoint, "--out-checkpoint",
                         str(out), "--out-history", str(tmp_path / "h.csv"),
                         "epochs=1", "t_w=4", *extra]) == 0
        p, state = load_checkpoint(out, load_graph(graph), 3)
        assert (p.conv_family, p.activation, len(p.W)) == (
            "chebyshev", "tanh", 3)
        assert state["epoch"] == 2
    assert (tmp_path / "a.ckpt").read_bytes() == \
        (tmp_path / "b.ckpt").read_bytes()


def test_eval_and_predict_agree(small_dataset, tmp_path):
    frames, graph = small_dataset
    _, ckpt, _ = _train(frames, graph, tmp_path, "ep")
    out_csv = str(tmp_path / "eval.csv")
    assert cli.main(["eval", "--checkpoint", ckpt, "--frames", frames,
                     "--graph", graph, "--out", out_csv]) == 0
    rows = Path(out_csv).read_text().splitlines()
    assert rows[0] == "t,loss"
    seq = load_frames(frames)
    assert len(rows) == seq.n_frames  # header + T-1 transitions

    out_pred = str(tmp_path / "pred.txt")
    assert cli.main(["predict", "--checkpoint", ckpt, "--frames", frames,
                     "--graph", graph, "--horizon", "1",
                     "--out", out_pred]) == 0
    preds = load_frames(out_pred)
    assert preds.n_frames == seq.n_frames - 1
    # per-transition losses recomputed from the predicted frames must
    # match the eval CSV exactly
    for t in range(preds.n_frames):
        expected = float(rows[t + 1].split(",")[1])
        got = step_loss(preds.frames[t], seq.frames[t + 1])
        assert got == pytest.approx(expected, rel=1e-15)


def test_predict_rollout_horizon(small_dataset, tmp_path):
    # the prediction after the last frame, then two more, each fed the one
    # before: a chain of the reference's fgrnn_step and readout, bit for bit
    frames, graph = small_dataset
    seq, g = load_frames(frames), load_graph(graph)
    lap = build_laplacians(g)
    for family in ("chebyshev", "first_order"):
        _, ckpt, _ = _train(frames, graph, tmp_path, family,
                            f"family={family}")
        out = str(tmp_path / f"{family}.txt")
        assert cli.main(["predict", "--checkpoint", ckpt, "--frames", frames,
                         "--graph", graph, "--horizon", "3", "--out",
                         out]) == 0
        p, _ = load_checkpoint(ckpt, g, seq.n_features)
        h = np.zeros(ref.conv_apply(p, lap, seq.frames[0], p.W).shape)
        for x in seq.frames:
            h = ref.fgrnn_step(p, lap, h, x)[1]
        want = [ref.readout(p, lap, h)]
        for _ in range(2):
            h = ref.fgrnn_step(p, lap, h, want[-1])[1]
            want.append(ref.readout(p, lap, h))
        assert np.array_equal(load_frames(out).frames, np.stack(want))


def test_train_unknown_config_key(small_dataset, tmp_path):
    frames, graph = small_dataset
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--out-checkpoint", str(tmp_path / "c"),
                   "--out-history", str(tmp_path / "h"), "nonsense=3"])
    assert rc == 2


def test_train_bad_override_syntax(small_dataset, tmp_path):
    frames, graph = small_dataset
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--out-checkpoint", str(tmp_path / "c"),
                   "--out-history", str(tmp_path / "h"), "epochs"])
    assert rc == 2


@pytest.mark.parametrize("command,extra,fragment", [
    ("train", ["family=dense"], "'family'"),
    ("train", ["family=lstm_gcn"], "'family'"),
    ("train", ["family=chebyshev", "k=0"], "'k'"),
    ("train", ["p=0"], "'p'"),
    ("train", ["t_w=0"], "'t_w'"),
    ("train", ["stride=-3", "t_w=4"], "'stride'"),
    ("train", ["epochs=-1"], "'epochs'"),
    ("train", ["lr=0"], "'lr'"),
    ("train", ["lr=-1"], "'lr'"),
    ("train", ["lr=nan"], "'lr'"),
    ("train", ["lambda_reg=-0.5"], "'lambda_reg'"),
    ("train", ["lr_decay=-1"], "'lr_decay'"),
    ("sweep-T", ["--T", "3,5", "stride=-1"], "'stride'"),
    ("sweep-T", ["--T", "0,3"], "--T"),
    ("sweep-T", ["--T", "-2"], "--T"),
    ("predict", ["--horizon", "0"], "--horizon"),
    ("predict", ["--horizon", "-2"], "--horizon"),
    ("train", ["k=abc"], "'k'"),
    ("train", ["lr=fast"], "'lr'"),
    ("train", ["use_plain_laplacian=maybe"], "'use_plain_laplacian'"),
    ("train", ["use_plain_laplacian=2"], "'use_plain_laplacian'"),
    ("train", ["init_scale=nan"], "'init_scale'"),
    ("train", ["seed=-1"], "'seed'"),
    ("train", ["split=1.5"], "'split'"),
    ("train", ["activation=softsign"], "'activation'"),
    ("train", ["lr_decay=inf"], "'lr_decay'"),
    ("sweep-T", ["--T", "3", "--seeds", "0"], "--seeds"),
    # L1 is the only node operator, so no key selects one
    ("train", ["use_plain_laplacian=0"], "unknown config key 'use_plain_laplacian'"),
    ("train", ["use_plain_laplacian=1"], "unknown config key 'use_plain_laplacian'"),
    # 2 * init_scale, the width of the init draw, must be finite too
    ("train", ["init_scale=1e308"], "command line: config key 'init_scale' "
     "must be >= 0, and finite when doubled, got 1e+308"),
    ("train", ["init_scale=1.7976931348623157e308"], "'init_scale' must be"),
    ("train", ["init_scale=8.98846567431158e307"], "'init_scale' must be"),
])
def test_bad_input_exit_code(small_dataset, small_checkpoint, tmp_path, capsys,
                             command, extra, fragment):
    frames, graph = small_dataset
    inputs = ["--frames", frames, "--graph", graph]
    argv = {
        "train": ["train", *inputs, "--out-checkpoint", str(tmp_path / "c"),
                  "--out-history", str(tmp_path / "h")],
        "sweep-T": ["sweep-T", *inputs, "--out", str(tmp_path / "s")],
        "predict": ["predict", *inputs, "--checkpoint", small_checkpoint,
                    "--out", str(tmp_path / "p")],
    }[command]
    assert cli.main(argv + extra) == 2
    assert fragment in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_overflow_exit_code(small_dataset, tmp_path):
    frames, graph = small_dataset
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--out-checkpoint", str(tmp_path / "o.ckpt"),
                   "--out-history", str(tmp_path / "o.csv"),
                   "family=first_order", "p=2", "epochs=3", "t_w=4",
                   "activation=relu", "lr=1e8"])
    assert rc == 3


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_overflowing_checkpoint_exit_code(small_dataset, small_checkpoint,
                                          tmp_path, capsys, command):
    frames, graph = small_dataset
    p, state = load_checkpoint(small_checkpoint, load_graph(graph), 3)
    p.W[...] = 1.7e308
    huge = tmp_path / "huge.ckpt"
    save_checkpoint(p, huge, load_graph(graph), state)
    argv = [command, "--checkpoint", str(huge), "--frames", frames,
            "--graph", graph]
    if command == "predict":
        argv += ["--out", str(tmp_path / "p.txt")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        "numeric failure: step 1: non-finite pre-activation\n")
    assert not (tmp_path / "p.txt").exists()


# one chain of commands, run by a child process in its working directory
_CHAIN = """
import sys
from fgrnn import cli
for argv in (
        "gen-data --out-frames f.txt --out-graph g.txt n_nodes=512 "
        "n_frames=10 seed=5",
        "train --frames f.txt --graph g.txt --out-checkpoint fo.ckpt "
        "--out-history fo.csv family=first_order p=3 epochs=1 t_w=4",
        "train --frames f.txt --graph g.txt --out-checkpoint ch.ckpt "
        "--out-history ch.csv family=chebyshev k=3 epochs=1 t_w=4",
        "predict --checkpoint fo.ckpt --frames f.txt --graph g.txt "
        "--horizon 3 --out p.txt",
        "stability --graph g.txt --alpha 0,0.5 --beta 0.5 --T 4,6 "
        "--w 1 --seed 2 --out s.csv"):
    if cli.main(argv.split()) != 0:
        sys.exit(f"failed: {argv}")
"""


def test_artifacts_match_across_blas_thread_counts(tmp_path):
    # criterion 9 across processes: at 512 nodes OpenBLAS splits the dense
    # products of the stability sweep over its threads
    artifacts = {}
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        path = [str(Path(fgrnn.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run([sys.executable, "-c", _CHAIN], cwd=work,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        artifacts[threads] = {path.name: path.read_bytes()
                              for path in sorted(work.iterdir())}
    assert len(artifacts["1"]) == 8
    assert artifacts["1"] == artifacts["2"]


# every command run through cli.main in one fresh interpreter; only
# stability may load concurrent.futures (and with it logging), and none
# numpy.ma
_IMPORTS = """
import sys
from fgrnn import cli
lazy = ("concurrent.futures", "numpy.ma")
inputs = ["--frames", "f.txt", "--graph", "g.txt"]
for argv in (
        ["gen-data", "--out-frames", "f.txt", "--out-graph", "g.txt",
         "n_nodes=12", "n_frames=20"],
        ["train", *inputs, "--out-checkpoint", "fo.ckpt", "--out-history",
         "fo.csv", "p=2", "epochs=1"],
        ["train", *inputs, "--out-checkpoint", "ch.ckpt", "--out-history",
         "ch.csv", "family=chebyshev", "k=3", "epochs=1"],
        ["eval", "--checkpoint", "fo.ckpt", *inputs, "--out", "e.csv"],
        ["predict", "--checkpoint", "ch.ckpt", *inputs, "--out", "p1.txt"],
        ["predict", "--checkpoint", "fo.ckpt", *inputs, "--horizon", "3",
         "--out", "p3.txt"],
        ["params", "lstm_gcn", "--n", "12", "--k", "3"],
        ["sweep-T", *inputs, "--T", "2,3", "p=2", "epochs=1", "--out",
         "s.csv"],
        ["stability", "--n-nodes", "8", "--T", "4", "--out", "st.csv"]):
    if cli.main(argv) != 0:
        sys.exit(f"failed: {argv}")
    print(argv[0], *[m for m in lazy if m in sys.modules], file=sys.stderr)
"""


def test_commands_leave_lazy_modules_unloaded(tmp_path):
    path = [str(Path(fgrnn.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", _IMPORTS], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "gen-data", "train", "train", "eval", "predict", "predict", "params",
        "sweep-T", "stability concurrent.futures"]


def test_graph_and_frames_of_different_sizes(small_dataset, small_checkpoint,
                                             tmp_path, capsys):
    frames, _ = small_dataset
    graph = tmp_path / "g.txt"
    graph.write_text("17 0\n")
    assert cli.main(["eval", "--checkpoint", small_checkpoint, "--frames",
                     frames, "--graph", str(graph)]) == 2
    assert capsys.readouterr().err == (
        f"error: graph {graph} has 17 nodes but frames {frames} have 16\n")


@pytest.mark.filterwarnings("error")
def test_train_split_without_two_training_frames(small_dataset, tmp_path,
                                                 capsys):
    _, graph = small_dataset
    frames = tmp_path.parent / f"{tmp_path.name}-three.txt"
    frames.write_text("\n".join(
        ["gfrm 1 16 3 3"] + [f"{t} {i} 0" for t in range(3)
                             for i in range(16)]) + "\n")
    assert cli.main(["train", "--frames", str(frames), "--graph", graph,
                     "--out-checkpoint", str(tmp_path / "c"),
                     "--out-history", str(tmp_path / "h"),
                     "split=0.4"]) == 2
    assert capsys.readouterr().err == (
        f"error: {frames}: config key 'split' = 0.4 leaves 1 of 3 frames to "
        f"train on; a window needs 2\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("split", [None, "0.99"])
@pytest.mark.parametrize("command", ["train", "sweep-T"])
def test_two_frames_are_too_few_to_split(small_dataset, tmp_path, capsys,
                                        command, split):
    # no split in (0, 1) leaves 2 of 2 frames to train on, so the split's
    # refusal names the frame file
    _, graph = small_dataset
    frames = tmp_path.parent / f"{tmp_path.name}-two.txt"
    frames.write_text("gfrm 1 16 3 2\n" + "0 0 0\n" * 32)
    inputs = ["--frames", str(frames), "--graph", graph]
    argv = {
        "train": ["train", *inputs, "--out-checkpoint", str(tmp_path / "c"),
                  "--out-history", str(tmp_path / "h")],
        "sweep-T": ["sweep-T", *inputs, "--T", "2,3", "--out",
                    str(tmp_path / "s")],
    }[command] + ([f"split={split}"] if split else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {frames}: config key 'split' = {split or '0.8'} leaves 1 of "
        f"2 frames to train on; a window needs 2\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_frames", [0, 1])
def test_eval_too_few_frames_names_the_frame_file(
        small_dataset, small_checkpoint, tmp_path, capsys, n_frames):
    # the library's 2-frame rule (training._check_fit), named by in_file
    _, graph = small_dataset
    few = tmp_path / "few.txt"
    few.write_text(f"gfrm 1 16 3 {n_frames}\n" + "0 0 0\n" * 16 * n_frames)
    out = tmp_path / "e.csv"
    assert cli.main(["eval", "--checkpoint", small_checkpoint, "--frames",
                     str(few), "--graph", graph, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {few}: teacher_forced_losses: frames of shape "
        f"({n_frames}, 16, 3) hold no transition; a pass needs at least 2 "
        f"frames\n")
    assert not out.exists()


def test_in_file_names_the_file_in_a_refusal_only():
    refusal = ContractViolation("config 'a' and 'b' too large", "a", "b")
    with pytest.raises(ContractViolation) as info:
        with in_file("f.txt"):
            raise refusal
    assert info.value is refusal and refusal.keys == ("a", "b")
    assert str(refusal) == "f.txt: config 'a' and 'b' too large"
    with pytest.raises(ParseError) as info:
        with in_file("f.txt"):
            raise ParseError("expected 3 values", line=4)
    assert info.value.path == "f.txt"
    assert str(info.value) == "f.txt: line 4: expected 3 values"
    for other in (NumericOverflow("step 1: non-finite loss"),
                  FileNotFoundError(2, "No such file", "g.txt")):
        text = str(other)
        with pytest.raises(type(other)) as info:
            with in_file("f.txt"):
                raise other
        assert info.value is other and str(other) == text


def test_aborted_train_writes_the_last_completed_epoch(tmp_path):
    # lr=1.7e308 overflows in the first epoch, so the checkpoint holds the
    # state the run started from, the one epochs=0 writes, and eval reads it
    frames, graph = str(tmp_path / "f.txt"), str(tmp_path / "g.txt")
    assert cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                     "n_nodes=16", "n_frames=12"]) == 0
    for epochs, code in ((3, 3), (0, 0)):
        assert cli.main(["train", "--frames", frames, "--graph", graph,
                         "--out-checkpoint", str(tmp_path / f"{epochs}.ckpt"),
                         "--out-history", str(tmp_path / f"{epochs}.csv"),
                         f"epochs={epochs}", "t_w=3", "lr=1.7e308",
                         "init_scale=1"]) == code
    aborted = tmp_path / "3.ckpt"
    assert aborted.read_bytes() == (tmp_path / "0.ckpt").read_bytes()
    assert cli.main(["eval", "--checkpoint", str(aborted), "--frames", frames,
                     "--graph", graph, "--out", str(tmp_path / "e.csv")]) == 0


def test_negative_zero_init_scale_trains_as_zero(small_dataset, tmp_path):
    # -0.0 passes '>= 0'; the init draws it as 0.0, so no draw moves
    frames, graph = small_dataset
    runs = [_train(frames, graph, tmp_path, name, f"init_scale={value}")
            for name, value in (("neg", "-0.0"), ("zero", "0"))]
    assert [rc for rc, _, _ in runs] == [0, 0]
    assert Path(runs[0][1]).read_bytes() == Path(runs[1][1]).read_bytes()


def test_eval_overflowing_readout_exit_code(small_dataset, small_checkpoint,
                                            tmp_path, capsys):
    # the recurrence stays finite and only the readout overflows, so the
    # loss is the first non-finite value
    frames, graph = small_dataset
    p, state = load_checkpoint(small_checkpoint, load_graph(graph), 3)
    p.V[...] = 1.5e308
    huge = tmp_path / "huge.ckpt"
    save_checkpoint(p, huge, load_graph(graph), state)
    out = tmp_path / "e.csv"
    assert cli.main(["eval", "--checkpoint", str(huge), "--frames", frames,
                     "--graph", graph, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: step 1: non-finite loss\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep-T"])
@pytest.mark.parametrize("n_frames", [0, 1])
def test_training_on_too_few_frames_names_the_frame_file(
        small_dataset, tmp_path, capsys, command, n_frames):
    _, graph = small_dataset
    frames = tmp_path.parent / f"{tmp_path.name}-few.txt"
    frames.write_text(f"gfrm 1 16 3 {n_frames}\n" + "0 0 0\n" * 16 * n_frames)
    inputs = ["--frames", str(frames), "--graph", graph]
    argv = {
        "train": ["train", *inputs, "--out-checkpoint", str(tmp_path / "c"),
                  "--out-history", str(tmp_path / "h")],
        "sweep-T": ["sweep-T", *inputs, "--T", "3", "--out",
                    str(tmp_path / "s")],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {frames}: config key 'split' = 0.8 leaves 0 of {n_frames} "
        f"frames to train on; a window needs 2\n")
    assert not any(tmp_path.iterdir())


def test_predict_rollout_of_no_frames_names_the_frame_file(
        small_dataset, small_checkpoint, tmp_path, capsys):
    _, graph = small_dataset
    empty = tmp_path / "empty.txt"
    empty.write_text("gfrm 1 16 3 0\n")
    out = tmp_path / "p.txt"
    assert cli.main(["predict", "--checkpoint", small_checkpoint, "--frames",
                     str(empty), "--graph", graph, "--horizon", "3",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {empty}: 0 frame(s) leave no input step to feed back from; "
        f"predict --horizon 3 needs 1 or more\n")
    assert not out.exists()


def _append_bad_byte(src, dst):
    dst.write_bytes(Path(src).read_bytes() + b"\xff\n")
    return dst


@pytest.mark.parametrize("reader", ["graph", "frames", "checkpoint", "config"])
def test_non_utf8_byte_names_the_file(small_dataset, small_checkpoint,
                                      tmp_path, capsys, reader):
    frames, graph = small_dataset
    paths = {"graph": graph, "frames": frames, "checkpoint": small_checkpoint}
    if reader == "config":
        bad = tmp_path / "c.cfg"
        bad.write_bytes(b"epochs = 1\n# caf\xe9\n")
        line = 2
    else:
        bad = _append_bad_byte(paths[reader], tmp_path / f"bad-{reader}.txt")
        line = len(Path(paths[reader]).read_text().splitlines()) + 1
        paths[reader] = str(bad)
    if reader == "config":
        argv = ["train", "--config", str(bad), "--frames", frames, "--graph",
                graph, "--out-checkpoint", str(tmp_path / "o.ckpt"),
                "--out-history", str(tmp_path / "o.csv")]
    else:
        argv = ["eval", "--checkpoint", paths["checkpoint"], "--frames",
                paths["frames"], "--graph", paths["graph"]]
    assert cli.main(argv) == 2
    byte = "e9" if reader == "config" else "ff"
    assert capsys.readouterr().err == (
        f"error: {bad}: line {line}: byte 0x{byte} is not UTF-8\n")
    assert not (tmp_path / "o.ckpt").exists()


def test_predict_one_frame_writes_no_frames(small_dataset, small_checkpoint,
                                            tmp_path):
    frames, graph = small_dataset
    one = tmp_path / "one.txt"
    one.write_text("gfrm 1 16 3 1\n" + "0 0 0\n" * 16)
    out = tmp_path / "p.txt"
    assert cli.main(["predict", "--checkpoint", small_checkpoint, "--frames",
                     str(one), "--graph", graph, "--out", str(out)]) == 0
    assert load_frames(out).frames.shape == (0, 16, 3)


@pytest.mark.parametrize("horizon", ["1", "3"])
def test_predict_overflow_is_a_numeric_failure(small_dataset, small_checkpoint,
                                               tmp_path, capsys, horizon):
    # V and z so large that the readout overflows: the model fails, exit 3,
    # and the input frames are not blamed
    frames, graph = small_dataset
    lines = Path(small_checkpoint).read_text().splitlines()
    at = {line.split()[0]: k for k, line in enumerate(lines)}
    for key in ("V", "z"):
        for k in range(at[key] + 1, at[key] + 1 + int(lines[at[key]].split()[1])):
            lines[k] = " ".join(["1.7e308"] * len(lines[k].split()))
    big = tmp_path / "big.ckpt"
    big.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.txt"
    assert cli.main(["predict", "--checkpoint", str(big), "--frames", frames,
                     "--graph", graph, "--horizon", horizon,
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    if horizon == "1":
        assert err == "numeric failure: predicted frame 1: non-finite value\n"
    assert not out.exists()


def test_stability_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = cli.main(["stability", "--n-nodes", "12", "--alpha", "0,0.5",
                   "--beta", "0.5,1", "--T", "4,8", "--out", out])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "alpha,beta,T,sigma_max,sigma_min,cond,bound_M"
    assert len(lines) == 1 + 2 * 2 * 2


@pytest.mark.parametrize("command", ["eval", "stability", "sweep-T"])
def test_without_out_the_csv_goes_to_stdout(small_dataset, small_checkpoint,
                                            tmp_path, capsys, command):
    frames, graph = small_dataset
    inputs = ["--frames", frames, "--graph", graph]
    argv = {
        "eval": ["eval", "--checkpoint", small_checkpoint, *inputs],
        "stability": ["stability", "--n-nodes", "12", "--T", "4"],
        "sweep-T": ["sweep-T", *inputs, "--T", "3", "p=2", "epochs=1"],
    }[command]
    csv = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(csv)]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    if command == "eval":  # its mean follows the CSV, with or without --out
        mean = printed.splitlines(True)[-1]
        assert mean.startswith("mean transition loss: ")
        printed = printed[:-len(mean)]
    assert printed == csv.read_text()


def test_stability_bad_grid():
    assert cli.main(["stability", "--alpha", "0,oops"]) == 2


@pytest.mark.parametrize("flag,value,repeated", [
    ("--alpha", "0.5,1,0.5", "0.5"),
    ("--beta", "1,1.0", "1.0"),
    ("--T", "4,8,4", "4"),
])
def test_stability_refuses_a_repeated_grid_value(tmp_path, capsys, flag,
                                                 value, repeated):
    # a repeated value would write the same sweep rows twice
    argv = ["stability", "--n-nodes", "8", "--alpha", "0.5", "--beta", "1",
            "--T", "4"]
    argv[argv.index(flag) + 1] = value
    out = tmp_path / "s.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag}: grid value {repeated} given twice in {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("args,rc,err,row", [
    (["--beta", "1e40", "--T", "12"], 3,
     "numeric failure: stability: non-finite Jacobian product at "
     "alpha=0.0, beta=1e+40, T=12\n", None),
    (["--beta", "1e160", "--T", "4"], 3,
     "numeric failure: stability: non-finite Jacobian product at "
     "alpha=0.0, beta=1e+160, T=4\n", None),
    (["--T", "800", "--alpha", "0.2", "--beta", "1", "--w", "1", "--bias",
      "1"], 0, "", "0.20000000000000001,1,800,4.0754209273710536e+116,0,"
     "inf,inf"),
], ids=["beta 1e40", "beta 1e160", "T 800"])
def test_stability_overflow(tmp_path, capsys, args, rc, err, row):
    # a product that overflows exits 3 naming its grid point (it used to
    # end in the SVD's LinAlgError, or write nan rows); a bound too large
    # for a float is written as inf (it used to raise OverflowError)
    out = tmp_path / "s.csv"
    assert cli.main(["stability", "--n-nodes", "8", *args,
                     "--out", str(out)]) == rc
    assert capsys.readouterr().err == err
    if row is None:
        assert not out.exists()
    else:
        assert out.read_text().splitlines()[1:] == [row]


@pytest.mark.parametrize("alphas,err", [
    ("0,0.5,1", "non-finite Jacobian product at alpha=0.0, beta=1e+40, T=12"),
    ("0.5", "step 10: non-finite pre-activation at alpha=0.5, beta=1e+40"),
], ids=["product first", "forward pass"])
def test_stability_names_its_first_failing_point(tmp_path, capsys, alphas,
                                                 err):
    # alpha=0's T=12 product overflows, then alpha=0.5's forward pass; the
    # forward error used to escape, naming no grid point, while alpha=0's
    # waited in the worker
    out = tmp_path / "s.csv"
    assert cli.main(["stability", "--n-nodes", "8", "--alpha", alphas,
                     "--beta", "1e40", "--T", "12", "--w", "1",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numeric failure: stability: {err}\n"
    assert not out.exists()


def test_stability_default_cell_depends_on_alpha(tmp_path):
    # with the old default --w 0 the relu state never left 0, so every
    # step factor was beta I and each alpha wrote the same rows
    out = tmp_path / "s.csv"
    assert cli.main(["stability", "--T", "4,8", "--alpha", "0.5,1",
                     "--beta", "0,0.5", "--out", str(out)]) == 0
    rows = [line.split(",", 1) for line in out.read_text().splitlines()[1:]]
    assert [alpha for alpha, _ in rows] == ["0.5"] * 4 + ["1"] * 4
    assert all(a != b for (_, a), (_, b) in zip(rows[:4], rows[4:]))


@pytest.mark.parametrize("flag,value", [
    ("--alpha", "nan"),
    ("--alpha", "0,inf"),
    ("--beta", "0.5,-inf"),
    ("--beta", "1e999"),
    ("--T", "1,4"),
    ("--T", "4,0"),
    ("--T", "4,x"),
    ("--T", ","),
    ("--seed", "-1"),
    ("--n-nodes", "5"),
    ("--u", "nan"),
    ("--w", "1e999"),
    ("--bias", "inf"),
])
def test_stability_bad_grid_named_before_work(tmp_path, capsys, monkeypatch,
                                              flag, value):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the grids were checked")

    monkeypatch.setattr(cli.datamod, "generate_synthetic", no_work)
    monkeypatch.setattr(cli, "stability_sweep", no_work)
    out = tmp_path / "s.csv"
    assert cli.main(["stability", flag, value, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["--graph", "--n-nodes"])
def test_stability_checks_n_before_building_anything(tmp_path, capsys,
                                                      monkeypatch, source):
    def no_work(*args, **kwargs):
        raise AssertionError("built something of size N before checking N")

    for module, name in ((cli.datamod, "generate_synthetic"),
                         (cli, "scalar_cell_params"),
                         (stability, "build_laplacians")):
        monkeypatch.setattr(module, name, no_work)
    if source == "--graph":
        graph = tmp_path / "g.txt"
        graph.write_text("5000 0\n")
        argv = ["stability", "--graph", str(graph)]
    else:
        argv = ["stability", "--n-nodes", "5000"]
    out = tmp_path / "s.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: stability diagnostics limited to N <= 2048, got N = 5000\n")
    assert not out.exists()


@pytest.mark.parametrize("text,fragment", [
    ("x 1\n", "line 1: expected integers 'N M'"),
    ("3 1.5\n0 1 1\n", "line 1: expected integers 'N M'"),
    ("-3 0\n", "line 1: expected non-negative"),
    ("0 0\n", "line 1: need N >= 1 nodes, got '0 0'"),
    ("3 2\n0 1 1\nx 1 1\n", "line 3: expected integers i j"),
    ("3 1\n0 2 heavy\n", "line 2: expected integers i j"),
    ("3 1\n0 1 nan\n", "positive and finite"),
    ("", "line 1: empty graph file"),
    ("3\n", "line 1: expected 'N M' header"),
    ("3 3\n0 1 1\n", "line 2: expected 3 edges, found 1"),
    ("3 1\n0 1\n", "line 2: expected 'i j w'"),
    ("3 1\n0 1 1.0\n1 2 1.0\ngarbage here\n",
     "line 3: expected 1 edges, found more: '1 2 1.0'"),
    ("3 1\n0 1 1.0\n\n \ngarbage here\n",
     "line 5: expected 1 edges, found more: 'garbage here'"),
    ("3 2\n0 1 1e308\n1 2 1e308\n",
     "line 3: edge (1, 2) makes the weighted degree of node 1 overflow"),
    # two faults: the first in file order is the one named
    ("3 2\n0 0 1\n1 2 x\n", "line 2: bad edge (0, 0)"),
    ("3 3\n0 1 1\n0 1 1\n1 2 1\nextra\n", "line 3: duplicate edge (0, 1)"),
    ("3 2\n0 1 -1\n1 2\n",
     "line 2: edge (0, 1) weight must be positive and finite, got -1.0"),
])
def test_bad_graph_exit_code(tmp_path, capsys, text, fragment):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert cli.main(["stability", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert f"error: {path}: line " in err


@pytest.mark.parametrize("text,fragment", [
    ("gfrm 1 x 3 1\n0 0 0\n", "line 1: expected integers N F T"),
    ("# c\ngfrm 1 16 3 1.0\n", "line 2: expected integers N F T"),
    ("gfrm 1 0 3 1\n", "line 1: need N >= 1"),
    ("gfrm 1 16 0 1\n", "line 1: need N >= 1, F >= 1"),
    ("gfrm 1 16 3 1\n" + "0 0 0\n" * 15 + "1 2\n", "line 17: expected 3 values"),
    ("gfrm 1 16 3 1\n0 0 x\n" + "0 0 0\n" * 15, "line 2: expected 3 numbers"),
    ("gfrm 1 16 3 2\n" + "0 0 0\n" * 16, "line 17: expected 32 data lines"),
    ("gfrm 1 16 3 1\n" + "0 0 0\n" * 3 + "0 nan 0\n" + "0 0 0\n" * 12,
     "line 5: expected finite values"),
    ("gfrm 1 16 3 1\n# c\n" + "0 0 0\n" * 15 + "-inf 0 0\n",
     "line 18: expected finite values"),
], ids=["N x", "T 1.0", "N 0", "F 0", "short row", "non-numeric", "short file",
        "nan", "inf after a comment"])
def test_bad_frames_exit_code(small_dataset, small_checkpoint, tmp_path, capsys,
                              text, fragment):
    _, graph = small_dataset
    path = tmp_path / "f.txt"
    path.write_text(text)
    assert cli.main(["eval", "--checkpoint", small_checkpoint, "--frames",
                     str(path), "--graph", graph]) == 2
    assert f"error: {path}: {fragment}" in capsys.readouterr().err


def _mutate_checkpoint(lines, case):
    """(mutated lines, message fragment) for one kind of bad checkpoint."""
    at = {line.split()[0]: k for k, line in enumerate(lines)}
    if case == "truncated":
        return lines[:at["U"] + 2], f"line {at['U'] + 1}: U: header promises 2 rows"
    if case == "truncated scalars":
        return lines[:3], "line 3: the file ends without a 'graph_checksum' entry"
    if case.startswith("no "):  # refused where the entry belongs
        key = case[3:]
        head = lines[at[key]].split()
        block = 1 + int(head[1]) if len(head) == 3 else 1
        form = "rows cols" if len(head) == 3 else "value"
        lines = lines[:at[key]] + lines[at[key] + block:]
        return lines, (f"line {at[key] + 1}: expected '{key} {form}', got "
                       f"{lines[at[key]]!r}")
    if case == "alpha beta swapped":
        alpha, beta = at["alpha"], at["beta"]
        lines[alpha], lines[beta] = lines[beta], lines[alpha]
        return lines, (f"line {at['alpha'] + 1}: expected 'alpha value', got "
                       f"{lines[at['alpha']]!r}")
    if case in ("alpha nan", "beta inf", "alpha abc"):
        key, value = case.split()
        lines[at[key]] = f"{key} {value}"
        return lines, f"line {at[key] + 1}: {key} must be a finite number"
    if case == "rows over header":  # V's block swallows the b header
        lines[at["V"]] = lines[at["V"]].replace("V 2", "V 3")
        return lines, f"line {at['V'] + 1}: V: the 3 lines"
    if case == "ragged row":
        lines[at["W"] + 1] = lines[at["W"] + 1].rsplit(" ", 1)[0]
        return lines, f"line {at['W'] + 1}: W:"
    if case == "cols over header":
        lines[at["b"]] = lines[at["b"]] + "0"
        return lines, f"line {at['b'] + 1}: b:"
    if case == "bad header":
        lines[at["U"]] = "U two 2"
        return lines, f"line {at['U'] + 1}: expected 'U rows cols'"
    if case == "stray line":
        return (lines[:2] + ["hello"] + lines[2:],
                "line 3: expected 'activation value', got 'hello'")
    if case == "unknown entry":
        return (lines[:2] + ["k 3"] + lines[2:],
                "line 3: expected 'activation value', got 'k 3'")
    if case == "repeated W":  # a second W block where U belongs
        block = lines[at["W"]:at["U"]]
        return (lines[:at["U"]] + block + lines[at["U"]:],
                f"line {at['U'] + 1}: expected 'U rows cols', got 'W 3 2'")
    if case in ("b short", "z short"):  # 15 of the graph's 16 nodes
        key = case[0]
        lines[at[key]] = f"{key} 1 15"
        lines[at[key] + 1] = lines[at[key] + 1].rsplit(" ", 1)[0]
        return lines, f"checkpoint {key} is 1 x 15, but N=16 nodes"
    if case == "b two rows":
        values = lines[at["b"] + 1].split()
        rows = [" ".join(values[:8]), " ".join(values[8:])]
        lines = lines[:at["b"]] + ["b 2 8"] + rows + lines[at["b"] + 2:]
        return lines, (f"line {at['b'] + 1}: checkpoint b is 2 x 8, but N=16 "
                       f"nodes and F=3 features need 1 x 16")
    if case == "W rows":  # W is F x p = 3 x 2
        lines[at["W"]] = "W 2 2"
        del lines[at["W"] + 3]
        return lines, "checkpoint W is 2 x 2, but N=16 nodes and F=3 features need 3 x 2"
    if case == "U rows":
        lines[at["U"]] = "U 1 2"
        del lines[at["U"] + 2]
        return lines, "checkpoint U is 1 x 2"
    if case == "V cols":  # V is p x F = 2 x 3
        lines[at["V"]] = "V 2 2"
        for row in (at["V"] + 1, at["V"] + 2):
            lines[row] = lines[row].rsplit(" ", 1)[0]
        return lines, "checkpoint V is 2 x 2"
    if case in ("W nan", "b nan", "z inf"):
        key, value = case.split()
        values = lines[at[key] + 1].split()
        values[1] = value
        lines[at[key] + 1] = " ".join(values)
        return lines, f"line {at[key] + 1}: {key}: values must be finite"
    if case == "adam_m short":  # 49 moments for 50 parameters
        lines[at["adam_m"]] = "adam_m 1 49"
        lines[at["adam_m"] + 1] = lines[at["adam_m"] + 1].rsplit(" ", 1)[0]
        return lines, f"line {at['adam_m'] + 1}: adam_m: 49 values for 50"
    if case in ("epoch -3", "adam_step -1"):
        # a negative epoch would number a resumed history from -2 and raise
        # the rate above lr; a negative Adam step would divide by zero
        key, value = case.split()
        lines[at[key]] = case
        return lines, f"line {at[key] + 1}: {key} must be >= 0, got {value}"
    if case == "adam_v negative":  # sqrt(v_hat) of a negative v is nan
        values = lines[at["adam_v"] + 1].split()
        values[0] = "-1"
        lines[at["adam_v"] + 1] = " ".join(values)
        return lines, f"line {at['adam_v'] + 1}: adam_v: values must be >= 0"
    if case in ("use_plain_laplacian 7", "family dense", "activation softsign"):
        key, value = case.split()
        lines[at[key]] = case
        return lines, f"line {at[key] + 1}: {key} must be one of"
    # two faults: the refusal names the first in file order
    if case == "alpha nan, W abc":
        lines[at["alpha"]] = "alpha nan"
        lines[at["W"] + 1] = "abc " + lines[at["W"] + 1].split(" ", 1)[1]
        return lines, (f"line {at['alpha'] + 1}: alpha must be a finite "
                       f"number, got 'nan'")
    if case == "epoch -1, adam_v -1":
        lines[at["epoch"]] = "epoch -1"
        values = lines[at["adam_v"] + 1].split()
        values[0] = "-1"
        lines[at["adam_v"] + 1] = " ".join(values)
        return lines, f"line {at['epoch'] + 1}: epoch must be >= 0, got -1"
    if case == "graph_checksum 0000, z 1 17":  # z's row holds 16 values
        lines[at["graph_checksum"]] = "graph_checksum 0000"
        lines[at["z"]] = "z 1 17"
        return lines, (f"line {at['graph_checksum'] + 1}: graph_checksum "
                       f"0000 is not the graph's")
    if case == "W rows, b short":  # b first: deleting a W row moves it
        lines[at["b"]] = "b 1 15"
        lines[at["b"] + 1] = lines[at["b"] + 1].rsplit(" ", 1)[0]
        lines[at["W"]] = "W 2 2"
        del lines[at["W"] + 3]
        return lines, f"line {at['W'] + 1}: checkpoint W is 2 x 2, but N=16"
    if case == "epoch past a double":  # int() reads it, float() overflows
        lines[at["epoch"]] = "epoch 1" + "0" * 400
        return lines, (f"line {at['epoch'] + 1}: epoch must be a finite "
                       f"number, got '1000")
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "truncated", "truncated scalars", "no W", "no U", "no V", "no b", "no z",
    "no alpha", "no beta", "no family", "no epoch", "no lr", "no adam_m",
    "unknown entry", "repeated W", "alpha beta swapped", "alpha nan",
    "beta inf", "alpha abc",
    "rows over header", "ragged row", "cols over header", "bad header",
    "stray line", "b short", "z short", "b two rows", "W rows", "U rows",
    "V cols", "W nan", "b nan", "z inf", "adam_m short", "use_plain_laplacian 7",
    "family dense", "activation softsign", "epoch -3", "adam_step -1",
    "adam_v negative", "alpha nan, W abc", "epoch -1, adam_v -1",
    "graph_checksum 0000, z 1 17", "W rows, b short", "epoch past a double"])
def test_bad_checkpoint_exit_code(small_dataset, small_checkpoint, tmp_path,
                                  capsys, case):
    frames, graph = small_dataset
    lines = Path(small_checkpoint).read_text().splitlines()
    lines, fragment = _mutate_checkpoint(lines, case)
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", "--checkpoint", str(bad), "--frames", frames,
                     "--graph", graph]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert f"error: {bad}: " in err


@pytest.mark.parametrize("case", ["b short", "W rows", "adam_m short",
                                  "epoch -3", "adam_step -1",
                                  "adam_v negative"])
def test_resume_bad_checkpoint_shape(small_dataset, small_checkpoint, tmp_path,
                                     capsys, case):
    frames, graph = small_dataset
    lines = Path(small_checkpoint).read_text().splitlines()
    lines, fragment = _mutate_checkpoint(lines, case)
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["train", "--frames", frames, "--graph", graph,
                     "--out-checkpoint", str(tmp_path / "c"),
                     "--out-history", str(tmp_path / "h"),
                     "--resume", str(bad), "family=first_order", "p=2",
                     "epochs=2", "t_w=4"]) == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert f"error: {bad}: " in err


@pytest.mark.parametrize("header,row,message", [
    ("W 0 3", None, "W: a filter needs at least one coefficient"),
    ("W 1 0", "", "W: a filter needs at least one coefficient"),
    ("U 0 3", None, "checkpoint U is 0 x 3, but N=16 nodes and F=3 features "
     "need 1 x 3 in a chebyshev model of K=3, W's column count"),
    ("V 1 0", "", "checkpoint V is 1 x 0, but N=16 nodes and F=3 features "
     "need 1 x 3 in a chebyshev model of K=3, W's column count")],
    ids=["W 0 3", "W 1 0", "U 0 3", "V 1 0"])
def test_chebyshev_filter_without_a_coefficient(
        small_dataset, cheb_checkpoint, tmp_path, capsys, header, row,
        message):
    frames, graph = small_dataset
    key = header.split()[0]
    lines = Path(cheb_checkpoint).read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if line.split()[0] == key)
    lines[at:at + 2] = [header] if row is None else [header, row]
    bad = tmp_path / "bad.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    assert cli.main(["eval", "--checkpoint", str(bad), "--frames", frames,
                     "--graph", graph]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {at + 1}: {message}\n"


def _resume(frames, graph, ckpt, out_dir, name, *extra):
    out = out_dir / f"{name}.ckpt"
    rc = cli.main(["train", "--frames", frames, "--graph", graph,
                   "--resume", str(ckpt), "--out-checkpoint", str(out),
                   "--out-history", str(out_dir / f"{name}.csv"),
                   "t_w=4", *extra])
    return rc, out


@pytest.mark.parametrize("trained,given,message", [
    ([], ["lr=5"], "'lr' = 5.0 and 'lr_decay' = 0.9 give rate 4.5"),
    ([], ["lr_decay=0.5"], "'lr' = 0.01 and 'lr_decay' = 0.5 give rate 0.005"),
    (["lr=0.05"], [],
     "'lr' = 0.01 and 'lr_decay' = 0.9 give rate 0.009000000000000001"),
], ids=["lr", "lr_decay", "default lr"])
def test_resume_refuses_a_conflicting_rate(small_dataset, tmp_path, capsys,
                                           trained, given, message):
    # the rate lr and lr_decay give the checkpoint's last epoch must be
    # the one it trained at, whether the keys are set or left at default
    frames, graph = small_dataset
    rc, ckpt, _ = _train(frames, graph, tmp_path, "two", *trained)
    assert rc == 0
    lr = 0.05 * 0.9 if trained else 0.01 * 0.9
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, _ = _resume(frames, graph, ckpt, out_dir, "r", "epochs=1", *given)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: config keys {message} at the checkpoint's epoch 2, "
        f"but its lr is {lr!r}\n")
    assert not any(out_dir.iterdir())
    rc, _ = _resume(frames, graph, ckpt, out_dir, "ok", "epochs=1", *trained)
    assert rc == 0


def test_resume_of_no_epochs_records_the_last_epochs_rate(small_dataset,
                                                          tmp_path):
    # resuming for 0 epochs rewrites the checkpoint as it was, its rate
    # included, so that it resumes as the original does
    frames, graph = small_dataset
    rc, ckpt, _ = _train(frames, graph, tmp_path, "two")
    assert rc == 0
    rc, same = _resume(frames, graph, ckpt, tmp_path, "same", "epochs=0")
    assert rc == 0
    assert same.read_bytes() == Path(ckpt).read_bytes()
    rc, a = _resume(frames, graph, same, tmp_path, "a", "epochs=1")
    assert rc == 0
    rc, b = _resume(frames, graph, ckpt, tmp_path, "b", "epochs=1")
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.filterwarnings("error")
def test_a_decay_past_the_largest_float_aborts_at_its_epoch(small_dataset,
                                                            tmp_path):
    # 1e300 ** 2 overflows at epoch 3, so its rate is inf: the run aborts
    # there and keeps epochs 1 and 2
    rc, ckpt, hist = _train(*small_dataset, tmp_path, "inf", "epochs=3",
                            "lr=5e-324", "lr_decay=1e300")
    assert rc == 3
    rows = Path(hist).read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert float(rows[-1].split(",")[-1]) == 5e-324 * 1e300
    assert "epoch 2\n" in Path(ckpt).read_text()


@pytest.mark.filterwarnings("error")
def test_resume_at_an_overflowing_rate_is_refused(small_dataset, tmp_path,
                                                  capsys):
    frames, graph = small_dataset
    rc, ckpt, _ = _train(frames, graph, tmp_path, "one", "epochs=1")
    assert rc == 0
    late = tmp_path / "late.ckpt"
    late.write_text(Path(ckpt).read_text().replace("\nepoch 1\n",
                                                   "\nepoch 400\n"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc, _ = _resume(frames, graph, late, out_dir, "r", "epochs=1",
                    "lr_decay=10")
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {late}: config keys 'lr' = 0.01 and 'lr_decay' = 10.0 give "
        f"rate inf at the checkpoint's epoch 400, but its lr is 0.01\n")
    assert not any(out_dir.iterdir())


COMPAT = Path(__file__).parent / "data"


def test_checkpoint_from_before_one_theta_still_resumes(tmp_path):
    # compat_epoch1.ckpt is one epoch of first-order training (N=8, p=2)
    # written while parameters lived in separate filter objects, and
    # compat_epoch2.ckpt the same release's checkpoint after resuming it
    # for one more epoch; both must come out byte for byte
    frames = str(COMPAT / "compat_frames.txt")
    graph = str(COMPAT / "compat_graph.txt")
    epoch1 = COMPAT / "compat_epoch1.ckpt"
    p, state = load_checkpoint(epoch1, load_graph(graph), 3)
    again = tmp_path / "again.ckpt"
    save_checkpoint(p, again, load_graph(graph), state)
    assert again.read_bytes() == epoch1.read_bytes()
    out = tmp_path / "epoch2.ckpt"
    assert cli.main(["train", "--frames", frames, "--graph", graph,
                     "--resume", str(epoch1), "--out-checkpoint", str(out),
                     "--out-history", str(tmp_path / "h.csv"),
                     "family=first_order", "p=2", "t_w=4", "epochs=1"]) == 0
    assert out.read_bytes() == (COMPAT / "compat_epoch2.ckpt").read_bytes()


@pytest.mark.parametrize("name,extra", [
    ("cheb", []), ("cheb_reg", ["lambda_reg=0.1"])], ids=["cheb", "cheb_reg"])
def test_chebyshev_training_reproduces_its_bytes(tmp_path, name, extra):
    # <name>_epoch2.ckpt and <name>_history.csv are two epochs of Chebyshev
    # (K=3) stride-1 training on cheb_frames.txt (N=16), written while BPTT
    # still scored and read out one step at a time; checkpoint and history
    # must come out byte for byte. A change that moves these bytes on
    # purpose, such as a new lambda_max, regenerates them and says so.
    out = tmp_path / "model.ckpt"
    history = tmp_path / "history.csv"
    assert cli.main(["train", "--frames", str(COMPAT / "cheb_frames.txt"),
                     "--graph", str(COMPAT / "cheb_graph.txt"),
                     "--out-checkpoint", str(out), "--out-history",
                     str(history), "family=chebyshev", "k=3", "t_w=4",
                     "stride=1", "epochs=2", *extra]) == 0
    assert out.read_bytes() == (COMPAT / f"{name}_epoch2.ckpt").read_bytes()
    assert history.read_bytes() == (COMPAT / f"{name}_history.csv").read_bytes()


def test_sweep_t_csv(small_dataset, tmp_path):
    frames, graph = small_dataset
    out = str(tmp_path / "sweepT.csv")
    rc = cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                   "--T", "3,5", "--seeds", "2", "--out", out,
                   "family=first_order", "p=2", "epochs=1"])
    assert rc == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "T,seed,final_alpha,final_beta,test_loss"
    assert len(lines) == 5
    got = [(int(l.split(",")[0]), int(l.split(",")[1])) for l in lines[1:]]
    assert got == [(3, 0), (3, 1), (5, 0), (5, 1)]


def _sweep_t_updates(monkeypatch, frames, graph, out, *extra):
    """Run sweep-T; return {T: [(stride, Adam steps) per seed]}."""
    seen = {}

    def recording_train(cfg, *args, **kwargs):
        run = train(cfg, *args, **kwargs)
        seen.setdefault(cfg.t_w, []).append((cfg.effective_stride,
                                             run.adam.step))
        return run

    monkeypatch.setattr(cli, "train", recording_train)
    assert cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                     "--T", "3,5,8", "--seeds", "2", "--out", out,
                     "family=first_order", "p=2", "epochs=2", *extra]) == 0
    return seen


def test_sweep_t_equal_updates_per_T(small_dataset, tmp_path, monkeypatch):
    # 30 frames, split 0.8: 24 train frames, window starts 0..22
    frames, graph = small_dataset
    seen = _sweep_t_updates(monkeypatch, frames, graph,
                            str(tmp_path / "a.csv"))
    # stride unset: the smallest T (3) is every T's stride, 8 windows
    assert seen == {t: [(3, 2 * 8)] * 2 for t in (3, 5, 8)}
    seen = _sweep_t_updates(monkeypatch, frames, graph,
                            str(tmp_path / "b.csv"), "stride=2")
    assert seen == {t: [(2, 2 * 12)] * 2 for t in (3, 5, 8)}


def test_sweep_t_honours_stride_0(tmp_path):
    # stride=0 means stride = t_w, as in train; sweep-T used to read it as
    # unset and train every T on the smallest T's stride
    frames, graph = str(tmp_path / "f.txt"), str(tmp_path / "g.txt")
    assert cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                     "n_nodes=12", "n_frames=30"]) == 0
    keys = ["p=2", "epochs=2", "stride=0"]
    sweep, history = tmp_path / "s.csv", tmp_path / "h.csv"
    assert cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                     "--T", "3,6", "--out", str(sweep), *keys]) == 0
    assert cli.main(["train", "--frames", frames, "--graph", graph,
                     "--out-checkpoint", str(tmp_path / "c"),
                     "--out-history", str(history), "t_w=6", *keys]) == 0
    _, _, alpha, beta, test = sweep.read_text().splitlines()[2].split(",")
    _, _, want_test, want_alpha, want_beta, _ = (
        history.read_text().splitlines()[-1].split(","))
    assert (alpha, beta, test) == (want_alpha, want_beta, want_test)


def test_sweep_t_duplicate_T(small_dataset, tmp_path):
    frames, graph = small_dataset
    assert cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                     "--T", "5,5"]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_t_overflow_writes_nan_rows(tmp_path):
    frames, graph = str(tmp_path / "f.txt"), str(tmp_path / "g.txt")
    assert cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                     "n_nodes=12", "n_frames=20", "seed=3"]) == 0
    out = tmp_path / "sweepT.csv"
    assert cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                     "--T", "3,4", "--out", str(out), "epochs=2",
                     "lr=1e300"]) == 0
    assert out.read_text().splitlines() == [
        "T,seed,final_alpha,final_beta,test_loss",
        "3,0,nan,nan,nan", "4,0,nan,nan,nan"]


def test_overflow_is_reported_without_a_numpy_warning(tmp_path, capsys):
    frames, graph = str(tmp_path / "f.txt"), str(tmp_path / "g.txt")
    assert cli.main(["gen-data", "--out-frames", frames, "--out-graph", graph,
                     "n_nodes=12", "n_frames=20", "seed=3"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--frames", frames, "--graph", graph,
                         "--out-checkpoint", str(tmp_path / "c"),
                         "--out-history", str(tmp_path / "h"),
                         "epochs=2", "lr=1e300"]) == 3
        assert cli.main(["sweep-T", "--frames", frames, "--graph", graph,
                         "--T", "3,4", "--seeds", "2", "--out",
                         str(tmp_path / "s"), "epochs=2", "lr=1e300"]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "training aborted: numeric overflow",
        "T=3 seed=0: training aborted: numeric overflow",
        "T=3 seed=1: training aborted: numeric overflow",
        "T=4 seed=0: training aborted: numeric overflow",
        "T=4 seed=1: training aborted: numeric overflow"]


def test_stability_takes_no_frames(small_dataset, capsys):
    # the sweep draws its window from --seed, so a frame file has no use
    frames, graph = small_dataset
    with pytest.raises(SystemExit) as exc:
        cli.main(["stability", "--frames", frames, "--graph", graph])
    assert exc.value.code == 2
    assert "--frames" in capsys.readouterr().err


def test_stability_has_one_node_operator(capsys):
    # the diagnostic cell convolves with L1 only; there is no switch to L
    with pytest.raises(SystemExit) as exc:
        cli.main(["stability", "--n-nodes", "8", "--plain-laplacian"])
    assert exc.value.code == 2
    assert "--plain-laplacian" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "predict", "train"])
def test_checkpoint_of_the_plain_laplacian_is_refused(
        small_dataset, small_checkpoint, tmp_path, capsys, command):
    frames, graph = small_dataset
    lines = Path(small_checkpoint).read_text().splitlines()
    assert lines[3] == "use_plain_laplacian 0"
    lines[3] = "use_plain_laplacian 1"
    bad = tmp_path.parent / f"{tmp_path.name}.ckpt"
    bad.write_text("\n".join(lines) + "\n")
    inputs = ["--frames", frames, "--graph", graph]
    argv = {
        "eval": ["eval", "--checkpoint", str(bad), *inputs,
                 "--out", str(tmp_path / "e.csv")],
        "predict": ["predict", "--checkpoint", str(bad), *inputs,
                    "--out", str(tmp_path / "p.txt")],
        "train": ["train", *inputs, "--resume", str(bad),
                  "--out-checkpoint", str(tmp_path / "c.ckpt"),
                  "--out-history", str(tmp_path / "h.csv")],
    }[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line 4: use_plain_laplacian must be one of 0, "
        f"got '1'\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "stability",
                                     "sweep-T"])
def test_cli_closes_every_file_it_opens(small_dataset, small_checkpoint,
                                        tmp_path, command):
    frames, graph = small_dataset
    config = tmp_path / "c.cfg"
    config.write_text("epochs = 1\n" if command != "gen-data"
                      else "n_nodes = 12\nn_frames = 8\n")
    out = str(tmp_path / "out")
    argv = {
        "gen-data": ["gen-data", "--config", str(config), "--out-frames", out,
                     "--out-graph", str(tmp_path / "g")],
        "train": ["train", "--config", str(config), "--frames", frames,
                  "--graph", graph, "--out-checkpoint", out,
                  "--out-history", str(tmp_path / "h"), "p=2", "t_w=4"],
        "eval": ["eval", "--checkpoint", small_checkpoint, "--frames", frames,
                 "--graph", graph, "--out", out],
        "stability": ["stability", "--n-nodes", "12", "--T", "4",
                      "--out", out],
        "sweep-T": ["sweep-T", "--config", str(config), "--frames", frames,
                    "--graph", graph, "--T", "3", "--out", out, "p=2"],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli.main(argv) == 0
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_missing_file_exit_code(tmp_path):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--frames", str(tmp_path / "no.txt"),
                   "--graph", str(tmp_path / "no.g")])
    assert rc == 1


@pytest.mark.parametrize("command,key", [
    *(("gen-data", f.name) for f in fields(SyntheticConfig)),
    *(("train", f.name) for f in fields(TrainConfig))])
def test_every_config_key_fails_cleanly(small_dataset, tmp_path, capsys,
                                        command, key):
    frames, graph = small_dataset
    argv = {
        "gen-data": ["gen-data", "--out-frames", str(tmp_path / "f"),
                     "--out-graph", str(tmp_path / "g"),
                     "n_nodes=12", "n_frames=8"],
        "train": ["train", "--frames", frames, "--graph", graph,
                  "--out-checkpoint", str(tmp_path / "c"),
                  "--out-history", str(tmp_path / "h"), "epochs=1"],
    }[command]
    for value in ("-1", "0", "nan", "inf", ""):
        rc = cli.main(argv + [f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3), (value, err)
        if rc == 2:
            assert f"'{key}'" in err, (value, err)


def readme_examples():
    """Each `fgrnn ...` command of README.md's sh blocks, as its argv after
    `fgrnn`, continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fgrnn"]:
                examples.append(argv[1:])
    return examples


def test_readme_examples_parse():
    examples = readme_examples()
    assert examples
    parser = cli.build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: fgrnn "
                        f"{shlex.join(argv)}")


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    made, real = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert cli.main(["params", "first_order", "--n", "16", "--p", "2"]) == 0
    assert made == []
    assert capsys.readouterr().out.count("\n") == 2


# each subcommand's function, and the least argv that reaches it
COMMANDS = {
    "cmd_gen_data": ["gen-data", "--out-frames", "f", "--out-graph", "g"],
    "cmd_train": ["train", "--frames", "f", "--graph", "g",
                  "--out-checkpoint", "c", "--out-history", "h"],
    "cmd_eval": ["eval", "--checkpoint", "c", "--frames", "f", "--graph", "g"],
    "cmd_predict": ["predict", "--checkpoint", "c", "--frames", "f",
                    "--graph", "g", "--out", "o"],
    "cmd_stability": ["stability"],
    "cmd_params": ["params", "chebyshev", "--n", "4"],
    "cmd_sweep_t": ["sweep-T", "--frames", "f", "--graph", "g", "--T", "4"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_main_runs_the_cmd_function_bound_at_call_time(monkeypatch, name):
    # a wrapper set on the module, as a tracer installs one, is called
    monkeypatch.setattr(cli, name, lambda args: (args.command, 7))
    assert cli.main(COMMANDS[name]) == (COMMANDS[name][0], 7)


@pytest.mark.parametrize("name", COMMANDS)
def test_out_of_memory_exits_1(monkeypatch, capsys, tmp_path, name):
    # a size numpy cannot allocate, as `stability --T 1000000000` asks for;
    # raised here, since no test may ask for a real large allocation
    def too_large(args):
        raise MemoryError("Unable to allocate 238. GiB for an array with "
                          "shape (1000000000, 32) and data type float64")

    monkeypatch.setattr(cli, name, too_large)
    monkeypatch.chdir(tmp_path)
    assert cli.main(COMMANDS[name]) == 1
    assert capsys.readouterr() == ("", "out of memory: Unable to allocate 238. "
                                   "GiB for an array with shape (1000000000, "
                                   "32) and data type float64\n")
    assert list(tmp_path.iterdir()) == []
