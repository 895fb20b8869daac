"""Seeded mutation fuzzing of every file the CLI reads.

Each case takes one of the graph, frame, checkpoint and --config fixtures,
applies one small mutation (truncate, flip a bit of a byte, delete or
duplicate a line, replace a token by a small one, insert a tab or a
carriage return) and runs eval and train --resume on it through cli.main
(train --resume only, for a --config file). Whatever the mutation, each
command must end in one of the documented exit codes, 0 to 3, and never
raise. Replacement tokens are small, so that no case asks for a large
allocation. The seeds are fixed, so a failure names a case that repeats.

A second test puts extreme floats (the largest double, subnormals, -0.0
and values whose square or double overflows) into seeded number tokens
of each fixture, the config given an init_scale line, and runs every
command that reads the file: a fresh train, train --resume, eval and
predict --horizon 1 and 3, and stability --graph for the graph. An
integer field refuses them in int(), so none asks for a large
allocation either.
"""

import random
import re
from pathlib import Path

import pytest

from fgrnn import cli

DATA = Path(__file__).parent / "data"

# an N=8, 16-frame first-order model after one epoch, and a config that
# resumes it for one more
FIXTURES = {
    "graph": (DATA / "compat_graph.txt").read_bytes(),
    "frames": (DATA / "compat_frames.txt").read_bytes(),
    "checkpoint": (DATA / "compat_epoch1.ckpt").read_bytes(),
    "config": b"family = first_order\np = 2\nt_w = 4\nepochs = 1\n",
}
MUTATIONS = ("truncate", "flip", "delete line", "duplicate line", "token",
             "tab", "cr")
TOKENS = (b"0", b"1", b"-1", b"2", b"7", b"1.5", b"1e3", b"nan", b"inf",
          b"x", b"")
ROUNDS = 6


def mutate(raw: bytes, how: str, rng: random.Random) -> bytes:
    """raw with one mutation of the kind `how`, drawn from rng."""
    if how == "truncate":
        return raw[:rng.randrange(len(raw))]
    if how == "flip":
        k = rng.randrange(len(raw))
        return raw[:k] + bytes([raw[k] ^ (1 << rng.randrange(8))]) + raw[k + 1:]
    if how in ("tab", "cr"):
        k = rng.randrange(len(raw) + 1)
        return raw[:k] + (b"\t" if how == "tab" else b"\r") + raw[k:]
    if how == "token":
        token = rng.choice(list(re.finditer(rb"\S+", raw)))
        return raw[:token.start()] + rng.choice(TOKENS) + raw[token.end():]
    lines = raw.splitlines(keepends=True)
    k = rng.randrange(len(lines))
    if how == "delete line":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    return b"".join(lines)


@pytest.mark.parametrize("how", MUTATIONS)
@pytest.mark.parametrize("target", FIXTURES)
def test_mutated_input_ends_in_an_exit_code(tmp_path, capsys, target, how):
    rng = random.Random(f"{target}/{how}")
    for round_ in range(ROUNDS):
        paths = {}
        for name, raw in FIXTURES.items():
            paths[name] = tmp_path / name
            paths[name].write_bytes(mutate(raw, how, rng) if name == target
                                    else raw)
        inputs = ["--frames", str(paths["frames"]),
                  "--graph", str(paths["graph"])]
        commands = [["train", "--config", str(paths["config"]), *inputs,
                     "--resume", str(paths["checkpoint"]),
                     "--out-checkpoint", str(tmp_path / "out.ckpt"),
                     "--out-history", str(tmp_path / "out.csv")]]
        if target != "config":
            commands.append(["eval", "--checkpoint", str(paths["checkpoint"]),
                             *inputs, "--out", str(tmp_path / "eval.csv")])
        for argv in commands:
            case = (f"{target}, {how}, round {round_}, {argv[0]}: "
                    f"{paths[target].read_bytes()!r}")
            try:
                rc = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"{case}: raised {type(exc).__name__}: {exc}")
            assert rc in (0, 1, 2, 3), case
            capsys.readouterr()


EXTREMES = (b"1e308", b"-1e308", b"1.7976931348623157e308", b"5e-324",
            b"-5e-324", b"1e-300", b"-0.0", b"1e154", b"-1e154", b"1e200")
EXTREME_ROUNDS = 6


def _is_number(token: bytes) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", FIXTURES)
def test_extreme_values_end_in_an_exit_code(tmp_path, capsys, target):
    rng = random.Random(f"{target}/extreme")
    inputs = {**FIXTURES, "config": FIXTURES["config"] + b"init_scale = 0.1\n"}
    raw = inputs[target]
    numbers = [m for m in re.finditer(rb"\S+", raw) if _is_number(m.group())]
    paths = {name: tmp_path / name for name in inputs}
    for name, text in inputs.items():
        paths[name].write_bytes(text)
    files = ["--frames", str(paths["frames"]), "--graph", str(paths["graph"])]
    out = ["--out", str(tmp_path / "out.txt")]
    train = ["train", "--config", str(paths["config"]), *files,
             "--out-checkpoint", str(tmp_path / "out.ckpt"),
             "--out-history", str(tmp_path / "out.csv")]
    read = [*files, "--checkpoint", str(paths["checkpoint"]), *out]
    resume = ["--resume", str(paths["checkpoint"])]
    commands = {"train": train, "train --resume": [*train, *resume],
                "eval": ["eval", *read],
                "predict --horizon 1": ["predict", *read, "--horizon", "1"],
                "predict --horizon 3": ["predict", *read, "--horizon", "3"]}
    if target == "graph":
        commands["stability"] = ["stability", "--graph", str(paths["graph"]),
                                  *out]
    for value in EXTREMES:
        # distinct tokens, so a fixture of few numbers has each one replaced
        for token in rng.sample(numbers, min(EXTREME_ROUNDS, len(numbers))):
            paths[target].write_bytes(raw[:token.start()] + value
                                      + raw[token.end():])
            for command, argv in commands.items():
                case = (f"{target}, {token.group()!r} at byte "
                        f"{token.start()} -> {value!r}, {command}")
                try:
                    rc = cli.main(argv)
                except Exception as exc:
                    pytest.fail(f"{case}: raised {type(exc).__name__}: {exc}")
                assert rc in (0, 1, 2, 3), case
                capsys.readouterr()
