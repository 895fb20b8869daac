"""Seeded mutation fuzzing of every file the CLI reads.

Each case takes one of the graph, frame, checkpoint and --config fixtures,
applies one small mutation (truncate, flip a bit of a byte, delete or
duplicate a line, replace a token by a small one, insert a tab or a
carriage return) and runs eval and train --resume on it through cli.main
(train --resume only, for a --config file). Whatever the mutation, each
command must end in one of the documented exit codes, 0 to 3, and never
raise. Replacement tokens are small, so that no case asks for a large
allocation. The seeds are fixed, so a failure names a case that repeats.
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
