"""Synthetic dynamic point clouds and frame-sequence file IO.

Frame file format: header line `gfrm 1 N F T` (N >= 1, F >= 1, T >= 0),
then T blocks of N lines with F space-separated decimals each; blank
lines and lines starting with `#` are skipped. Values are written with
17 significant digits so a round trip is exact.

load_frames opens a file once and reads it in one of two ways, with the
same result. The fast path takes an ASCII file whose first line is a
valid header and that holds no `#` and no line break other than `\n` and
`\r\n`. It reads the file in blocks of `_FRAME_BLOCK` bytes, each cut
just after a `\n`, parses each block with one `np.loadtxt` and copies its
rows into the (N*T, F) array it returns, so that its memory beyond that
array is a few blocks, not the file. It takes the file only if the
blocks yield exactly N*T rows of F finite values. Anything else,
including every malformed file, a `nan` or `inf` and numbers
`np.loadtxt` does not read (`1_0`, non-ASCII digits), goes to the
per-line parser, which rereads the bytes of the same open file. It is
the only code that raises a ParseError naming the line: once the count
of data lines is right, it refuses the first bad line in file order, a
non-finite value included. A pipe is read into memory first, as it
cannot be read twice. save_frames writes one frame at a time with a
repeated `%.17g` format.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolation, ParseError, check_config,
                     decode_text, in_file)
from .graph import Graph, build_knn_graph


@dataclass(frozen=True)
class FrameSequence:
    frames: np.ndarray  # (T, N, F)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ContractViolation("frames must be a (T, N, F) array")
        if not np.all(np.isfinite(frames)):
            raise ContractViolation("frames contain non-finite values")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.frames.shape[1]

    @property
    def n_features(self) -> int:
        return self.frames.shape[2]


_SHAPES = ("ring", "grid", "cylinder")

# generate_synthetic builds a k=6 nearest-neighbour graph, which needs at
# least 7 nodes
MIN_SYNTH_NODES = 7

# (key, test, requirement) for the SyntheticConfig values; check_config
# also requires every float to be finite
_SYNTH_RANGES = (
    ("n_nodes", lambda v: v >= MIN_SYNTH_NODES, f">= {MIN_SYNTH_NODES}"),
    ("n_frames", lambda v: v >= 1, ">= 1"),
    ("base_shape", lambda v: v in _SHAPES, f"one of {', '.join(_SHAPES)}"),
    ("deformation_amplitude", lambda v: v >= 0, ">= 0"),
    ("noise_std", lambda v: v >= 0, ">= 0"),
    ("seed", lambda v: v >= 0, ">= 0"),
)


@dataclass
class SyntheticConfig:
    n_nodes: int = 128
    n_frames: int = 200
    base_shape: str = "ring"
    rotation_rate: float = 0.03       # radians per frame about the z-axis
    deformation_amplitude: float = 0.3
    deformation_frequency: float = 3.0  # cycles over the whole sequence
    noise_std: float = 0.005
    seed: int = 1

    def __post_init__(self):
        check_config(self, _SYNTH_RANGES)


def _base_points(cfg: SyntheticConfig) -> np.ndarray:
    n = cfg.n_nodes
    if cfg.base_shape == "ring":
        theta = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
    if cfg.base_shape == "grid":
        side = int(math.ceil(math.sqrt(n)))
        xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(side * side)], axis=1)
        return pts[:n] / max(side - 1, 1)
    # cylinder: rings stacked along z
    per_ring = max(4, int(round(math.sqrt(n * 4))))
    theta = 2.0 * np.pi * (np.arange(n) % per_ring) / per_ring
    z = (np.arange(n) // per_ring) * 0.3
    return np.stack([np.cos(theta), np.sin(theta), z], axis=1)


def _finite(value, *keys: str):
    """value, if all of it is finite; else ContractViolation naming the
    config keys whose size made it overflow."""
    if not np.isfinite(value).all():
        names = " and ".join(repr(key) for key in keys)
        raise ContractViolation(f"config {names} too large: the generated "
                                f"frames overflow", *keys)
    return value


# overflow is checked value by value, naming its key, instead of warned of
@np.errstate(over="ignore", invalid="ignore")
def generate_synthetic(cfg: SyntheticConfig):
    """Rigid rotation + smooth sinusoidal deformation + noise; returns
    (FrameSequence with F=3, kNN graph of the first frame with k=6).

    A finite config value so large that an angle or a frame overflows
    raises ContractViolation naming its key, or the two keys whose sum
    overflowed, in its message and its keys."""
    rng = np.random.default_rng(cfg.seed)
    base = _base_points(cfg)
    n, t_total = cfg.n_nodes, cfg.n_frames
    # fixed low-frequency spatial profile modulating the deformation
    angle_coord = np.arctan2(base[:, 1] - base[:, 1].mean(),
                             base[:, 0] - base[:, 0].mean())
    profile = np.sin(angle_coord) + 0.5 * np.cos(2.0 * angle_coord)
    # the angles grow with t, so they are largest at the last frame
    last = t_total - 1
    _finite(last * cfg.rotation_rate, "rotation_rate")
    _finite(2.0 * np.pi * cfg.deformation_frequency * last / t_total,
            "deformation_frequency")
    frames = np.zeros((t_total, n, 3))
    for t in range(t_total):
        ang = t * cfg.rotation_rate
        c, s = math.cos(ang), math.sin(ang)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pts = base @ rot.T
        phase = 2.0 * np.pi * cfg.deformation_frequency * t / t_total
        pts[:, 2] += _finite(cfg.deformation_amplitude * math.sin(phase)
                             * profile, "deformation_amplitude")
        if cfg.noise_std > 0:
            pts = pts + _finite(cfg.noise_std * rng.standard_normal((n, 3)),
                                "noise_std")
        frames[t] = pts
    # each term is finite, so only their sum can have overflowed
    seq = FrameSequence(_finite(frames, "deformation_amplitude", "noise_std"))
    graph = build_knn_graph(frames[0], k=6)
    return seq, graph


def save_frames(seq: FrameSequence, path):
    n, f = seq.n_nodes, seq.n_features
    block = (" ".join(["%.17g"] * f) + "\n") * n
    with open(path, "w") as fh:
        fh.write(f"gfrm 1 {n} {f} {seq.n_frames}\n")
        for frame in seq.frames:
            fh.write(block % tuple(frame.ravel().tolist()))


def load_frames(path) -> FrameSequence:
    with open(path, "rb") as fh, in_file(path):
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        frames = _load_frames_fast(src)
        if frames is None:
            src.seek(0)
            frames = _load_frames_slow(decode_text(src.read()).splitlines())
    return FrameSequence(frames)


def _frame_header(line: str, lineno: int):
    """(N, F, T) of a `gfrm 1 N F T` line; ParseError at lineno otherwise."""
    parts = line.split()
    if len(parts) != 5 or parts[0] != "gfrm" or parts[1] != "1":
        raise ParseError("expected header 'gfrm 1 N F T'", line=lineno)
    try:
        n, f, t_total = (int(v) for v in parts[2:])
    except ValueError:
        raise ParseError(f"expected integers N F T, got {line!r}",
                         line=lineno) from None
    if n < 1 or f < 1 or t_total < 0:
        raise ParseError(f"need N >= 1, F >= 1 and T >= 0, got {line!r}",
                         line=lineno)
    return n, f, t_total


# bytes that the per-line parser reads differently from np.loadtxt:
# comments, and the line breaks of str.splitlines other than \n and \r
_SLOW_ONLY = (b"#", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


# bytes read per np.loadtxt call on the fast path
_FRAME_BLOCK = 1 << 18


def _fast_bytes(chunk: bytes) -> bool:
    """Whether the fast path may parse these bytes: ASCII, no _SLOW_ONLY."""
    return chunk.isascii() and not any(c in chunk for c in _SLOW_ONLY)


def _load_frames_fast(fh):
    """(T, N, F) frames of a seekable binary frame file, read block by
    block, or None to leave the file to _load_frames_slow."""
    line = fh.readline()
    if not line.endswith(b"\n") or not _fast_bytes(line):
        return None
    head = line.decode().splitlines()  # a lone \r makes two lines
    if len(head) != 1:
        return None
    try:
        n, f, t_total = _frame_header(head[0], 1)
    except ValueError:
        return None
    # N*T rows of F values take at least 2*N*T*F - 1 bytes; a header that
    # claims more than the file holds allocates nothing
    start = fh.tell()
    size = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if 2 * n * t_total * f - 1 > size:
        return None
    out = np.empty((n * t_total, f))
    filled = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block of no rows
        while block := fh.read(_FRAME_BLOCK):
            block += fh.readline()  # on to the end of its last line
            if not _fast_bytes(block):
                return None
            try:
                rows = np.loadtxt(io.BytesIO(block), dtype=np.float64,
                                  comments=None, ndmin=2)
            except ValueError:
                return None
            if len(rows) == 0:
                continue
            if (rows.shape[1] != f or filled + len(rows) > len(out)
                    or not np.isfinite(rows).all()):
                return None
            out[filled:filled + len(rows)] = rows
            filled += len(rows)
    # as one np.loadtxt over the whole body, which reads no rows as (0, 1)
    if filled != len(out) or (filled == 0 and f != 1):
        return None
    return out.reshape(t_total, n, f)


def _load_frames_slow(raw_lines) -> np.ndarray:
    """(T, N, F) frames of a frame file's lines, parsed one by one;
    ParseError names the line."""
    lines = [(k + 1, ln) for k, ln in enumerate(raw_lines)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("empty frame file", line=1)
    lineno, head = lines[0]
    n, f, t_total = _frame_header(head, lineno)
    body = lines[1:]
    expected = n * t_total
    if len(body) != expected:
        raise ParseError(
            f"expected {expected} data lines for T={t_total} frames of "
            f"N={n} nodes, found {len(body)}",
            line=body[-1][0] if body else lineno)
    frames = np.zeros((t_total, n, f))
    for k, (ln_no, ln) in enumerate(body):
        vals = ln.split()
        if len(vals) != f:
            raise ParseError(f"expected {f} values, found {len(vals)}", line=ln_no)
        try:
            row = [float(v) for v in vals]
        except ValueError:
            raise ParseError(f"expected {f} numbers, got {ln!r}",
                             line=ln_no) from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"expected finite values, got {ln!r}", line=ln_no)
        frames[k // n, k % n] = row
    return frames

