import os
import threading
import tracemalloc

import numpy as np
import pytest

from fgrnn import data
from fgrnn.data import (FrameSequence, SyntheticConfig, generate_synthetic,
                        load_frames, save_frames)
from fgrnn.errors import ContractViolation, ParseError

from .reference import traced_peak, whole_file_frames


class TestGenerateSynthetic:
    def test_static_config(self):
        cfg = SyntheticConfig(n_nodes=16, n_frames=10, rotation_rate=0.0,
                              deformation_amplitude=0.0, noise_std=0.0)
        seq, _ = generate_synthetic(cfg)
        for t in range(10):
            assert np.array_equal(seq.frames[t], seq.frames[0])

    def test_rigid_rotation_preserves_distances(self):
        cfg = SyntheticConfig(n_nodes=16, n_frames=6, rotation_rate=0.3,
                              deformation_amplitude=0.0, noise_std=0.0)
        seq, _ = generate_synthetic(cfg)

        def pairwise(f):
            return np.linalg.norm(f[:, None, :] - f[None, :, :], axis=2)

        for t in range(6):
            assert np.allclose(pairwise(seq.frames[t]), pairwise(seq.frames[0]),
                               atol=1e-12)

    def test_overflow_of_a_sum_names_both_keys(self):
        # each term is finite on its own (|profile| <= 1.5); their sum is not
        cfg = SyntheticConfig(n_nodes=12, n_frames=8,
                              deformation_amplitude=1.1e308, noise_std=2e307)
        with pytest.raises(ContractViolation,
                           match="'deformation_amplitude' and 'noise_std'"):
            generate_synthetic(cfg)

    def test_deterministic(self):
        cfg = SyntheticConfig(n_nodes=32, n_frames=20, seed=7)
        seq1, g1 = generate_synthetic(cfg)
        seq2, g2 = generate_synthetic(cfg)
        assert np.array_equal(seq1.frames, seq2.frames)
        assert g1.edges == g2.edges

    def test_copy_baseline_positive(self):
        seq, _ = generate_synthetic(SyntheticConfig(n_nodes=64, n_frames=50))
        baseline = np.mean([np.sum((seq.frames[t + 1] - seq.frames[t]) ** 2)
                            for t in range(seq.n_frames - 1)])
        assert baseline > 0.0

    @pytest.mark.parametrize("shape", ["ring", "grid", "cylinder"])
    def test_shapes(self, shape):
        cfg = SyntheticConfig(n_nodes=30, n_frames=3, base_shape=shape)
        seq, g = generate_synthetic(cfg)
        assert seq.n_nodes == 30 and seq.n_features == 3
        assert g.n_nodes == 30

    def test_invalid_shape(self):
        with pytest.raises(ContractViolation):
            SyntheticConfig(base_shape="sphere")

    @pytest.mark.parametrize("key,value", [
        ("n_frames", 0), ("n_nodes", 6), ("seed", -1),
        ("noise_std", -0.1), ("rotation_rate", float("nan"))])
    def test_out_of_range(self, key, value):
        with pytest.raises(ContractViolation, match=f"'{key}'"):
            SyntheticConfig(**{key: value})

    def test_smallest_graph(self):
        seq, g = generate_synthetic(SyntheticConfig(n_nodes=7, n_frames=1))
        assert seq.n_frames == 1 and g.n_nodes == 7


class TestFrameIO:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** float(rng.integers(-8, 8))
        seq = FrameSequence(rng.standard_normal((4, 6, 3)) * scale)
        path = tmp_path / "frames.gfrm"
        save_frames(seq, path)
        loaded = load_frames(path)
        assert np.array_equal(loaded.frames, seq.frames)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "f.gfrm"
        path.write_text("# a comment\ngfrm 1 2 1 1\n0.5\n# trailing\n1.5\n")
        seq = load_frames(path)
        assert np.array_equal(seq.frames, [[[0.5], [1.5]]])

    def test_wrong_frame_count(self, tmp_path):
        path = tmp_path / "f.gfrm"
        path.write_text("gfrm 1 2 1 3\n0\n1\n2\n3\n")
        with pytest.raises(ParseError, match="expected 6 data lines"):
            load_frames(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.gfrm"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1"):
            load_frames(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.gfrm"
        path.write_text("frames 2 1 1\n0\n")
        with pytest.raises(ParseError):
            load_frames(path)

    @pytest.mark.parametrize("text,line,fragment", [
        ("gfrm 1 x 3 1\n0 0 0\n", 1, "expected integers N F T"),
        ("gfrm 1 2 1.5 1\n0\n0\n", 1, "expected integers N F T"),
        ("# c\n\ngfrm 1 2 1 one\n0\n0\n", 3, "expected integers N F T"),
        ("gfrm 1 0 3 1\n", 1, "need N >= 1"),
        ("gfrm 1 -2 3 1\n", 1, "need N >= 1"),
        ("gfrm 1 2 0 1\n0\n0\n", 1, "F >= 1"),
        ("gfrm 1 2 1 -1\n", 1, "T >= 0"),
    ], ids=["N x", "F 1.5", "T one", "N 0", "N -2", "F 0", "T -1"])
    def test_bad_header_field_names_its_line(self, tmp_path, text, line,
                                             fragment):
        path = tmp_path / "f.gfrm"
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment) as err:
            load_frames(path)
        assert err.value.line == line
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: line {line}: ")

    def test_zero_frames(self, tmp_path):
        path = tmp_path / "f.gfrm"
        save_frames(FrameSequence(np.zeros((0, 4, 2))), path)
        assert path.read_text() == "gfrm 1 4 2 0\n"
        assert load_frames(path).frames.shape == (0, 4, 2)

    def test_non_numeric_value_names_its_line(self, tmp_path):
        path = tmp_path / "f.gfrm"
        path.write_text("gfrm 1 2 2 1\n1 2\n3 four\n")
        with pytest.raises(ParseError, match="expected 2 numbers") as err:
            load_frames(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text,line,got", [
        ("gfrm 1 2 2 2\n1 2\nnan 4\n5 6\n7\n", 3, "nan 4"),
        ("gfrm 1 2 2 1\n1 2\n3 1e999\n", 3, "3 1e999"),  # float() reads inf
    ], ids=["nan before a short row", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, text, line, got):
        # refused at its own line, before any later bad line is read
        path = tmp_path / "f.gfrm"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_frames(path)
        assert (err.value.line, err.value.path) == (line, path)
        assert str(err.value) == (f"{path}: line {line}: expected finite "
                                  f"values, got {got!r}")

    def test_random_bits_round_trip(self, tmp_path):
        # every bit pattern of a finite double, subnormals and -0.0 included
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, size=(50, 40, 3), dtype=np.uint64)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = -0.0
        seq = FrameSequence(values)
        path = tmp_path / "bits.gfrm"
        save_frames(seq, path)
        # byte for byte what a per-value writer produces
        expected = "gfrm 1 40 3 50\n" + "".join(
            " ".join(f"{v:.17g}" for v in row) + "\n"
            for frame in values for row in frame)
        assert path.read_text() == expected
        loaded = load_frames(path).frames
        assert np.array_equal(loaded, values)
        assert np.array_equal(np.signbit(loaded), np.signbit(values))

    def test_saved_files_take_the_fast_path(self, tmp_path, monkeypatch):
        def no_slow(lines):
            raise AssertionError("a saved file went to the per-line parser")

        monkeypatch.setattr(data, "_load_frames_slow", no_slow)
        rng = np.random.default_rng(3)
        for shape in ((7, 5, 3), (2, 1, 1), (1, 6, 4)):
            seq = FrameSequence(rng.standard_normal(shape))
            path = tmp_path / "f.gfrm"
            save_frames(seq, path)
            assert np.array_equal(load_frames(path).frames, seq.frames)


# (name, file bytes, whether the fast path reads the file)
PARSER_CASES = [
    ("plain", b"gfrm 1 2 2 2\n1 2\n3 4\n5 6\n7 8\n", True),
    ("crlf", b"gfrm 1 2 2 1\r\n1.5 -2\r\n3e-7 4\r\n", True),
    ("blank lines", b"gfrm 1 2 1 1\n\n0.5\n  \t \n1.5\n\n", True),
    ("no final newline", b"gfrm 1 2 1 1\n0.5\n1.5", True),
    ("tabs and padding", b"gfrm 1 2 2 1\n\t1 \t 2  \n  3\t4\n", True),
    ("nan", b"gfrm 1 2 1 1\nnan\n1.5\n", False),
    ("F=1", b"gfrm 1 3 1 2\n1\n2\n3\n4\n5\n6\n", True),
    ("comments", b"gfrm 1 2 1 1\n# c\n0.5\n  # d\n1.5\n", False),
    ("header after comments", b"# c\n\ngfrm 1 2 1 1\n1\n2\n", False),
    ("crlf comments", b"# c\r\ngfrm 1 2 1 1\r\n1\r\n# d\r\n2\r\n", False),
    ("inline #", b"gfrm 1 2 1 1\n0.5 # c\n1.5\n", False),
    ("short last line", b"gfrm 1 2 2 1\n1 2\n3", False),
    ("F+1 on one line", b"gfrm 1 2 2 1\n1 2 3\n4 5\n", False),
    ("F+1 on every line", b"gfrm 1 2 2 1\n1 2 3\n4 5 6\n", False),
    ("F-1 on every line", b"gfrm 1 2 2 1\n1\n2\n", False),
    ("one line too many", b"gfrm 1 2 1 1\n1\n2\n3\n", False),
    ("one line too few", b"gfrm 1 2 1 2\n1\n2\n3\n", False),
    ("non-numeric", b"gfrm 1 2 1 1\n1\nabc\n", False),
    ("underscore digits", b"gfrm 1 2 1 1\n1_0\n2\n", False),
    ("non-ASCII digit", "gfrm 1 2 1 1\n\u0661\n2\n".encode(), False),
    ("lone CR in the body", b"gfrm 1 2 1 1\n1\r2\n", False),
    ("lone CR in the header", b"gfrm 1 2\r1 1\n1\n2\n", False),
    ("form feed", b"gfrm 1 2 2 1\n1\x0c2\n3 4\n", False),
    ("zero frames", b"gfrm 1 2 3 0\n", False),
    ("zero frames, F=1", b"gfrm 1 2 1 0\n", True),
    ("more rows than the file holds", b"gfrm 1 1000000000 9 9\n1\n", False),
    ("header only", b"gfrm 1 2 1 1", False),
]


@pytest.mark.parametrize("name,raw,fast", PARSER_CASES,
                         ids=[c[0] for c in PARSER_CASES])
def test_fast_path_matches_slow_path(tmp_path, name, raw, fast):
    path = tmp_path / "f.gfrm"
    path.write_bytes(raw)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "rb") as fh:
        got = data._load_frames_fast(fh)
    assert (got is not None) == fast
    try:
        want = data._load_frames_slow(lines)
    except ParseError as slow_err:
        # only the slow path may decide a file it rejects, at the same line
        assert got is None
        with pytest.raises(ParseError) as err:
            load_frames(path)
        assert (err.value.line, err.value.path) == (slow_err.line, path)
        return
    if got is not None:
        assert np.array_equal(got, want, equal_nan=True)
    if np.all(np.isfinite(want)):
        assert np.array_equal(load_frames(path).frames, want)


def _from_a_pipe(tmp_path, raw, read):
    """read(fifo) of a fifo fed raw by another thread."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(raw)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_frames_from_a_pipe(tmp_path):
    seq = FrameSequence(np.random.default_rng(4).standard_normal((3, 5, 2)))
    path = tmp_path / "f.gfrm"
    save_frames(seq, path)
    got = _from_a_pipe(tmp_path, path.read_bytes(), load_frames)
    assert np.array_equal(got.frames, seq.frames)


@pytest.mark.parametrize("raw,line", [
    (b"# c\ngfrm 1 2 1 1\n0.5\n1.5\n", None),
    (b"gfrm 1 2 1 1\n0.5\ninf\n", 3),
    (b"# c\ngfrm 1 2 1 1\n0.5\n", 3),
], ids=["comment", "inf", "short"])
def test_a_pipe_the_fast_path_refuses_is_read_once(tmp_path, raw, line):
    # the per-line parser reads the bytes the fast path read, not the
    # drained pipe, so a pipe gives what the same file on disk gives
    path = tmp_path / "f.gfrm"
    path.write_bytes(raw)

    def read(source):
        try:
            return load_frames(source).frames
        except ParseError as exc:
            return exc.line

    got = _from_a_pipe(tmp_path, raw, read)
    if line is None:
        assert np.array_equal(got, [[[0.5], [1.5]]])
        assert got.tobytes() == load_frames(path).frames.tobytes()
    else:
        assert got == read(path) == line


# the last line of a saved file, replaced by one the fast path refuses
LATE_FAULTS = {"late bad token": b"1 2 x\n", "late #": b"1 2 #\n",
               "late non-ASCII digit": "1 2 \u0663\n".encode()}
BLOCK_CASES = [c[0] for c in PARSER_CASES] + ["saved", *LATE_FAULTS]


def _block_case(name, tmp_path):
    """The bytes of a PARSER_CASES row, of a saved file, or of a saved file
    with a fault in its last line."""
    cases = {c[0]: c[1] for c in PARSER_CASES}
    if name in cases:
        return cases[name]
    path = tmp_path / "saved.gfrm"
    rng = np.random.default_rng(5)
    save_frames(FrameSequence(rng.standard_normal((5, 4, 3))), path)
    raw = path.read_bytes()
    if name == "saved":
        return raw
    return raw[:raw.rindex(b"\n", 0, -1) + 1] + LATE_FAULTS[name]


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 13, 64])
@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_reader_matches_whole_file_reader(tmp_path, monkeypatch, name,
                                                block):
    raw = _block_case(name, tmp_path)
    path = tmp_path / "f.gfrm"
    path.write_bytes(raw)
    monkeypatch.setattr(data, "_FRAME_BLOCK", block)
    with open(path, "rb") as fh:
        got = data._load_frames_fast(fh)
    want = whole_file_frames(raw)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        slow = data._load_frames_slow(lines)
    except ParseError as slow_err:
        with pytest.raises(ParseError) as err:
            load_frames(path)
        assert (err.value.line, err.value.path) == (slow_err.line, path)
        return
    if np.all(np.isfinite(slow)):
        assert np.array_equal(load_frames(path).frames, slow)


def test_load_frames_memory_is_a_few_blocks_over_the_result(tmp_path,
                                                            monkeypatch):
    block = 1 << 16
    monkeypatch.setattr(data, "_FRAME_BLOCK", block)
    seq = FrameSequence(np.random.default_rng(7).standard_normal((400, 100, 3)))
    path = tmp_path / "f.gfrm"
    save_frames(seq, path)
    size = path.stat().st_size
    assert size > 30 * block
    load_frames(path)  # allocations of a first call are not the reader's
    loaded, peak = traced_peak(lambda: load_frames(path))
    assert np.array_equal(loaded.frames, seq.frames)
    assert peak <= seq.frames.nbytes + 4 * block
    assert peak < size / 2


def test_traced_peak_refuses_to_nest():
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="already tracing"):
            traced_peak(lambda: None)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call,fragment", [
    (lambda: FrameSequence(np.zeros((4, 3))), r"\(T, N, F\)"),
    (lambda: FrameSequence(np.full((2, 3, 1), np.nan)), "non-finite"),
], ids=["2-D frames", "nan frames"])
def test_guards(call, fragment):
    with pytest.raises(ContractViolation, match=fragment):
        call()
