"""Fixed reference kernels that measure how fast the machine runs now.

On a shared machine one and the same operation can take a third more or
less time from one minute to the next, as neighbours load the host. The
benchmark runs its workload's reference kernel before the first operation
and after each one, and reports each operation's time in units of the
mean of the two kernel runs that bracket it, so that part of the
machine's speed during a run cancels out. Each kernel does the kind of
work its workload does, at a similar working-set size, without touching
fgrnn, so a change to the package cannot move it. Each returns its own
wall time in seconds.
"""

from __future__ import annotations

import time

import numpy as np


def _scatter_products(n, nnz, f, repeats, rng):
    # the shape of a CSR product written with np.add.at
    rows = np.sort(rng.integers(0, n, nnz))
    cols = rng.integers(0, n, nnz)
    vals = rng.standard_normal(nnz)
    x = rng.standard_normal((n, f))
    for _ in range(repeats):
        out = np.zeros((n, f))
        np.add.at(out, rows, vals[:, None] * x[cols])


def small_arrays() -> float:
    """Per-call overhead on KB-sized arrays (train-cheb-n128)."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    _scatter_products(128, 896, 3, 2000, rng)
    return time.perf_counter() - t0


def text_and_arrays() -> float:
    """Parsing a multi-MB decimal text file, then MB-sized products
    (cli-fo-n1502)."""
    rng = np.random.default_rng(0)
    text = "\n".join(" ".join(f"{v:.17g}" for v in row)
                     for row in rng.standard_normal((60000, 3)))
    t0 = time.perf_counter()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    values = np.array([[float(v) for v in ln.split()] for ln in lines])
    _scatter_products(1502, 10500, 3, 60, rng)
    float(values.sum())
    return time.perf_counter() - t0


def mixed() -> float:
    """All three kinds of work (cli-fo-n1502, which parses text, runs
    MB-sized products and small per-step numpy calls)."""
    return small_arrays() + text_and_arrays() + dense()


def dense() -> float:
    """Dense 512 x 512 products and spectral norms (stability-n512)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)) / 512
    t0 = time.perf_counter()
    for _ in range(4):
        np.linalg.norm(a, 2)
        a = a @ a + np.eye(512)
    return time.perf_counter() - t0
