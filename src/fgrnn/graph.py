"""Graph construction and normalized Laplacian operators.

A graph is an undirected positively-weighted edge list, checked in one
walk that also sums each node's weighted degree (load_graph feeds it one
parsed line at a time, so a file is refused at its first bad line); the
Laplacian set bundles the three operators the convolution layers need:

    L   = I - D^{-1/2} A D^{-1/2}          (spectrum in [0, 2])
    Ls  = 2 L / lambda_max - I             (spectrum in [-1, 1])
    L1  = I + D^{-1/2} A D^{-1/2} = 2I - L (single-hop operator)

Only Chebyshev filters of order K >= 2 read Ls and its lambda_max, one
power iteration, so a set can leave both to their first read.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation, ParseError, in_file, read_text
from .sparse import SparseMatrix, power_iteration


def _checked(edges, n_nodes, degree):
    """Each edge once checked against those before it, its weight summed into
    degree ({node: weighted degree}, Python floats: an overflow is inf, no warning)."""
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < j < n_nodes):
            raise ContractViolation(f"bad edge ({i}, {j}): need 0 <= i < j < {n_nodes}")
        if not 0 < w < math.inf:
            raise ContractViolation(
                f"edge ({i}, {j}) weight must be positive and finite, got {w}")
        if (i, j) in seen:
            raise ContractViolation(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        for node in (i, j):
            degree[node] = degree.get(node, 0.0) + float(w)
            if degree[node] == math.inf:
                raise ContractViolation(f"edge ({i}, {j}) makes the weighted "
                                        f"degree of node {node} overflow")
        yield i, j, w


@dataclass(frozen=True)
class Graph:
    n_nodes: int
    edges: tuple  # of (i, j, w) with i < j, w > 0
    # {node: weighted degree} of the nodes with an edge, summed by _checked
    _degree: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_degree", {})
        object.__setattr__(self, "edges", tuple(
            _checked(self.edges, self.n_nodes, self._degree)))

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n_nodes)
        d[list(self._degree)] = list(self._degree.values())
        return d

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_nodes}\n".encode())
        for i, j, w in self.edges:
            h.update(f"{i} {j} {w:.17g}\n".encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class LaplacianSet:
    """L and L1, and on first read lambda_max and Ls, from one power
    iteration on L per set: only Chebyshev filters of K >= 2 read Ls, so
    a first-order or K = 1 run never iterates."""

    laplacian: SparseMatrix    # L
    first_order: SparseMatrix  # 2I - L

    @property
    def n_nodes(self) -> int:
        return self.laplacian.n_rows

    @cached_property
    def _power_iteration(self):
        return power_iteration(self.laplacian)

    @property
    def lambda_max(self) -> float:
        return float(self._power_iteration[0])

    @property
    def lambda_max_converged(self) -> bool:
        return self._power_iteration[1]

    @cached_property
    def scaled(self) -> SparseMatrix:
        """2L/lambda_max - I, on L's sparsity pattern (diagonal included)."""
        lap, lam = self.laplacian, self._power_iteration[0]
        diag_mask = (lap._row_ids == lap.col_indices).astype(np.float64)
        return SparseMatrix(lap.n_rows, lap.n_cols, lap.row_offsets,
                            lap.col_indices, 2.0 * lap.values / lam - diag_mask)


# rows of the distance matrix held at once by build_knn_graph; a block's
# differences take rows * N * 3 floats, about 1.2 MB at N=1502
_KNN_ROWS = 32


def build_knn_graph(points: np.ndarray, k: int) -> Graph:
    """k-nearest-neighbor graph, symmetrized by union, binary weights.

    Distance ties are broken by lower node index so construction is
    deterministic. Each node ends up with at least k edges, and up to
    n-1 for a node that many others pick: at k=1, the centre of a ring
    of five points is the nearest neighbour of each, so it has 5 edges.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not np.all(np.isfinite(points)):
        raise ContractViolation("build_knn_graph: non-finite coordinates")
    if k < 1 or n <= k:
        raise ContractViolation(f"build_knn_graph: need n > k >= 1, got n={n} k={k}")
    keys = []  # i * n + j for each pair i < j
    for lo in range(0, n, _KNN_ROWS):
        hi = min(lo + _KNN_ROWS, n)
        rows = np.arange(lo, hi)[:, None]
        diff = points[lo:hi, None, :] - points[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2))
        # a stable sort breaks distance ties by lower index; a row's own
        # index is either among its first k+1 or past every kept neighbour
        head = np.argsort(dist, axis=1, kind="stable")[:, :k + 1]
        keep = head != rows
        keep[keep.all(axis=1), k] = False
        nbrs = head[keep].reshape(hi - lo, k)
        keys.append((np.minimum(rows, nbrs) * n + np.maximum(rows, nbrs)).ravel())
    # sorted and deduplicated by hand: np.unique's first call imports numpy.ma
    keys = np.sort(np.concatenate(keys))
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return Graph(n, zip((keys // n).tolist(), (keys % n).tolist(),
                        [1.0] * len(keys)))


def build_laplacians(g: Graph, scaled: bool = True) -> LaplacianSet:
    """Normalized Laplacian plus its scaled and first-order variants.

    scaled=False leaves the scaled Laplacian and lambda_max, one power
    iteration, to their first read, which only Chebyshev filters of order
    K >= 2 make: train, eval, predict and the stability sweep build so.

    Isolated nodes use the convention D^{-1/2}[i,i] = 0, so their
    Laplacian row is the identity row. Every diagonal entry of L is then
    1, so lambda_max >= 1, an edgeless graph's included.
    """
    n = g.n_nodes
    d = g.degrees()
    inv_sqrt = np.zeros(n)
    pos = d > 0
    inv_sqrt[pos] = 1.0 / np.sqrt(d[pos])
    rows = list(range(n))
    cols = list(range(n))
    vals = [1.0] * n
    for i, j, w in g.edges:
        a = -w * inv_sqrt[i] * inv_sqrt[j]
        rows += [i, j]
        cols += [j, i]
        vals += [a, a]
    lap = SparseMatrix.from_coo(n, n, rows, cols, vals)
    # L1 shares L's sparsity pattern (diagonal included)
    diag_mask = (lap._row_ids == lap.col_indices).astype(np.float64)
    first = SparseMatrix(n, n, lap.row_offsets, lap.col_indices,
                         2.0 * diag_mask - lap.values)
    laps = LaplacianSet(lap, first)
    if scaled:
        laps.scaled  # read once, so made now
    return laps


def save_graph(g: Graph, path):
    with open(path, "w") as fh:
        fh.write(f"{g.n_nodes} {len(g.edges)}\n")
        for i, j, w in g.edges:
            fh.write(f"{i} {j} {w:.17g}\n")


def load_graph(path) -> Graph:
    """The graph of an edge-list file: an 'N M' header (N >= 1), M 'i j w'
    lines, then only blank lines. Graph checks each edge line as it is parsed,
    so a ParseError names the first bad line; N allocates nothing."""
    lines = read_text(path).splitlines()
    with in_file(path):
        return _parse_graph(lines)


def _parse_graph(lines):
    """The Graph of an edge-list file's lines; ParseError names the line."""
    if not lines:
        raise ParseError("empty graph file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected 'N M' header", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"expected integers 'N M', got {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise ParseError(f"expected non-negative 'N M', got {lines[0]!r}", line=1)
    if n < 1:
        raise ParseError(f"need N >= 1 nodes, got {lines[0]!r}", line=1)
    if len(lines) < m + 1:
        raise ParseError(f"expected {m} edges, found {len(lines) - 1}", line=len(lines))
    taken = []  # the number of each edge line Graph has taken
    try:
        return Graph(n, _parse_edges(lines, m, taken))
    except ContractViolation as exc:  # at the edge of the last line taken
        raise ParseError(str(exc), line=taken[-1]) from None


def _parse_edges(lines, m, taken):
    """Each edge line's (i, j, w), parsed when taken, its number put in taken."""
    for k in range(1, m + 1):
        taken.append(k + 1)
        parts = lines[k].split()
        if len(parts) != 3:
            raise ParseError("expected 'i j w'", line=k + 1)
        try:  # Graph's refusal of the edge is raised in Graph, never here
            yield int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"expected integers i j and a number w, got "
                             f"{lines[k]!r}", line=k + 1) from None
    for k in range(m + 1, len(lines)):
        if lines[k].strip():
            raise ParseError(f"expected {m} edges, found more: "
                             f"{lines[k]!r}", line=k + 1)
