"""Graph-sequence prediction with a weighted-residual graph RNN."""

from .cells import ModelParams, unroll
from .data import FrameSequence, SyntheticConfig, generate_synthetic
from .gconv import ChebFilter, FeatureTransform, cheb_conv, first_order_conv
from .graph import Graph, LaplacianSet, build_knn_graph, build_laplacians
from .sparse import SparseMatrix, power_iteration, spmm
from .training import TrainConfig, bptt, count_params, train

__all__ = [
    "ModelParams", "unroll",
    "FrameSequence", "SyntheticConfig", "generate_synthetic",
    "ChebFilter", "FeatureTransform", "cheb_conv", "first_order_conv",
    "Graph", "LaplacianSet", "build_knn_graph", "build_laplacians",
    "SparseMatrix", "power_iteration", "spmm",
    "TrainConfig", "bptt", "count_params", "train",
]
