"""Best-first (leaf-wise) tree growth.

An extension contrasting with the paper's layer-wise scheme (Section
4.4): instead of splitting every active node of a layer, repeatedly
split the single leaf with the highest objective gain until a leaf
budget is exhausted — LightGBM's growth strategy.  Leaf-wise trees
concentrate their leaf budget where the loss reduction is largest, at
the cost of less regular (harder to parallelize layer-by-layer) shapes,
which is exactly why the paper's distributed design sticks to layer-wise
growth.

Reuses every substrate: binned shards, the fit's histogram build
strategy, the node-to-instance index and its leaf assignment, and the
Algorithm 1 gain scan.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..config import TrainConfig
from ..errors import TrainingError
from ..histogram.binned import BinnedShard
from ..histogram.index import NodeInstanceIndex
from ..runtime.build import HistogramBuildStrategy, resolve_build_strategy
from ..sketch.candidates import CandidateSet
from .grower import GrownTree, leaf_assignment
from .split import SplitDecision, find_best_split, leaf_weight
from .tree import RegressionTree


class BestFirstGrower:
    """Grows one tree by splitting the max-gain leaf first.

    Args:
        shard: Pre-bucketized training data.
        candidates: The split candidates the shard was binned with.
        config: Hyper-parameters; ``config.max_depth`` caps node depth
            (the heap layout bounds it anyway).
        max_leaves: Leaf budget L; growth stops after ``L - 1`` splits.
            Defaults to ``2 ** (max_depth - 1)`` — the layer-wise tree's
            leaf count, making equal-budget comparisons direct.
        build_strategy: Histogram build strategy; defaults to the
            Algorithm 2 kernel on ``config.parallel_backend``.
    """

    def __init__(
        self,
        shard: BinnedShard,
        candidates: CandidateSet,
        config: TrainConfig,
        max_leaves: int | None = None,
        build_strategy: HistogramBuildStrategy | None = None,
    ) -> None:
        if shard.n_features != candidates.n_features:
            raise TrainingError(
                "shard and candidates disagree on the feature count"
            )
        self.shard = shard
        self.candidates = candidates
        self.config = config
        self.max_leaves = (
            max_leaves if max_leaves is not None else 1 << (config.max_depth - 1)
        )
        if self.max_leaves < 1:
            raise TrainingError(
                f"max_leaves must be >= 1, got {self.max_leaves}"
            )
        self.build_strategy = (
            build_strategy
            if build_strategy is not None
            else resolve_build_strategy(config, sparse=True)
        )

    def grow(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        feature_valid: np.ndarray | None = None,
    ) -> GrownTree:
        """Grow one tree from per-row gradients."""
        config = self.config
        shard = self.shard
        grad = np.asarray(grad, dtype=np.float64)
        hess = np.asarray(hess, dtype=np.float64)
        if len(grad) != shard.n_rows or len(hess) != shard.n_rows:
            raise TrainingError(
                f"gradients must match shard rows ({shard.n_rows}), got "
                f"{len(grad)}/{len(hess)}"
            )
        tree = RegressionTree(config.max_depth)
        index = NodeInstanceIndex(shard.n_rows, config.max_nodes)
        eta = config.learning_rate
        n_histograms = 0
        # Max-heap of splittable leaves, keyed by gain.  The tiebreak
        # counter keeps heap ordering deterministic.
        counter = itertools.count()
        heap: list[tuple[float, int, int, SplitDecision]] = []

        def evaluate(node: int) -> None:
            """Score a leaf's best split and enqueue it if positive."""
            nonlocal n_histograms
            rows = index.rows_of(node)
            if len(rows) < 2 or 2 * node + 2 >= tree.max_nodes:
                return
            histogram, _seconds = self.build_strategy.build(
                shard, rows, grad, hess
            )
            n_histograms += 1
            decision = find_best_split(
                histogram,
                self.candidates,
                config.reg_lambda,
                config.reg_gamma,
                config.min_child_weight,
                feature_valid,
            )
            if decision is not None and decision.gain > config.min_split_gain:
                heapq.heappush(heap, (-decision.gain, next(counter), node, decision))

        evaluate(0)
        # Leaves that currently exist (start: just the root).
        leaves: set[int] = {0}
        node_totals: dict[int, tuple[float, float]] = {
            0: (float(grad.sum()), float(hess.sum()))
        }

        while heap and len(leaves) < self.max_leaves:
            _neg_gain, _tick, node, decision = heapq.heappop(heap)
            rows = index.rows_of(node)
            left, right = tree.set_split(
                node,
                decision.feature,
                decision.value,
                gain=decision.gain,
                cover=decision.total_hess,
            )
            goes_left = shard.split_mask(rows, decision.feature, decision.bucket)
            index.split(node, goes_left)
            leaves.discard(node)
            leaves.update((left, right))
            node_totals[left] = (decision.left_grad, decision.left_hess)
            node_totals[right] = (decision.right_grad, decision.right_hess)
            evaluate(left)
            evaluate(right)

        for node in leaves:
            g, h = node_totals[node]
            tree.set_leaf(
                node, eta * leaf_weight(g, h, config.reg_lambda), cover=h
            )
        return GrownTree(
            tree=tree,
            leaf_of_rows=leaf_assignment(tree, index),
            n_histograms=n_histograms,
        )
