"""Layer-wise tree growth: the one loop every layer-wise trainer runs.

"We use a layer-wise scheme to consecutively add active nodes — after
splitting the current layer, we set the tree nodes of the next layer to
active and continue to split the next layer" (Section 4.4).

:func:`grow_layerwise` is that scheme, written once.  It runs every
layer as the paper's core operation — BUILD_HISTOGRAM, FIND_SPLIT and
SPLIT_TREE stages on the trainer's
:class:`~repro.runtime.phases.PhaseRunner` — and owns the tree policy:
the active-node order, the max-depth cut-off, the min-gain leaf rule,
the shrunk leaf weights and the per-row leaf assignment.  A trainer
supplies only a :class:`LayerStep`, the data-layout-specific work of
each stage:

* :class:`LayerwiseGrower` — the single-process reference step over one
  :class:`BinnedShard` (sparsity-aware builds by default; the dense
  "traditional" path is ``build_strategy=DenseBuildStrategy()``).
* the distributed engine's sharded step, which builds per worker and
  aggregates and finds splits through the system's backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import TrainingError
from ..histogram.binned import BinnedShard
from ..histogram.histogram import GradientHistogram
from ..histogram.index import NodeInstanceIndex
from ..ps.master import WorkerPhase
from ..runtime.build import HistogramBuildStrategy, resolve_build_strategy
from ..runtime.hooks import CallbackList
from ..runtime.phases import PhaseRunner, PhaseStage
from ..sketch.candidates import CandidateSet
from .split import SplitDecision, find_best_split, leaf_weight
from .tree import RegressionTree


@dataclass
class GrownTree:
    """Result of growing one tree on one shard.

    Attributes:
        tree: The finished tree (leaf weights already shrunk by eta).
        leaf_of_rows: Leaf slot of every shard row — the training-set
            predictions come for free from the node-to-instance index.
        n_histograms: Histograms built (ablation metric).
    """

    tree: RegressionTree
    leaf_of_rows: np.ndarray
    n_histograms: int


def leaf_assignment(tree: RegressionTree, index: NodeInstanceIndex) -> np.ndarray:
    """Leaf slot of every row the index holds, read off its leaf ranges."""
    leaf_of_rows = np.zeros(len(index.positions), dtype=np.int64)
    for node in range(tree.max_nodes):
        if tree.is_leaf(node) and index.has_node(node):
            leaf_of_rows[index.rows_of(node)] = node
    return leaf_of_rows


class LayerStep(ABC):
    """One trainer's share of each tree layer, run by :func:`grow_layerwise`.

    A step sets up its per-tree state (gradients, :attr:`indexes`) before
    calling the loop; the loop then calls the three stage methods once
    per layer, inside the matching stage, and :meth:`leaf_totals` for
    every node it turns into a leaf.
    """

    #: One node-to-instance index per row partition the step holds; the
    #: loop reads each one's per-row leaf assignment when the tree ends.
    indexes: list[NodeInstanceIndex]

    @abstractmethod
    def build_histograms(self, active: list[int], stage: PhaseStage) -> None:
        """BUILD_HISTOGRAM: the histograms of the layer's active nodes."""

    @abstractmethod
    def find_splits(
        self, active: list[int], feature_valid: np.ndarray | None
    ) -> dict[int, SplitDecision | None]:
        """FIND_SPLIT: best split per active node (absent: no split)."""

    @abstractmethod
    def split_nodes(
        self, splits: list[tuple[int, SplitDecision]], stage: PhaseStage
    ) -> None:
        """SPLIT_TREE: move each split node's rows to its two children.

        Called once per layer, also when no node splits.
        """

    @abstractmethod
    def leaf_totals(self, node: int) -> tuple[float, float]:
        """``(sum grad, sum hess)`` of a node that becomes a leaf."""

    def end_layer(self) -> None:
        """Hook after each layer's SPLIT_TREE stage (default: nothing)."""


def grow_layerwise(
    step: LayerStep,
    config: TrainConfig,
    runner: PhaseRunner,
    tree_index: int,
    feature_valid: np.ndarray | None,
) -> tuple[RegressionTree, list[np.ndarray]]:
    """Grow one tree layer by layer through ``step``.

    Returns the tree and, per index in ``step.indexes``, every row's
    leaf slot.
    """
    tree = RegressionTree(config.max_depth)
    eta = config.learning_rate

    def set_leaf(node: int) -> None:
        g, h = step.leaf_totals(node)
        tree.set_leaf(
            node, eta * leaf_weight(g, h, config.reg_lambda), cover=float(h)
        )

    active = [0]
    # Layers 1 .. max_depth - 1 may split; the last layer is all leaves.
    for _depth in range(1, config.max_depth):
        if not active:
            break
        with runner.stage(WorkerPhase.BUILD_HISTOGRAM, tree_index) as stage:
            step.build_histograms(active, stage)
        with runner.stage(WorkerPhase.FIND_SPLIT, tree_index):
            decisions = step.find_splits(active, feature_valid)
        with runner.stage(WorkerPhase.SPLIT_TREE, tree_index) as stage:
            splits: list[tuple[int, SplitDecision]] = []
            next_active: list[int] = []
            for node in active:
                decision = decisions.get(node)
                if decision is None or decision.gain <= config.min_split_gain:
                    set_leaf(node)
                    continue
                next_active.extend(
                    tree.set_split(
                        node,
                        decision.feature,
                        decision.value,
                        gain=decision.gain,
                        cover=decision.total_hess,
                    )
                )
                splits.append((node, decision))
            step.split_nodes(splits, stage)
        step.end_layer()
        active = next_active
    for node in active:
        set_leaf(node)
    return tree, [leaf_assignment(tree, index) for index in step.indexes]


class LayerwiseGrower(LayerStep):
    """Grows regression trees over one :class:`BinnedShard`.

    Args:
        shard: Pre-bucketized training data.
        candidates: The split candidates the shard was binned with.
        config: Hyper-parameters.
        subtraction: Derive each node's sibling histogram as parent
            minus child instead of building both — an extension beyond
            the paper (LightGBM's trick): only the smaller child of every
            split is built, roughly halving per-layer build work at the
            cost of keeping the parent histograms of one layer in memory.
        build_strategy: Histogram build strategy; defaults to the
            Algorithm 2 kernel on ``config.parallel_backend``.  Pass
            ``DenseBuildStrategy()`` for the traditional dense scan (the
            Table 3 row 1 ablation).
    """

    def __init__(
        self,
        shard: BinnedShard,
        candidates: CandidateSet,
        config: TrainConfig,
        subtraction: bool = False,
        build_strategy: HistogramBuildStrategy | None = None,
    ) -> None:
        if shard.n_features != candidates.n_features:
            raise TrainingError(
                "shard and candidates disagree on the feature count"
            )
        self.shard = shard
        self.candidates = candidates
        self.config = config
        self.subtraction = subtraction
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
        *,
        runner: PhaseRunner | None = None,
        tree_index: int = -1,
    ) -> GrownTree:
        """Grow one tree from per-row gradients.

        Args:
            grad, hess: First/second-order gradients per shard row.
            feature_valid: Optional per-feature sampling mask.
            runner: The trainer's phase runner, which reports each
                layer's stages; a hook-less runner when omitted.
            tree_index: Boosting round the stages are reported under.

        Returns:
            The grown tree with per-row leaf assignments.
        """
        shard = self.shard
        if len(grad) != shard.n_rows or len(hess) != shard.n_rows:
            raise TrainingError(
                f"gradients must match shard rows ({shard.n_rows}), got "
                f"{len(grad)}/{len(hess)}"
            )
        self._grad = np.asarray(grad, dtype=np.float64)
        self._hess = np.asarray(hess, dtype=np.float64)
        self._index = NodeInstanceIndex(shard.n_rows, self.config.max_nodes)
        self.indexes = [self._index]
        self._hists: dict[int, GradientHistogram] = {}
        # Parent histograms kept for one layer when subtraction is on.
        self._parent_hists: dict[int, GradientHistogram] = {}
        self._n_built = 0
        tree, (leaf_of_rows,) = grow_layerwise(
            self,
            self.config,
            runner if runner is not None else PhaseRunner(CallbackList()),
            tree_index,
            feature_valid,
        )
        return GrownTree(
            tree=tree, leaf_of_rows=leaf_of_rows, n_histograms=self._n_built
        )

    # ------------------------------------------------------------------
    # LayerStep
    # ------------------------------------------------------------------

    def build_histograms(self, active: list[int], stage: PhaseStage) -> None:
        """Histograms for every sufficiently-populated node of a layer.

        With ``subtraction`` on and the parent's histogram cached, only
        the smaller sibling of each pair is built; the other is derived
        as ``parent - sibling``.  Nodes with fewer than two instances get
        no histogram, so they find no split and become leaves.
        """
        index = self._index
        hists: dict[int, GradientHistogram] = {}
        active_set = set(active)
        for node in active:
            if node in hists:
                continue
            rows = index.rows_of(node)
            sibling = node + 1 if node % 2 == 1 else node - 1
            phist = self._parent_hists.get((node - 1) // 2) if node > 0 else None
            if phist is not None and sibling in active_set:
                sib_rows = index.rows_of(sibling)
                small, small_rows, large = (
                    (node, rows, sibling)
                    if len(rows) <= len(sib_rows)
                    else (sibling, sib_rows, node)
                )
                hists[small] = self._build(small_rows)
                hists[large] = phist.subtract(hists[small])
            elif len(rows) >= 2:
                hists[node] = self._build(rows)
        self._hists = hists

    def find_splits(
        self, active: list[int], feature_valid: np.ndarray | None
    ) -> dict[int, SplitDecision | None]:
        config = self.config
        return {
            node: find_best_split(
                histogram,
                self.candidates,
                config.reg_lambda,
                config.reg_gamma,
                config.min_child_weight,
                feature_valid,
            )
            for node, histogram in self._hists.items()
        }

    def split_nodes(
        self, splits: list[tuple[int, SplitDecision]], stage: PhaseStage
    ) -> None:
        index = self._index
        for node, decision in splits:
            index.split(
                node,
                self.shard.split_mask(
                    index.rows_of(node), decision.feature, decision.bucket
                ),
            )
        # One child per pair can be derived from these next layer.
        self._parent_hists = (
            {node: self._hists[node] for node, _ in splits}
            if self.subtraction
            else {}
        )
        self._hists = {}

    def leaf_totals(self, node: int) -> tuple[float, float]:
        histogram = self._hists.get(node)
        if histogram is not None:
            return histogram.totals()
        rows = self._index.rows_of(node)
        return self._grad[rows].sum(), self._hess[rows].sum()

    def _build(self, rows: np.ndarray) -> GradientHistogram:
        histogram, _seconds = self.build_strategy.build(
            self.shard, rows, self._grad, self._hess
        )
        self._n_built += 1
        return histogram
