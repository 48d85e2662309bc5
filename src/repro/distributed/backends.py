"""Aggregation backends: how each system merges histograms and finds splits.

A backend receives, node by node, the per-worker local gradient
histograms in feature-major flat form, performs its system's aggregation
(real data movement through :mod:`repro.cluster.collectives` or the
parameter server), and later answers split queries for a whole layer —
charging the simulated clock for every byte moved and every second of
(measured) split-scan compute, attributed to the worker/server that would
have performed it.

With compression off, every backend produces bit-equal merged histograms
(up to float summation order), so all five systems grow identical trees;
the backends differ in *time*, which is the paper's claim.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod

import numpy as np

from ..cluster.collectives import (
    allreduce_binomial,
    point_to_point_time,
    reduce_scatter_halving,
    reduce_to_coordinator,
)
from ..cluster.costmodel import CostParams, log2_steps
from ..cluster.simclock import SimClock
from ..compression.lowprec import (
    compress_blocked,
    compress_flat,
    decompress_blocked,
    decompress_flat,
)
from ..config import ClusterConfig, TrainConfig
from ..errors import ConfigError, TrainingError
from ..ps.group import ParameterServerGroup
from ..ps.localagg import LocalAggregator
from ..ps.partitioner import Partition
from ..ps.slab import CompressedSlab, SlabLayout, SparseSlab, compress_slab, slab_from_flat
from ..sketch.candidates import CandidateSet
from ..tree.split import SplitDecision, best_split_in_range, combine_shard_decisions
from ..utils.rng import spawn_rng
from ..utils.timing import wall_clock
from .scheduler import (
    RoundRobinScheduler,
    SingleAgentScheduler,
    SpeedWeightedScheduler,
)

#: Registry of backend names in the paper's comparison order.
BACKEND_NAMES = ("mllib", "xgboost", "lightgbm", "tencentboost", "dimboost")

#: Bytes of one split decision on the wire (Section 6.3: one int + floats).
DECISION_BYTES = 28


def general_ps_push_time(
    w: int, p: int, h: float, cost: CostParams, colocated: bool = True
) -> float:
    """PS aggregation time for ``w`` workers pushing ``h`` bytes to ``p`` servers.

    Reduces to the Table 1 DimBoost row when ``p == w`` and co-located:
    per-server inbound transfer ``(w-1) * h/p * beta``, batched per-worker
    latency ``(p-1) * alpha``, and per-server merge ``w * h/p * gamma``.
    """
    if w < 1 or p < 1:
        raise TrainingError(f"w and p must be >= 1, got w={w}, p={p}")
    co = 1 if (colocated and p <= w) else 0
    slice_h = h / p
    return (
        (w - co) * slice_h * cost.beta
        + (p - co) * cost.alpha
        + w * slice_h * cost.gamma
    )


class AggregationBackend(ABC):
    """Base class wiring the shared layout knowledge.

    Subclasses implement :meth:`aggregate_node` (merge one node's local
    histograms, charging communication) and :meth:`find_splits` (decide
    the splits of a whole layer, charging split-finding communication and
    compute).
    """

    name: str = "abstract"
    #: Preferred histogram build mode, resolved to a
    #: :class:`~repro.runtime.build.HistogramBuildStrategy` by the engine
    #: (Section 5.1: DimBoost is the first system to exploit sparsity
    #: there, so it alone defaults to "sparse").
    build_mode: str = "dense"
    #: Whether the backend accepts sparse histogram slabs — the
    #: block-distributed (feature-striped) aggregation path.  Only PS
    #: backends can: the server reconstructs absent features from the
    #: slab sums, which collectives have no place to do.
    supports_slab_push: bool = False
    #: Whether the backend accepts locally-aggregated windowed pushes
    #: (``TrainConfig.agg_window > 1``).  PS backends only — collectives
    #: have no server-side seq-token seam to deduplicate a window on.
    supports_windowed_push: bool = False

    def __init__(
        self,
        cluster: ClusterConfig,
        config: TrainConfig,
        candidates: CandidateSet,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.candidates = candidates
        self.cost = CostParams(
            cluster.network.alpha, cluster.network.beta, cluster.network.gamma
        )
        self.n_bins = candidates.max_bins
        self.n_features = candidates.n_features
        self.flat_len = 2 * self.n_features * self.n_bins
        self.flat_bytes = self.flat_len * 4
        self._tree_index = -1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin_tree(self, tree_index: int) -> None:
        """Reset per-tree state."""
        self._tree_index = tree_index

    @abstractmethod
    def aggregate_node(
        self, node: int, local_flats: list[np.ndarray], clock: SimClock
    ) -> None:
        """Merge one node's per-worker flat histograms."""

    def aggregate_node_slabs(
        self,
        node: int,
        slabs: list[tuple[int, SparseSlab]],
        clock: SimClock,
    ) -> None:
        """Merge one node's per-block sparse slabs (2-D sharding path).

        ``slabs`` holds ``(block_id, slab)`` pairs in block (worker-id)
        order.  Backends that cannot reconstruct absent features —
        everything but the parameter servers — reject the call.
        """
        raise TrainingError(
            f"backend {self.name!r} does not support sparse slab "
            f"aggregation; feature-striped grids (cols > 1) need a "
            f"parameter-server backend (tencentboost, dimboost)"
        )

    @abstractmethod
    def find_splits(
        self,
        nodes: list[int],
        feature_valid: np.ndarray | None,
        clock: SimClock,
    ) -> dict[int, SplitDecision | None]:
        """Best split per node for an aggregated layer."""

    def end_tree(self, clock: SimClock) -> None:
        """Release per-tree storage (default: nothing)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _scan_flat(
        self, flat: np.ndarray, feature_valid: np.ndarray | None
    ) -> SplitDecision | None:
        """Whole-histogram split scan (Algorithm 1 lines 10-17)."""
        return best_split_in_range(
            flat,
            0,
            self.n_features,
            self.candidates,
            self.config.reg_lambda,
            self.config.reg_gamma,
            self.config.min_child_weight,
            feature_valid,
        )

    def _charge_decision_broadcast(self, clock: SimClock, n_nodes: int) -> None:
        """Ship the (tiny) split decisions to all workers."""
        w = self.cluster.n_workers
        clock.advance_comm(
            (w - 1) * point_to_point_time(n_nodes * DECISION_BYTES, self.cost)
            if w > 1
            else 0.0,
            phase="FIND_SPLIT",
        )


class MLlibBackend(AggregationBackend):
    """All-to-one reduce; the coordinator finds every split (Section 2.3).

    "statistics are collected to a particular worker node via a
    reduceByKey operator" and "statistics aggregation is the bottleneck".
    """

    name = "mllib"
    build_mode = "dense"

    def __init__(self, cluster, config, candidates) -> None:
        super().__init__(cluster, config, candidates)
        self._merged: dict[int, np.ndarray] = {}

    def aggregate_node(self, node, local_flats, clock) -> None:
        merged, stats = reduce_to_coordinator(local_flats, self.cost)
        clock.advance_comm(stats.sim_seconds, phase="FIND_SPLIT")
        self._merged[node] = merged

    def find_splits(self, nodes, feature_valid, clock):
        decisions: dict[int, SplitDecision | None] = {}
        started = wall_clock()
        for node in nodes:
            decisions[node] = self._scan_flat(self._merged.pop(node), feature_valid)
        # One coordinator scans every node serially: no parallelism.
        clock.advance_compute(wall_clock() - started, phase="FIND_SPLIT")
        self._charge_decision_broadcast(clock, len(nodes))
        return decisions


class XGBoostBackend(AggregationBackend):
    """Binomial-tree AllReduce; the root worker finds splits (Section 2.3)."""

    name = "xgboost"
    build_mode = "dense"

    def __init__(self, cluster, config, candidates) -> None:
        super().__init__(cluster, config, candidates)
        self._merged: dict[int, np.ndarray] = {}

    def aggregate_node(self, node, local_flats, clock) -> None:
        merged, stats = allreduce_binomial(local_flats, self.cost)
        clock.advance_comm(stats.sim_seconds, phase="FIND_SPLIT")
        self._merged[node] = merged

    def find_splits(self, nodes, feature_valid, clock):
        decisions: dict[int, SplitDecision | None] = {}
        started = wall_clock()
        for node in nodes:
            decisions[node] = self._scan_flat(self._merged.pop(node), feature_valid)
        clock.advance_compute(wall_clock() - started, phase="FIND_SPLIT")
        # Up-bottom broadcast of the model update along the tree.
        w = self.cluster.n_workers
        clock.advance_comm(
            log2_steps(w)
            * point_to_point_time(len(nodes) * DECISION_BYTES, self.cost),
            phase="FIND_SPLIT",
        )
        return decisions


class LightGBMBackend(AggregationBackend):
    """Recursive-halving ReduceScatter; distributed split finding.

    Each worker ends the aggregation owning a fully merged feature range
    and finds the best split within it; the per-range optima (tiny) are
    allgathered and the global maximum chosen — LightGBM's data-parallel
    voting-free protocol.
    """

    name = "lightgbm"
    build_mode = "dense"

    def __init__(self, cluster, config, candidates) -> None:
        super().__init__(cluster, config, candidates)
        if self.n_features < cluster.n_workers:
            raise TrainingError(
                "LightGBM backend needs at least one feature per worker "
                f"(features={self.n_features}, workers={cluster.n_workers})"
            )
        self._owned: dict[int, tuple[list[np.ndarray | None], dict[int, tuple[int, int]]]] = {}

    def aggregate_node(self, node, local_flats, clock) -> None:
        owned, stats = reduce_scatter_halving(
            local_flats, self.cost, align=2 * self.n_bins
        )
        clock.advance_comm(stats.sim_seconds, phase="FIND_SPLIT")
        self._owned[node] = (owned, stats.segments)

    def find_splits(self, nodes, feature_valid, clock):
        per_worker_seconds = [0.0] * self.cluster.n_workers
        decisions: dict[int, SplitDecision | None] = {}
        block = 2 * self.n_bins
        for node in nodes:
            owned, segments = self._owned.pop(node)
            shard_decisions: list[SplitDecision | None] = []
            for worker_id, (lo, hi) in segments.items():
                started = wall_clock()
                shard_decisions.append(
                    best_split_in_range(
                        owned[worker_id],
                        lo // block,
                        hi // block,
                        self.candidates,
                        self.config.reg_lambda,
                        self.config.reg_gamma,
                        self.config.min_child_weight,
                        feature_valid,
                    )
                )
                per_worker_seconds[worker_id] += wall_clock() - started
            decisions[node] = combine_shard_decisions(shard_decisions)
        # Workers scan their ranges in parallel; barrier on the slowest.
        clock.barrier(
            [
                seconds / self.cluster.speed_of(wid)
                for wid, seconds in enumerate(per_worker_seconds)
            ],
            phase="FIND_SPLIT",
        )
        # Allgather of the per-range optima: log w exchange steps of tiny
        # messages, as in the halving topology run backwards.
        clock.advance_comm(
            log2_steps(self.cluster.n_workers)
            * point_to_point_time(len(nodes) * DECISION_BYTES, self.cost),
            phase="FIND_SPLIT",
        )
        return decisions


def _ps_aggregate_slabs(
    backend: "AggregationBackend", node: int, slabs, clock: SimClock
) -> None:
    """Shared PS slab aggregation: push every block's slab, charge wires.

    Pushes run in block (worker-id) order so the servers accumulate each
    feature's histogram in the same addend order as the dense row-sharded
    pushes — the bit-identity contract.  The batched scatter is charged
    with the *actual* average slab bytes, so sparsity directly shrinks
    the transfer term of the cost model.

    Backends exposing ``compression_bits`` (DimBoost) also quantize each
    slab's value payload: the rng is spawned per ``(tree, node, block)``
    — the same spawn key a rollback-replay re-derives — and compression
    happens once per slab before the partition fan-out, so retries,
    duplicates, and replays all move the identical packed payload.
    """
    if not slabs:
        raise TrainingError(f"node {node}: no slabs to aggregate")
    bits = getattr(backend, "compression_bits", 0)
    block_size = getattr(backend, "compression_block", None)
    total_bytes = 0
    for block_id, slab in slabs:
        rng = (
            spawn_rng(
                backend.config.seed, "lowprec", backend._tree_index, node, block_id
            )
            if bits
            else None
        )
        stats = backend.group.push_slab(
            "grad_hist",
            node,
            slab,
            compression_bits=bits,
            rng=rng,
            compression_block=block_size,
            seq=(backend._tree_index, block_id),
            worker=block_id,
        )
        total_bytes += stats.bytes_up
    clock.advance_comm(
        general_ps_push_time(
            len(slabs),
            backend.cluster.n_servers,
            total_bytes / len(slabs),
            backend.cost,
            backend.cluster.colocated,
        ),
        phase="FIND_SPLIT",
    )


class _PieceWindowBuffer:
    """Window buffer of pre-encoded dense row pieces for one worker.

    The dense lossy codec is partition-scoped (``push_row`` quantizes
    each partition slice in partition order), so compressed dense deltas
    are encoded *at buffer time* with their canonical rng streams and
    windowing only batches their delivery.  Mirrors the
    :class:`~repro.ps.localagg.LocalAggregator` window accounting so the
    ``(tree, window, worker)`` token sequence is deterministic.
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.pending = 0
        self.windows_flushed = 0
        self._pieces: list[tuple[int, int, np.ndarray, int]] = []

    @property
    def full(self) -> bool:
        return self.pending >= self.window

    def add(self, pieces: list[tuple[int, int, np.ndarray, int]]) -> bool:
        """Buffer one delta's pieces; returns whether the window filled."""
        self._pieces.extend(pieces)
        self.pending += 1
        return self.full

    def drain(self) -> tuple[int, list[tuple[int, int, np.ndarray, int]]]:
        if not self._pieces:
            return self.windows_flushed, []
        index = self.windows_flushed
        self.windows_flushed += 1
        pieces, self._pieces = self._pieces, []
        self.pending = 0
        return index, pieces

    def reset(self) -> None:
        self._pieces = []
        self.pending = 0
        self.windows_flushed = 0


class _WindowedPushMixin:
    """Local histogram aggregation for PS backends (``agg_window > 1``).

    Instead of pushing every node delta as it is built, each worker
    folds deltas into its :class:`~repro.ps.localagg.LocalAggregator`
    and the cluster communicates once per aggregation window — the
    Horovod ``LocalGradientAggregationHelper`` pattern applied to
    histogram slabs.  Dense per-worker flats are wrapped in *fully
    present* slabs (every feature carries its exact values) so the
    closed-form header reconstruction never fires for them and the
    stored bits match the dense push exactly; the 2-D grid path buffers
    the engine's sparse slabs as-is.

    One windowed push per worker carries that worker's folded entries,
    encoded once (PR 7 codec) before the partition fan-out, under the
    sequence token ``(tree, window_index, worker)``.  All aggregators
    fill in lockstep (every node contributes one delta per worker), so
    a full window flushes the whole cluster together and is charged as
    one batched PS scatter — the latency term shrinks by the window
    size while the volume terms keep the folded payload mass.

    The one path that cannot fold-then-encode is the compressed *dense*
    push: its codec quantizes per partition slice with a rounding
    stream consumed in partition order, so folding first would change
    the stored bits.  There, each delta is encoded at buffer time
    exactly as :meth:`~repro.ps.group.ParameterServerGroup.push_row`
    would encode it and the window batches the pre-encoded pieces
    (:meth:`~repro.ps.group.ParameterServerGroup.push_window_rows`) —
    the S=0 bit-identity guarantee holds in every cell of the parity
    matrix.
    """

    # Provided by the concrete backend / base class.  Backends with a
    # lossy dense codec (``compression_bits > 0``) additionally provide
    # ``compression_block``, ``_node_sums``, and ``_unfold_zero_buckets``
    # — the compressed-dense buffering path mirrors their per-delta
    # push_row bookkeeping.
    group: ParameterServerGroup
    cluster: ClusterConfig
    config: TrainConfig
    cost: CostParams
    n_bins: int
    n_features: int
    _tree_index: int
    _node_sums: dict[int, tuple[float, float]]

    supports_windowed_push: bool = True

    def _init_windowing(self, layout: SlabLayout) -> None:
        self._layout = layout
        windowed = self.config.agg_window > 1
        self._aggregators: list[LocalAggregator] = (
            [
                LocalAggregator(self.config.agg_window, layout)
                for _ in range(self.cluster.n_workers)
            ]
            if windowed
            else []
        )
        self._piece_buffers: list[_PieceWindowBuffer] = (
            [
                _PieceWindowBuffer(self.config.agg_window)
                for _ in range(self.cluster.n_workers)
            ]
            if windowed
            else []
        )
        self._all_features = np.arange(self.n_features, dtype=np.int64)

    @property
    def windowed(self) -> bool:
        """Whether local aggregation is active (``agg_window > 1``)."""
        return bool(self._aggregators)

    def begin_tree(self, tree_index: int) -> None:
        super().begin_tree(tree_index)  # type: ignore[misc]
        # Rewind window counters so a chaos rollback-replay regenerates
        # the identical (tree, window, worker) token sequence.
        for aggregator in self._aggregators:
            aggregator.reset()
        for buffer in self._piece_buffers:
            buffer.reset()

    def _buffer_node_flats(
        self, node: int, local_flats: list[np.ndarray], clock: SimClock
    ) -> None:
        if getattr(self, "compression_bits", 0):
            self._buffer_compressed_flats(node, local_flats, clock)
            return
        for aggregator, flat in zip(self._aggregators, local_flats):
            slab = slab_from_flat(
                flat,
                self._all_features,
                0,
                self.n_features,
                self.n_bins,
                float(flat[: self.n_bins].sum()),
                float(flat[self.n_bins : 2 * self.n_bins].sum()),
            )
            aggregator.add(node, slab)
        self._maybe_flush_windows(clock)

    def _buffer_compressed_flats(
        self, node: int, local_flats: list[np.ndarray], clock: SimClock
    ) -> None:
        """Buffer compressed dense deltas as pre-encoded pieces.

        Each delta is unfolded and quantized exactly as the per-node
        ``push_row`` path does — same rng spawn key, same partition
        slices, same rounding-stream consumption order — so the batched
        window stores bit-identical floats.  The exact node sums are
        recorded for the split-time refold, matching the unwindowed
        bookkeeping.
        """
        bits = self.compression_bits
        block = self.compression_block
        partitioner = self.group.partitioner("grad_hist")
        total_g = 0.0
        total_h = 0.0
        for worker_id, flat in enumerate(local_flats):
            rng = spawn_rng(
                self.config.seed, "lowprec", self._tree_index, node, worker_id
            )
            unfolded, sum_g, sum_h = self._unfold_zero_buckets(flat)
            total_g += sum_g
            total_h += sum_h
            pieces: list[tuple[int, int, np.ndarray, int]] = []
            for part in partitioner.partitions:
                piece = unfolded[part.lo : part.hi]
                if block:
                    blocked = compress_blocked(piece, block, bits, rng)
                    piece_bytes = blocked.wire_bytes
                    piece = decompress_blocked(blocked)
                else:
                    compressed = compress_flat(piece, bits, rng)
                    piece_bytes = compressed.wire_bytes
                    piece = decompress_flat(compressed)
                pieces.append((node, part.partition_id, piece, piece_bytes))
            self._piece_buffers[worker_id].add(pieces)
        self._node_sums[node] = (total_g, total_h)
        self._maybe_flush_windows(clock)

    def _buffer_node_slabs(
        self, node: int, slabs: list[tuple[int, SparseSlab]], clock: SimClock
    ) -> None:
        for block_id, slab in slabs:
            self._aggregators[block_id].add(node, slab)
        self._maybe_flush_windows(clock)

    def _maybe_flush_windows(self, clock: SimClock) -> None:
        if self._aggregators and (
            self._aggregators[0].full or self._piece_buffers[0].full
        ):
            self._flush_windows(clock)

    def _flush_windows(self, clock: SimClock) -> None:
        """Push every worker's buffered window and charge one scatter.

        Called when the lockstep windows fill, and with partial buffers
        from :meth:`find_splits` — a layer boundary drains stragglers so
        a window never spans layers (split finding needs every delta).
        """
        bits = getattr(self, "compression_bits", 0)
        block_size = getattr(self, "compression_block", None)
        pushed: list[int] = []
        for worker_id, buffer in enumerate(self._piece_buffers):
            if buffer.pending == 0:
                continue
            n_deltas = buffer.pending
            window_index, pieces = buffer.drain()
            stats = self.group.push_window_rows(
                "grad_hist",
                pieces,
                seq=(self._tree_index, window_index, worker_id),
                worker=worker_id,
            )
            # The 8 bytes per delta ship the exact node sums, matching
            # the per-delta compressed push accounting.
            pushed.append(stats.bytes_up + 8 * n_deltas)
        for worker_id, aggregator in enumerate(self._aggregators):
            if aggregator.pending == 0:
                continue
            window_index, entries = aggregator.drain()
            wire_entries: list[tuple[int, SparseSlab | CompressedSlab]] = []
            for node, slab in entries:
                if bits:
                    rng = spawn_rng(
                        self.config.seed,
                        "lowprec",
                        self._tree_index,
                        node,
                        worker_id,
                    )
                    wire_entries.append(
                        (
                            node,
                            compress_slab(
                                slab, self._layout, bits, rng, block_size
                            ),
                        )
                    )
                else:
                    wire_entries.append((node, slab))
            stats = self.group.push_window(
                "grad_hist",
                wire_entries,
                seq=(self._tree_index, window_index, worker_id),
                worker=worker_id,
            )
            pushed.append(stats.bytes_up)
        if pushed:
            clock.advance_comm(
                general_ps_push_time(
                    len(pushed),
                    self.cluster.n_servers,
                    sum(pushed) / len(pushed),
                    self.cost,
                    self.cluster.colocated,
                ),
                phase="FIND_SPLIT",
            )


class TencentBoostBackend(_WindowedPushMixin, AggregationBackend):
    """Parameter server without DimBoost's FIND_SPLIT optimizations.

    TencentBoost "simply applies the parameter server architecture to
    GBDT" (Section 8): histograms are pushed to servers (efficient
    aggregation), but one leader worker pulls every node's *full* merged
    histogram back and finds all splits itself — no scheduler, no
    two-phase split, no compression.

    ``fabric`` (both PS backends): optional ``chaos.FaultyFabric`` the
    server group routes every message through; pushes then carry a
    ``(tree_index, worker_id)`` sequence token so retried or duplicated
    deliveries never double-count a histogram.
    """

    name = "tencentboost"
    build_mode = "dense"
    supports_slab_push = True

    def __init__(self, cluster, config, candidates, fabric=None) -> None:
        super().__init__(cluster, config, candidates)
        self.group = ParameterServerGroup(cluster.n_servers, fabric=fabric)
        layout = SlabLayout(self.n_features, self.n_bins, candidates.zero_bins)
        self.group.register(
            "grad_hist",
            self.flat_len,
            align=2 * self.n_bins,
            layout=layout,
        )
        self._init_windowing(layout)

    def aggregate_node(self, node, local_flats, clock) -> None:
        if self.windowed:
            self._buffer_node_flats(node, local_flats, clock)
            return
        for worker_id, flat in enumerate(local_flats):
            self.group.push_row(
                "grad_hist",
                node,
                flat,
                seq=(self._tree_index, worker_id),
                worker=worker_id,
            )
        clock.advance_comm(
            general_ps_push_time(
                len(local_flats),
                self.cluster.n_servers,
                self.flat_bytes,
                self.cost,
                self.cluster.colocated,
            ),
            phase="FIND_SPLIT",
        )

    def aggregate_node_slabs(self, node, slabs, clock) -> None:
        if self.windowed:
            self._buffer_node_slabs(node, slabs, clock)
            return
        _ps_aggregate_slabs(self, node, slabs, clock)

    def find_splits(self, nodes, feature_valid, clock):
        if self.windowed:
            self._flush_windows(clock)
        decisions: dict[int, SplitDecision | None] = {}
        p = self.cluster.n_servers
        leader_seconds = 0.0
        leader = 0  # the paper's "leader worker" pulls and scans everything
        for node in nodes:
            flat, _stats = self.group.pull_row("grad_hist", node, worker=leader)
            # Full-histogram pull serialized at the leader's NIC.
            clock.advance_comm(
                p * self.cost.alpha + self.flat_bytes * self.cost.beta,
                phase="FIND_SPLIT",
            )
            started = wall_clock()
            decisions[node] = self._scan_flat(flat, feature_valid)
            leader_seconds += wall_clock() - started
            self.group.clear_row("grad_hist", node)
        clock.advance_compute(leader_seconds, phase="FIND_SPLIT")
        self._charge_decision_broadcast(clock, len(nodes))
        return decisions


class DimBoostBackend(_WindowedPushMixin, AggregationBackend):
    """The full DimBoost FIND_SPLIT pipeline (Sections 6.1-6.3).

    Compression detail: Algorithm 2 accumulates the exact gradient sums
    ``sum_g, sum_h`` and only folds them into the zero buckets at the
    end.  Every feature's hessian zero bucket therefore carries O(N)
    mass while ordinary buckets carry O(N * z / (M * K)) — quantizing
    the folded histogram would set the fixed-point scale ``|c|`` from
    the giant zero buckets and drown every other bucket in noise.  So
    when compression is on, workers push the *pre-fold* histogram (all
    buckets small, high SNR) plus the two exact sums, and the zero
    buckets are re-folded from the aggregated node totals at split time.
    With compression off the folded histogram is pushed directly, which
    keeps bit-identical parity with the other backends.

    Args:
        use_scheduler: Round-robin node assignment (True) or the naive
            single-agent strategy (False) — Table 3's scheduler ablation.
        two_phase: Server-side split UDF + tiny replies (True) or full
            histogram pulls by the responsible worker (False).
        compression_bits: Fixed-point width for pushed histograms
            (0 disables compression).
    """

    name = "dimboost"
    build_mode = "sparse"  # sparsity-aware histogram construction (C3)
    supports_slab_push = True

    def __init__(
        self,
        cluster,
        config,
        candidates,
        use_scheduler: bool = True,
        two_phase: bool = True,
        compression_bits: int | None = None,
        speed_aware_scheduler: bool = False,
        fabric=None,
    ) -> None:
        super().__init__(cluster, config, candidates)
        self.group = ParameterServerGroup(cluster.n_servers, fabric=fabric)
        layout = SlabLayout(self.n_features, self.n_bins, candidates.zero_bins)
        self.group.register(
            "grad_hist",
            self.flat_len,
            align=2 * self.n_bins,
            layout=layout,
        )
        self._init_windowing(layout)
        self.use_scheduler = use_scheduler
        self.two_phase = two_phase
        self.compression_bits = (
            config.compression_bits if compression_bits is None else compression_bits
        )
        # One scale per per-feature g/h histogram by default (Section
        # 6.1's "the maximal absolute value in the histogram");
        # config.compression_block overrides the granularity.
        self.compression_block = (
            config.compression_block if config.compression_block else self.n_bins
        )
        if (2 * self.n_bins) % self.compression_block != 0:
            raise ConfigError(
                f"compression_block {self.compression_block} must divide the "
                f"per-feature histogram width {2 * self.n_bins}"
            )
        if not use_scheduler:
            self.scheduler = SingleAgentScheduler(cluster.n_workers)
        elif speed_aware_scheduler:
            speeds = [cluster.speed_of(wid) for wid in range(cluster.n_workers)]
            self.scheduler = SpeedWeightedScheduler(cluster.n_workers, speeds)
        else:
            self.scheduler = RoundRobinScheduler(cluster.n_workers)
        self._push_bytes: dict[int, list[int]] = {}
        # Flat slots of every feature's zero bucket (g and h halves).
        block = 2 * self.n_bins
        self._zero_slots_g = (
            np.arange(self.n_features, dtype=np.int64) * block
            + candidates.zero_bins.astype(np.int64)
        )
        self._zero_slots_h = self._zero_slots_g + self.n_bins
        #: Aggregated exact (sum_g, sum_h) per node, refolded at split time.
        self._node_sums: dict[int, tuple[float, float]] = {}

    def begin_tree(self, tree_index: int) -> None:
        super().begin_tree(tree_index)
        self._node_sums.clear()

    def _unfold_zero_buckets(self, flat: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Remove the Algorithm 2 zero-bucket fold from a local histogram.

        Returns (pre-fold flat copy, sum_g, sum_h); the sums travel as two
        exact floats alongside the compressed payload.
        """
        sum_g = float(flat[: self.n_bins].sum())  # any feature row's total
        sum_h = float(flat[self.n_bins : 2 * self.n_bins].sum())
        unfolded = np.array(flat, dtype=np.float64, copy=True)
        unfolded[self._zero_slots_g] -= sum_g
        unfolded[self._zero_slots_h] -= sum_h
        return unfolded, sum_g, sum_h

    def _fold_zero_buckets(
        self, flat: np.ndarray, lo: int, hi: int, sum_g: float, sum_h: float
    ) -> np.ndarray:
        """Re-apply the zero-bucket fold over feature range ``[lo, hi)``
        elements of the stored (pre-fold) histogram."""
        block = 2 * self.n_bins
        f_lo = lo // block
        f_hi = hi // block
        folded = np.array(flat, dtype=np.float64, copy=True)
        folded[self._zero_slots_g[f_lo:f_hi] - lo] += sum_g
        folded[self._zero_slots_h[f_lo:f_hi] - lo] += sum_h
        return folded

    def aggregate_node(self, node, local_flats, clock) -> None:
        if self.windowed:
            # Buffer the *folded* flats: the windowed wire path is slabs,
            # where compress_slab itself unfolds the zero-bucket mass
            # before encoding (and refolds it exactly on decode), so the
            # servers store folded histograms and no _node_sums refold
            # entry is needed at split time.
            self._buffer_node_flats(node, local_flats, clock)
            return
        pushed: list[int] = []
        total_g = 0.0
        total_h = 0.0
        for worker_id, flat in enumerate(local_flats):
            if self.compression_bits:
                rng = spawn_rng(
                    self.config.seed, "lowprec", self._tree_index, node, worker_id
                )
                flat, sum_g, sum_h = self._unfold_zero_buckets(flat)
                total_g += sum_g
                total_h += sum_h
            else:
                rng = None
            stats = self.group.push_row(
                "grad_hist",
                node,
                flat,
                compression_bits=self.compression_bits,
                rng=rng,
                compression_block=self.compression_block,
                seq=(self._tree_index, worker_id),
                worker=worker_id,
            )
            pushed.append(stats.bytes_up + (8 if self.compression_bits else 0))
        if self.compression_bits:
            self._node_sums[node] = (total_g, total_h)
        # Charge the batched PS scatter with the *actual* wire bytes, so
        # compression directly shrinks the transfer term.
        avg_bytes = sum(pushed) / len(pushed)
        clock.advance_comm(
            general_ps_push_time(
                len(local_flats),
                self.cluster.n_servers,
                avg_bytes,
                self.cost,
                self.cluster.colocated,
            ),
            phase="FIND_SPLIT",
        )
        self._push_bytes[node] = pushed

    def aggregate_node_slabs(self, node, slabs, clock) -> None:
        # With compression on, each slab's value payload is quantized
        # once before the partition fan-out (see _ps_aggregate_slabs);
        # the exact header sums still reconstruct absent features with
        # no quantization at all, and the servers store the *folded*
        # histogram directly, so no _node_sums refold entry is needed.
        if self.windowed:
            self._buffer_node_slabs(node, slabs, clock)
            return
        _ps_aggregate_slabs(self, node, slabs, clock)

    def _make_udf(self, feature_valid: np.ndarray | None, node: int):
        """Server-side split UDF over one stored feature range of ``node``."""
        block = 2 * self.n_bins
        candidates = self.candidates
        config = self.config
        sums = self._node_sums.get(node)

        def udf(values: np.ndarray, partition: Partition) -> SplitDecision | None:
            if sums is not None:
                values = self._fold_zero_buckets(
                    values, partition.lo, partition.hi, sums[0], sums[1]
                )
            return best_split_in_range(
                values,
                partition.lo // block,
                partition.hi // block,
                candidates,
                config.reg_lambda,
                config.reg_gamma,
                config.min_child_weight,
                feature_valid,
            )

        return udf

    def find_splits(self, nodes, feature_valid, clock):
        if self.windowed:
            # Drain partial windows: a layer boundary must see every
            # delta, so windows never span layers.
            self._flush_windows(clock)
        if (
            isinstance(self.scheduler, SpeedWeightedScheduler)
            and clock.jitter is not None
        ):
            # Track the rotating straggler: assignment weights use this
            # layer's effective speeds, not the static average.
            self.scheduler.update_speeds(
                [
                    self.cluster.speed_of(wid) * clock.jitter_factor(wid)
                    for wid in range(self.cluster.n_workers)
                ]
            )
        assignment = self.scheduler.assign(nodes)
        decisions: dict[int, SplitDecision | None] = {}
        per_worker_seconds = [0.0] * self.cluster.n_workers
        p = self.cluster.n_servers

        for worker_id, its_nodes in assignment.items():
            comm_seconds = 0.0
            for node in its_nodes:
                if self.two_phase:
                    udf = self._make_udf(feature_valid, node)
                    started = wall_clock()
                    results, _stats = self.group.pull_row_udf(
                        "grad_hist",
                        node,
                        udf,
                        result_bytes=DECISION_BYTES,
                        worker=worker_id,
                    )
                    scan_wall = wall_clock() - started
                    decisions[node] = combine_shard_decisions(
                        [decision for _part, decision in results]
                    )
                    # The p servers scan their ranges concurrently; the
                    # in-process wall time covers all of them, so one
                    # server's share is wall / p.
                    per_worker_seconds[worker_id] += scan_wall / p
                    comm_seconds += p * point_to_point_time(DECISION_BYTES, self.cost)
                else:
                    flat, _stats = self.group.pull_row(
                        "grad_hist", node, worker=worker_id
                    )
                    comm_seconds += p * self.cost.alpha + (
                        self.flat_bytes * self.cost.beta
                    )
                    sums = self._node_sums.get(node)
                    if sums is not None:
                        flat = self._fold_zero_buckets(
                            flat, 0, self.flat_len, sums[0], sums[1]
                        )
                    started = wall_clock()
                    decisions[node] = self._scan_flat(flat, feature_valid)
                    per_worker_seconds[worker_id] += wall_clock() - started
                self.group.clear_row("grad_hist", node)
            # Each worker's pulls serialize at its own NIC but run in
            # parallel across workers — fold into its compute lane so the
            # barrier below models the round-robin balancing.
            per_worker_seconds[worker_id] += comm_seconds
        clock.barrier(
            [
                seconds / self.cluster.speed_of(wid)
                for wid, seconds in enumerate(per_worker_seconds)
            ],
            phase="FIND_SPLIT",
        )
        # Responsible workers push results to the PS; everyone pulls them.
        w = self.cluster.n_workers
        clock.advance_comm(
            point_to_point_time(len(nodes) * DECISION_BYTES, self.cost)
            + (w - 1) * point_to_point_time(len(nodes) * DECISION_BYTES, self.cost)
            if w > 1
            else 0.0,
            phase="FIND_SPLIT",
        )
        self._push_bytes.clear()
        return decisions


_BACKENDS = {
    MLlibBackend.name: MLlibBackend,
    XGBoostBackend.name: XGBoostBackend,
    LightGBMBackend.name: LightGBMBackend,
    TencentBoostBackend.name: TencentBoostBackend,
    DimBoostBackend.name: DimBoostBackend,
}


def backend_options(system: str) -> tuple[str, ...]:
    """Keyword options a backend accepts beyond (cluster, config, candidates)."""
    try:
        backend_cls = _BACKENDS[system]
    except KeyError as exc:
        raise TrainingError(
            f"unknown system {system!r}; expected one of {BACKEND_NAMES}"
        ) from exc
    parameters = inspect.signature(backend_cls.__init__).parameters
    return tuple(
        name
        for name in parameters
        if name not in ("self", "cluster", "config", "candidates")
    )


def make_backend(
    system: str,
    cluster: ClusterConfig,
    config: TrainConfig,
    candidates: CandidateSet,
    **kwargs,
) -> AggregationBackend:
    """Instantiate a backend by system name (see ``BACKEND_NAMES``).

    Raises:
        TrainingError: For an unknown system name.
        ConfigError: For a keyword the backend does not accept (e.g. a
            typo'd ablation flag), naming the backend and its options.
    """
    accepted = backend_options(system)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        options = (
            f"accepted options: {', '.join(accepted)}"
            if accepted
            else "it accepts no extra options"
        )
        raise ConfigError(
            f"unknown option(s) {', '.join(map(repr, unknown))} for backend "
            f"{system!r}; {options}"
        )
    return _BACKENDS[system](cluster, config, candidates, **kwargs)
