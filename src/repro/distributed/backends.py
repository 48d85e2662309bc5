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
from ..config import ClusterConfig, TrainConfig
from ..errors import ConfigError, TrainingError
from ..ps.group import ParameterServerGroup
from ..ps.localagg import LocalAggregator
from ..ps.partitioner import Partition
from ..ps.slab import SlabLayout, SparseSlab, compress_slab, slab_from_flat
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


class _PSBackend(AggregationBackend):
    """Histogram aggregation through the parameter servers (Section 4).

    Every worker pushes its node delta to the ``p`` shards of one
    :class:`~repro.ps.group.ParameterServerGroup`: a dense row on a
    row-sharded cluster (:meth:`aggregate_node`), a sparse slab per
    block on a feature-striped grid (:meth:`aggregate_node_slabs`).
    Pushes run in worker (block) order so the servers accumulate each
    feature's histogram in the same addend order on every layout — the
    bit-identity contract.  The batched scatter is charged with the
    *actual* average wire bytes, so sparsity and compression directly
    shrink the transfer term of the cost model.

    Low-precision pushes (``compression_bits > 0``) keep one contract:

    * **One dither stream per delta.** :meth:`_codec_rng` spawns the
      stochastic-rounding rng per ``(tree, node, worker)`` — the key a
      rollback-replay re-derives, so retries, duplicates and replays
      move the identical payload.  A dense row consumes it across its
      partition slices in partition order
      (:meth:`~repro.ps.group.ParameterServerGroup.encode_row`); a slab
      is encoded once before the partition fan-out (``compress_slab``).
    * **Zero-bucket unfold.** Algorithm 2 folds the exact gradient sums
      into every feature's zero bucket, O(N) mass that would set the
      fixed-point scale ``|c|`` and drown every other bucket in noise.
      Dense rows are therefore pushed *pre-fold* plus the two exact
      sums (8 bytes), and the node totals (``_node_sums``) are refolded
      at split time.  Slabs unfold inside ``compress_slab`` and refold
      exactly on decode, so their servers store folded histograms.

    With ``agg_window > 1`` each worker buffers its encoded deltas in a
    :class:`~repro.ps.localagg.LocalAggregator` and the cluster
    communicates once per aggregation window — the Horovod
    ``LocalGradientAggregationHelper`` pattern applied to histograms.
    One windowed push per worker carries its window under the sequence
    token ``(tree, window_index, worker)``.  All buffers fill in
    lockstep (every node contributes one delta per worker), so a full
    window flushes the whole cluster together and is charged as one
    batched PS scatter: the latency term shrinks by the window size
    while the volume terms keep the payload mass.  Uncompressed dense
    rows travel as *fully present* slabs (every feature carries its
    exact values, so the closed-form reconstruction never fires) and
    compressed ones as their encoded partition pieces
    (:meth:`~repro.ps.group.ParameterServerGroup.push_window_rows`);
    either way windowing changes only the delivery, never the stored
    bits.

    ``fabric``: optional ``chaos.FaultyFabric`` the server group routes
    every message through; pushes carry a ``(tree_index, worker_id)``
    sequence token so retried or duplicated deliveries never
    double-count a histogram.
    """

    #: Fixed-point width of pushed histograms (0 disables the codec).
    compression_bits: int = 0
    #: Values per codec scale (None: one scale per partition slice).
    compression_block: int | None = None
    supports_slab_push = True
    supports_windowed_push = True

    def __init__(self, cluster, config, candidates, fabric=None) -> None:
        super().__init__(cluster, config, candidates)
        self.group = ParameterServerGroup(cluster.n_servers, fabric=fabric)
        self._layout = SlabLayout(
            self.n_features, self.n_bins, candidates.zero_bins
        )
        self.group.register(
            "grad_hist",
            self.flat_len,
            align=2 * self.n_bins,
            layout=self._layout,
        )
        self._windows: list[LocalAggregator] = (
            [LocalAggregator(config.agg_window) for _ in range(cluster.n_workers)]
            if config.agg_window > 1
            else []
        )
        self._all_features = np.arange(self.n_features, dtype=np.int64)
        # Flat slots of every feature's zero bucket (g and h halves).
        self._zero_slots_g = (
            self._all_features * (2 * self.n_bins)
            + candidates.zero_bins.astype(np.int64)
        )
        self._zero_slots_h = self._zero_slots_g + self.n_bins
        #: Aggregated exact (sum_g, sum_h) per node, refolded at split time.
        self._node_sums: dict[int, tuple[float, float]] = {}

    @property
    def windowed(self) -> bool:
        """Whether local aggregation is active (``agg_window > 1``)."""
        return bool(self._windows)

    def begin_tree(self, tree_index: int) -> None:
        super().begin_tree(tree_index)
        # Rewind window counters so a chaos rollback-replay regenerates
        # the identical (tree, window, worker) token sequence.
        for window in self._windows:
            window.reset()
        self._node_sums.clear()

    def _codec_rng(self, node: int, worker_id: int) -> np.random.Generator | None:
        """The dither stream of one worker's delta for ``node`` (None
        when the codec is off)."""
        if not self.compression_bits:
            return None
        return spawn_rng(
            self.config.seed, "lowprec", self._tree_index, node, worker_id
        )

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
        bits = self.compression_bits
        total_g = total_h = 0.0
        pushed = []
        for worker_id, flat in enumerate(local_flats):
            if bits:
                # Push the pre-fold histogram; the exact node totals are
                # refolded at split time, windowed or not.
                flat, sum_g, sum_h = self._unfold_zero_buckets(flat)
                total_g += sum_g
                total_h += sum_h
            if self.windowed:
                self._windows[worker_id].add(
                    node, self._window_row(node, worker_id, flat)
                )
                continue
            stats = self.group.push_row(
                "grad_hist",
                node,
                flat,
                compression_bits=bits,
                rng=self._codec_rng(node, worker_id),
                compression_block=self.compression_block,
                seq=(self._tree_index, worker_id),
                worker=worker_id,
            )
            # A compressed row ships the 8 bytes of exact node sums too.
            pushed.append(stats.bytes_up + (8 if bits else 0))
        if bits:
            self._node_sums[node] = (total_g, total_h)
        self._after_push(pushed, clock)

    def _window_row(self, node: int, worker_id: int, flat: np.ndarray):
        """One dense delta as a window payload: its encoded partition
        pieces under compression, else a fully present slab."""
        if self.compression_bits:
            return list(
                self.group.encode_row(
                    "grad_hist",
                    flat,
                    self.compression_bits,
                    self._codec_rng(node, worker_id),
                    self.compression_block,
                )
            )
        return slab_from_flat(
            flat,
            self._all_features,
            0,
            self.n_features,
            self.n_bins,
            float(flat[: self.n_bins].sum()),
            float(flat[self.n_bins : 2 * self.n_bins].sum()),
        )

    def aggregate_node_slabs(self, node, slabs, clock) -> None:
        if not slabs:
            raise TrainingError(f"node {node}: no slabs to aggregate")
        pushed = []
        for block_id, slab in slabs:
            rng = self._codec_rng(node, block_id)
            if self.windowed:
                if rng is not None:
                    slab = compress_slab(
                        slab,
                        self._layout,
                        self.compression_bits,
                        rng,
                        self.compression_block,
                    )
                self._windows[block_id].add(node, slab)
                continue
            stats = self.group.push_slab(
                "grad_hist",
                node,
                slab,
                compression_bits=self.compression_bits,
                rng=rng,
                compression_block=self.compression_block,
                seq=(self._tree_index, block_id),
                worker=block_id,
            )
            pushed.append(stats.bytes_up)
        self._after_push(pushed, clock)

    def _after_push(self, pushed: list[int], clock: SimClock) -> None:
        """Charge the node's pushes as one batched scatter or, when
        windowed, flush the windows once they fill."""
        if not self.windowed:
            self._charge_push(pushed, clock)
        elif self._windows[0].full:
            self._flush_windows(clock)

    def _flush_windows(self, clock: SimClock) -> None:
        """Push every worker's buffered window and charge one scatter.

        Called when the lockstep windows fill, and with partial buffers
        from ``find_splits`` — a layer boundary drains stragglers so a
        window never spans layers (split finding needs every delta).
        """
        pushed: list[int] = []
        for worker_id, window in enumerate(self._windows):
            n_deltas = window.pending
            if n_deltas == 0:
                continue
            window_index, entries = window.drain()
            seq = (self._tree_index, window_index, worker_id)
            if isinstance(entries[0][1], list):  # encoded dense rows
                pieces = [
                    (node, part.partition_id, values, wire_bytes)
                    for node, encoded in entries
                    for part, values, wire_bytes in encoded
                ]
                stats = self.group.push_window_rows(
                    "grad_hist", pieces, seq=seq, worker=worker_id
                )
                # Each compressed row also ships its 8 bytes of node sums.
                pushed.append(stats.bytes_up + 8 * n_deltas)
            else:
                stats = self.group.push_window(
                    "grad_hist", entries, seq=seq, worker=worker_id
                )
                pushed.append(stats.bytes_up)
        if pushed:
            self._charge_push(pushed, clock)

    def _charge_push(self, pushed: list[int], clock: SimClock) -> None:
        """Charge one batched PS scatter of the workers' ``pushed`` bytes."""
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


class TencentBoostBackend(_PSBackend):
    """Parameter server without DimBoost's FIND_SPLIT optimizations.

    TencentBoost "simply applies the parameter server architecture to
    GBDT" (Section 8): histograms are pushed to servers (efficient
    aggregation), but one leader worker pulls every node's *full* merged
    histogram back and finds all splits itself — no scheduler, no
    two-phase split, no compression.
    """

    name = "tencentboost"
    build_mode = "dense"

    def find_splits(self, nodes, feature_valid, clock):
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


class DimBoostBackend(_PSBackend):
    """The full DimBoost FIND_SPLIT pipeline (Sections 6.1-6.3).

    Pushes ride the low-precision codec of Section 6.1 when
    ``compression_bits > 0`` (the zero-bucket unfold and the per-delta
    dither stream are :class:`_PSBackend`'s contract); with compression
    off the folded histogram is pushed directly, which keeps
    bit-identical parity with the other backends.

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
        super().__init__(cluster, config, candidates, fabric=fabric)
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
        # Drain partial windows: a layer boundary must see every delta,
        # so windows never span layers.
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
