"""Histogram build strategies: how one node histogram gets constructed.

One strategy object, chosen once per fit, decides how every node
histogram gets built:

* :class:`DenseBuildStrategy` — the traditional full scan over all
  ``M * K`` buckets (what the baseline systems do, Section 5.1).
* :class:`SparseBuildStrategy` — Algorithm 2's sparsity-aware build,
  O(zN + M) (DimBoost's C3 optimization).
* :class:`BatchedBuildStrategy` — Section 5.2's parallel batch
  construction over either kernel; by default it reports the simulated
  multi-core *span*, with ``real_threads=True`` it actually runs the
  batches on a thread pool (GIL-capped) and reports real wall-clock.
* :class:`ProcessParallelBuildStrategy` — Section 5.2 on real cores: a
  persistent process pool building batches against a zero-copy
  :class:`~repro.histogram.shared.SharedShard`, merged in the driver.

Every strategy returns ``(histogram, seconds)`` where ``seconds`` is
what a simulated worker should be charged for the build — measured
wall-clock for the serial and real-parallel paths, simulated span for
the span-accounting batched one — so the engine's phase barrier code no
longer branches on how the histogram was built.

Strategies that hold resources (the process pool, shared-memory
segments, pooled buffers) release them in :meth:`close`; trainers that
resolve a strategy themselves close it when the fit ends.
"""

from __future__ import annotations

import multiprocessing
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ..config import TrainConfig
from ..histogram.binned import BinnedShard
from ..histogram.buffers import HistogramBufferPool
from ..histogram.builder import (
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from ..histogram.histogram import GradientHistogram
from ..histogram.parallel import (
    ParallelBuildResult,
    build_histogram_batched,
    simulate_span,
)
from ..histogram.shared import SharedShard, build_into_slot
from ..utils.timing import wall_clock

__all__ = [
    "HistogramBuildStrategy",
    "DenseBuildStrategy",
    "SparseBuildStrategy",
    "BatchedBuildStrategy",
    "ProcessParallelBuildStrategy",
    "resolve_build_strategy",
]


class HistogramBuildStrategy(ABC):
    """How a worker constructs one node's gradient histogram."""

    #: Short identifier used in logs and reprs.
    name: str = "abstract"

    @abstractmethod
    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        """Build one node histogram.

        Returns:
            ``(histogram, seconds)`` — the histogram plus the seconds a
            simulated worker is charged for building it.
        """

    def release(self, histogram: GradientHistogram) -> None:
        """Give a consumed histogram's buffers back for reuse.

        Callers that are done with a histogram (e.g. the distributed
        engine after flattening it onto the wire) may hand it back so a
        pooled strategy can recycle the arrays.  No-op by default.  The
        histogram must not be used after release.
        """

    def close(self) -> None:
        """Release held resources (pools, shared memory).  No-op here."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _PooledKernelStrategy(HistogramBuildStrategy):
    """Shared plumbing for the single-kernel strategies."""

    def __init__(self, pool: HistogramBufferPool | None = None) -> None:
        self.pool = pool

    def _out(self, shard: BinnedShard) -> GradientHistogram | None:
        if self.pool is None:
            return None
        return self.pool.acquire(shard.n_features, shard.n_bins)

    def release(self, histogram: GradientHistogram) -> None:
        if self.pool is not None:
            self.pool.release(histogram)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.clear()


class DenseBuildStrategy(_PooledKernelStrategy):
    """Traditional dense scan over every (feature, bucket) pair."""

    name = "dense"

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        histogram = build_node_histogram_dense(
            shard, rows, grad, hess, out=self._out(shard)
        )
        return histogram, wall_clock() - started


class SparseBuildStrategy(_PooledKernelStrategy):
    """Algorithm 2: touch only the nonzeros, fold totals into zero bins."""

    name = "sparse"

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        histogram = build_node_histogram_sparse(
            shard, rows, grad, hess, out=self._out(shard)
        )
        return histogram, wall_clock() - started


class BatchedBuildStrategy(HistogramBuildStrategy):
    """Section 5.2 parallel batch construction over a base kernel.

    With the default ``real_threads=False`` the batches run serially and
    the returned seconds are the simulated multi-core span (longest
    chain of batch builds over ``n_threads`` threads), not the serial
    wall-clock the single Python process actually spent.  With
    ``real_threads=True`` the batches run on a ThreadPoolExecutor and
    the real wall-clock is charged — honest, but GIL-capped.
    """

    name = "batched"

    def __init__(
        self,
        batch_size: int,
        n_threads: int,
        sparse: bool = True,
        real_threads: bool = False,
    ) -> None:
        self.batch_size = batch_size
        self.n_threads = n_threads
        self.sparse = sparse
        self.real_threads = real_threads
        self.kernel = (
            build_node_histogram_sparse if sparse else build_node_histogram_dense
        )
        #: Last build's full telemetry (span, wall, per-batch times).
        self.last_result: ParallelBuildResult | None = None

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        result = build_histogram_batched(
            shard,
            rows,
            grad,
            hess,
            batch_size=self.batch_size,
            n_threads=self.n_threads,
            use_real_threads=self.real_threads,
            kernel=self.kernel,
        )
        self.last_result = result
        seconds = result.wall_seconds if self.real_threads else result.span_seconds
        return result.histogram, seconds

    def __repr__(self) -> str:
        return (
            f"BatchedBuildStrategy(batch_size={self.batch_size}, "
            f"n_threads={self.n_threads}, sparse={self.sparse}, "
            f"real_threads={self.real_threads})"
        )


class ProcessParallelBuildStrategy(HistogramBuildStrategy):
    """Real multicore batch construction on a persistent process pool.

    A node's rows are chunked into at most ``n_processes`` contiguous
    tasks; each task builds its chunk's histogram inside a worker
    process, writing into its slot of a shared-memory slab, and the
    driver sums the slots in slot order (deterministic for a fixed
    chunking).  Per-shard data and the per-round gradients live in a
    :class:`~repro.histogram.shared.SharedShard`, so nothing heavy is
    pickled per task.

    Degrades to the sequential kernel — per build for nodes too small to
    be worth the fan-out (fewer than two ``batch_size`` chunks), and
    permanently (with a warning) when process pools are unusable: no
    ``fork`` start method, shared memory unavailable, or a broken pool.

    The returned seconds are the real wall-clock of the fan-out, and
    :attr:`last_result` carries the full telemetry including the
    Section 5.2 simulated span for comparison.
    """

    name = "process"

    def __init__(
        self,
        batch_size: int,
        n_processes: int,
        sparse: bool = True,
        pool: HistogramBufferPool | None = None,
    ) -> None:
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        self.batch_size = batch_size
        self.n_processes = n_processes
        self.sparse = sparse
        self.pool = pool if pool is not None else HistogramBufferPool()
        self.kernel = (
            build_node_histogram_sparse if sparse else build_node_histogram_dense
        )
        self._executor: ProcessPoolExecutor | None = None
        #: id(shard) -> (shard, SharedShard, last grad, last hess).  The
        #: strong references pin the ids, so the identity check on the
        #: cached gradients can never alias a freed array.
        self._shared: dict[int, list] = {}
        self.fallback_reason: str | None = None
        #: Last *pooled* build's telemetry (None until one has run).
        self.last_result: ParallelBuildResult | None = None

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        rows = np.asarray(rows, dtype=np.int64)
        n_tasks = min(self.n_processes, -(-len(rows) // self.batch_size))
        if n_tasks < 2 or not self._ensure_executor():
            return self._sequential(shard, rows, grad, hess)
        executor = self._executor
        assert executor is not None  # _ensure_executor() just built it
        try:
            entry = self._entry(shard)
        except (OSError, ValueError) as exc:
            self._disable(f"shared memory unavailable ({exc})")
            return self._sequential(shard, rows, grad, hess)
        self._refresh_gradients(entry, grad, hess)
        shared: SharedShard = entry[1]
        chunks = np.array_split(rows, n_tasks)
        started = wall_clock()
        try:
            futures = [
                executor.submit(
                    build_into_slot, shared.manifest, slot, chunk, self.sparse
                )
                for slot, chunk in enumerate(chunks)
            ]
            batch_seconds = [future.result() for future in futures]
        except BrokenProcessPool:
            self._disable("process pool broke")
            return self._sequential(shard, rows, grad, hess)
        histogram = shared.reduce(n_tasks, self.pool)
        wall = wall_clock() - started
        self.last_result = ParallelBuildResult(
            histogram=histogram,
            n_batches=n_tasks,
            batch_seconds=tuple(batch_seconds),
            span_seconds=simulate_span(batch_seconds, self.n_processes),
            wall_seconds=wall,
            serial_seconds=sum(batch_seconds),
            backend="process",
        )
        return histogram, wall

    def _sequential(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        out = self.pool.acquire(shard.n_features, shard.n_bins)
        histogram = self.kernel(shard, rows, grad, hess, out=out)
        return histogram, wall_clock() - started

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> bool:
        if self._executor is not None:
            return True
        if self.fallback_reason is not None:
            return False
        # fork is required so workers exist cheaply and before/after the
        # pool there is nothing to re-import; on spawn-only platforms the
        # strategy degrades to the sequential kernel.
        if "fork" not in multiprocessing.get_all_start_methods():
            self._disable("fork start method unavailable")
            return False
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_processes,
                mp_context=multiprocessing.get_context("fork"),
            )
        except OSError as exc:  # pragma: no cover - resource exhaustion
            self._disable(f"could not start process pool ({exc})")
            return False
        return True

    def _entry(self, shard: BinnedShard) -> list:
        entry = self._shared.get(id(shard))
        if entry is None:
            shared = SharedShard(shard, n_slots=self.n_processes)
            entry = [shard, shared, None, None]
            self._shared[id(shard)] = entry
        return entry

    def _refresh_gradients(
        self, entry: list, grad: np.ndarray, hess: np.ndarray
    ) -> None:
        """Copy gradients into shared memory only when they changed.

        Trainers pass the same gradient arrays for every node of a tree,
        so an identity check skips the copy on all but the first build of
        each (shard, round).
        """
        if entry[2] is grad and entry[3] is hess:
            return
        entry[1].set_gradients(grad, hess)
        entry[2] = grad
        entry[3] = hess

    def _disable(self, reason: str) -> None:
        self.fallback_reason = reason
        warnings.warn(
            f"process-parallel histogram build disabled: {reason}; "
            "falling back to the sequential kernel",
            RuntimeWarning,
            stacklevel=3,
        )
        self._shutdown()

    def _shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for entry in self._shared.values():
            entry[1].close()
        self._shared.clear()

    def release(self, histogram: GradientHistogram) -> None:
        self.pool.release(histogram)

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        self._shutdown()
        self.pool.clear()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ProcessParallelBuildStrategy(batch_size={self.batch_size}, "
            f"n_processes={self.n_processes}, sparse={self.sparse}, "
            f"fallback_reason={self.fallback_reason!r})"
        )


def resolve_build_strategy(
    config: TrainConfig,
    *,
    sparse: bool,
    pool: HistogramBufferPool | None = None,
) -> HistogramBuildStrategy:
    """Choose the build strategy for a fit.

    ``config.parallel_backend`` picks the execution style:

    * ``"simulated"`` (default) — the serial kernels.  Section 5.2 batch
      construction with span accounting is an explicit
      ``BatchedBuildStrategy`` passed as a trainer's ``build_strategy``.
    * ``"threads"`` — batch construction on a real thread pool
      (GIL-capped; charged real wall-clock).
    * ``"process"`` — :class:`ProcessParallelBuildStrategy` on
      ``config.n_processes`` real cores (``n_processes=1`` falls back to
      the plain kernel).

    Args:
        config: Supplies ``batch_size`` / ``n_threads`` / ``n_processes``
            / ``parallel_backend``.
        sparse: Use the Algorithm 2 kernel (else the dense scan).
        pool: Optional buffer pool for strategies that can recycle
            released histograms.
    """
    backend = config.parallel_backend
    if backend == "process" and config.n_processes > 1:
        return ProcessParallelBuildStrategy(
            batch_size=config.batch_size,
            n_processes=config.n_processes,
            sparse=sparse,
            pool=pool,
        )
    if backend == "threads":
        return BatchedBuildStrategy(
            batch_size=config.batch_size,
            n_threads=config.n_threads,
            sparse=sparse,
            real_threads=True,
        )
    if sparse:
        return SparseBuildStrategy(pool=pool)
    return DenseBuildStrategy(pool=pool)
