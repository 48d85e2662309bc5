"""Tests for the histogram build strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TrainConfig
from repro.histogram.builder import (
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from repro.runtime.build import (
    BatchedBuildStrategy,
    DenseBuildStrategy,
    HistogramBuildStrategy,
    SparseBuildStrategy,
    resolve_build_strategy,
)


@pytest.fixture()
def gradients(tiny_shard, rng):
    grad = rng.normal(size=tiny_shard.n_rows)
    hess = rng.random(tiny_shard.n_rows) + 0.1
    return grad, hess


class TestStrategiesAgree:
    def test_dense_and_sparse_build_equal_histograms(
        self, tiny_shard, gradients
    ):
        grad, hess = gradients
        rows = np.arange(tiny_shard.n_rows)
        dense_hist, dense_s = DenseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        sparse_hist, sparse_s = SparseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)
        np.testing.assert_allclose(dense_hist.hess, sparse_hist.hess)
        assert dense_s >= 0.0 and sparse_s >= 0.0

    def test_batched_matches_serial(self, tiny_shard, gradients):
        grad, hess = gradients
        rows = np.arange(tiny_shard.n_rows)
        serial, _ = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        batched, span = BatchedBuildStrategy(
            batch_size=64, n_threads=4, sparse=True
        ).build(tiny_shard, rows, grad, hess)
        np.testing.assert_allclose(serial.grad, batched.grad)
        np.testing.assert_allclose(serial.hess, batched.hess)
        assert span >= 0.0

    def test_subset_of_rows(self, tiny_shard, gradients):
        grad, hess = gradients
        rows = np.arange(0, tiny_shard.n_rows, 3)
        dense_hist, _ = DenseBuildStrategy().build(tiny_shard, rows, grad, hess)
        sparse_hist, _ = SparseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)


class TestResolution:
    def test_resolve_serial(self):
        config = TrainConfig()
        assert isinstance(
            resolve_build_strategy(config, sparse=True), SparseBuildStrategy
        )
        assert isinstance(
            resolve_build_strategy(config, sparse=False), DenseBuildStrategy
        )

    def test_resolve_batched_carries_config(self):
        config = TrainConfig(
            parallel_backend="threads", batch_size=128, n_threads=5
        )
        strategy = resolve_build_strategy(config, sparse=False)
        assert isinstance(strategy, BatchedBuildStrategy)
        assert strategy.batch_size == 128
        assert strategy.n_threads == 5
        assert strategy.kernel is build_node_histogram_dense

    def test_kernel_choice_is_the_strategy(self):
        """The strategy itself says which kernel builds: no flag beside it."""
        assert DenseBuildStrategy().name == "dense"
        assert SparseBuildStrategy().name == "sparse"
        assert BatchedBuildStrategy(10, 2).kernel is build_node_histogram_sparse
        assert (
            BatchedBuildStrategy(10, 2, sparse=False).kernel
            is build_node_histogram_dense
        )
        for removed in ("dense", "dense_build"):
            assert not hasattr(DenseBuildStrategy(), removed)

    def test_strategies_are_the_abc(self):
        for strategy in (
            DenseBuildStrategy(),
            SparseBuildStrategy(),
            BatchedBuildStrategy(10, 2),
        ):
            assert isinstance(strategy, HistogramBuildStrategy)


class TestEngineIntegration:
    def test_explicit_strategy_overrides_flags(self, tiny_dataset):
        """A custom strategy passed to the trainer is actually used."""
        from repro import ClusterConfig
        from repro.distributed.engine import DistributedGBDT

        calls = []

        class Counting(SparseBuildStrategy):
            def build(self, shard, rows, grad, hess):
                calls.append(len(rows))
                return super().build(shard, rows, grad, hess)

        config = TrainConfig(
            n_trees=1, max_depth=3, n_split_candidates=8, compression_bits=0
        )
        trainer = DistributedGBDT(
            "dimboost",
            ClusterConfig(2, 2),
            config,
            build_strategy=Counting(),
        )
        trainer.fit(tiny_dataset)
        assert calls  # the engine routed every build through the strategy

    def test_leaf_wise_builds_through_the_fit_strategy(
        self, tiny_dataset, monkeypatch
    ):
        """GBDT(leaf_wise=True) builds with the strategy the fit resolved
        from its config, and the fit closes it."""
        import repro.boosting.gbdt as gbdt_module

        calls = []
        closed = []

        class Counting(SparseBuildStrategy):
            def build(self, shard, rows, grad, hess):
                calls.append(len(rows))
                return super().build(shard, rows, grad, hess)

            def close(self):
                closed.append(True)

        monkeypatch.setattr(
            gbdt_module,
            "resolve_build_strategy",
            lambda config, sparse: Counting(),
        )
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        trainer = gbdt_module.GBDT(config, leaf_wise=True)
        trainer.fit(tiny_dataset)
        assert len(calls) == sum(r.n_histograms for r in trainer.history) > 0
        assert closed == [True]

    def test_grower_uses_strategy(self, tiny_shard, tiny_candidates, gradients):
        from repro.tree.grower import LayerwiseGrower

        grad, hess = gradients
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        default = LayerwiseGrower(tiny_shard, tiny_candidates, config)
        assert isinstance(default.build_strategy, SparseBuildStrategy)
        custom = LayerwiseGrower(
            tiny_shard,
            tiny_candidates,
            config,
            build_strategy=SparseBuildStrategy(),
        )
        grown = custom.grow(grad, hess)
        assert grown.tree.n_leaves >= 1


class TestBackendResolution:
    def test_process_backend_resolves_process_strategy(self):
        from repro.runtime.build import ProcessParallelBuildStrategy

        config = TrainConfig(
            parallel_backend="process", n_processes=4, batch_size=64
        )
        strategy = resolve_build_strategy(config, sparse=True)
        try:
            assert isinstance(strategy, ProcessParallelBuildStrategy)
            assert strategy.n_processes == 4
            assert strategy.batch_size == 64
            assert strategy.sparse is True
        finally:
            strategy.close()

    def test_process_backend_single_process_stays_serial(self):
        config = TrainConfig(parallel_backend="process", n_processes=1)
        assert isinstance(
            resolve_build_strategy(config, sparse=True), SparseBuildStrategy
        )
        assert isinstance(
            resolve_build_strategy(config, sparse=False), DenseBuildStrategy
        )

    def test_threads_backend_resolves_real_threads(self):
        config = TrainConfig(parallel_backend="threads", n_threads=3)
        strategy = resolve_build_strategy(config, sparse=True)
        assert isinstance(strategy, BatchedBuildStrategy)
        assert strategy.real_threads is True
        assert strategy.n_threads == 3

    def test_simulated_batched_keeps_span_accounting(
        self, tiny_shard, gradients
    ):
        """The simulated backend resolves to the serial kernel; Section
        5.2's span accounting is an explicit BatchedBuildStrategy, whose
        charged seconds are the simulated span."""
        config = TrainConfig(parallel_backend="simulated")
        assert isinstance(
            resolve_build_strategy(config, sparse=True), SparseBuildStrategy
        )
        strategy = BatchedBuildStrategy(batch_size=64, n_threads=4)
        assert strategy.real_threads is False
        grad, hess = gradients
        _, seconds = strategy.build(
            tiny_shard, np.arange(tiny_shard.n_rows), grad, hess
        )
        assert strategy.last_result is not None
        assert seconds == strategy.last_result.span_seconds

    def test_invalid_backend_and_processes_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            TrainConfig(parallel_backend="gpu")
        with pytest.raises(ConfigError):
            TrainConfig(n_processes=0)

    def test_release_and_close_are_safe_noops_by_default(self, tiny_shard, gradients):
        grad, hess = gradients
        strategy = SparseBuildStrategy()
        histogram, _ = strategy.build(
            tiny_shard, np.arange(tiny_shard.n_rows), grad, hess
        )
        strategy.release(histogram)  # no pool: nothing to recycle
        strategy.close()


class TestOneBuildKnob:
    """``build_strategy`` is the only way to pick a build path: the
    boolean knobs beside it are gone, not aliased."""

    @pytest.mark.parametrize("keyword", ["sparse_build", "use_index"])
    def test_gbdt_rejects_removed_keywords(self, keyword):
        from repro.boosting.gbdt import GBDT

        with pytest.raises(TypeError, match=keyword):
            GBDT(**{keyword: False})
        assert not hasattr(GBDT(), keyword)

    @pytest.mark.parametrize("keyword", ["sparse_build", "use_index", "batched"])
    def test_grower_rejects_removed_keywords(
        self, tiny_shard, tiny_candidates, keyword
    ):
        from repro.tree.grower import LayerwiseGrower

        with pytest.raises(TypeError, match=keyword):
            LayerwiseGrower(
                tiny_shard, tiny_candidates, TrainConfig(), **{keyword: True}
            )

    @pytest.mark.parametrize(
        "keyword",
        ["sparse_build", "use_index", "batched_build", "distributed_sketch"],
    )
    @pytest.mark.parametrize("system", ["dimboost", "mllib"])
    def test_distributed_rejects_removed_keywords(self, system, keyword):
        from repro.distributed.engine import DistributedGBDT

        with pytest.raises(TypeError, match=keyword):
            DistributedGBDT(system, **{keyword: True})

    def test_resolve_rejects_batched(self):
        with pytest.raises(TypeError, match="batched"):
            resolve_build_strategy(TrainConfig(), sparse=True, batched=True)

    def test_removed_views_raise_attribute_error(self, tiny_candidates):
        from repro import ClusterConfig
        from repro.distributed.backends import make_backend

        backend = make_backend(
            "xgboost", ClusterConfig(2, 2), TrainConfig(), tiny_candidates
        )
        with pytest.raises(AttributeError):
            backend.dense_build
        with pytest.raises(AttributeError):
            DenseBuildStrategy().dense
