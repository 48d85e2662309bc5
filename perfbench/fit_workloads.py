"""The fit phase of each workload: one training call, repeated.

``fit-gender-8bit`` and ``fit-rcv1-raw`` run ``train_distributed`` on the
simulated parameter-server cluster; ``fit-local`` runs the
single-machine ``GBDT.fit``.  Every fit of a run trains on the same
seeded data, so every model it returns must serialize to the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from repro import GBDT, ClusterConfig, TrainConfig, train_distributed
from repro.boosting.metrics import logloss
import repro.datasets as datasets
from repro.ps.master import WorkerPhase
from repro.runtime.hooks import TrainerCallback

from common import Outcome, median, model_digest, percentile, remembered_digest
from tracing import Tracer

#: Boosting settings shared by every fit workload.
TREES, DEPTH, LEARNING_RATE = 3, 6, 0.3
#: A fit needs at least this many repeats per run (the same-seed check).
MIN_FITS = 2
#: Scale of the small fit that loads every code path before timing.
WARMUP_SCALE = 0.02

GENERATORS = {"gender": "gender_like", "rcv1": "rcv1_like"}


@dataclass(frozen=True)
class FitSpec:
    """One fit workload: its data, its trainer and its cluster."""

    dataset: str
    scale: float
    system: str | None  # None: single-machine GBDT
    n_workers: int = 0
    n_servers: int = 0
    compression_bits: int = 0

    def params(self) -> dict:
        return {
            **asdict(self),
            "n_trees": TREES,
            "max_depth": DEPTH,
            "learning_rate": LEARNING_RATE,
        }

    def make_data(self, seed: int, scale: float | None = None):
        # Called through the package so a traced run sees these calls.
        generate = getattr(datasets, GENERATORS[self.dataset])
        data = generate(scale=scale or self.scale, seed=seed)
        return datasets.train_test_split(data, seed=seed)

    def fit(self, train, seed: int, callbacks=()):
        """Train once; returns ``(model, DistributedResult or None)``."""
        config = TrainConfig(
            n_trees=TREES,
            max_depth=DEPTH,
            learning_rate=LEARNING_RATE,
            compression_bits=self.compression_bits,
            seed=seed,
        )
        if self.system is None:
            return GBDT(config).fit(train, callbacks=callbacks), None
        cluster = ClusterConfig(n_workers=self.n_workers, n_servers=self.n_servers)
        result = train_distributed(
            self.system, train, cluster, config, callbacks=callbacks
        )
        return result.model, result


FIT_WORKLOADS = {
    "fit-gender-8bit": FitSpec("gender", 0.25, "dimboost", 8, 8, compression_bits=8),
    "fit-rcv1-raw": FitSpec("rcv1", 0.3, "dimboost", 5, 5, compression_bits=0),
    "fit-local": FitSpec("rcv1", 0.3, None),
}


class PhaseWalls(TrainerCallback):
    """Sums the wall seconds each worker phase reports at its end."""

    def __init__(self) -> None:
        self.walls: dict[str, float] = defaultdict(float)

    def on_phase_end(self, phase, tree_index, charges, wall_seconds) -> None:
        self.walls[phase.value] += wall_seconds


def data_digest(split) -> str:
    """sha256 over the CSR arrays and labels of every part of ``split``."""
    digest = hashlib.sha256()
    for part in split:
        for array in (part.X.indptr, part.X.indices, part.X.data, part.y):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _gate(name, seed, src_digest, model, test, outcome, first=None) -> str:
    """Correctness checks on one fitted model; returns its digest."""
    digest = model_digest(model)
    ok = outcome.check(
        first is None or digest == first,
        f"{name}: model bytes differ between fits of one run",
    )
    key = f"{src_digest}:{name}:{seed}"
    ok &= outcome.check(
        remembered_digest(key, digest) == digest,
        f"{name}: model bytes differ from an earlier run with seed {seed}",
    )
    if first is None:
        loss = logloss(test.y, model.predict(test.X))
        base = 1.0 / (1.0 + math.exp(-model.base_score))
        prior = logloss(test.y, np.full(test.n_instances, base))
        ok &= outcome.check(
            math.isfinite(loss) and loss < prior,
            f"{name}: test logloss {loss} does not beat the prior {prior}",
        )
        outcome.metrics["test_logloss"] = loss
    if not ok:
        outcome.failed += 1
    return digest


class FitLoop:
    """Untraced fits of one workload, run in slices spread over a run.

    ``run(share)`` fits while the next fit, at the median wall so far,
    would keep the fits' total time within ``share`` of ``budget``.  The
    first slice makes at least one fit and the last at least
    :data:`MIN_FITS` in all, so a fit longer than a slice runs at the start
    and at the end of the run.
    """

    def __init__(self, name, seed, budget, train, test, src_digest, outcome):
        self.name, self.seed, self.budget = name, seed, budget
        self.train, self.test, self.src_digest = train, test, src_digest
        self.outcome = outcome
        self.spec = FIT_WORKLOADS[name]
        self.walls: list[float] = []
        self.spent = 0.0
        self.first: str | None = None
        self.stopped = False
        self.spec.fit(self.spec.make_data(seed, WARMUP_SCALE)[0], seed)

    def run(self, share: float) -> None:
        need = MIN_FITS if share >= 1.0 else 1
        while not self.stopped and (
            len(self.walls) < need
            or self.spent + median(self.walls) <= share * self.budget
        ):
            self.outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                model, _ = self.spec.fit(self.train, self.seed)
            except Exception:  # a failed fit is counted, then fitting stops
                self.outcome.failed += 1
                self.outcome.problems.append(traceback.format_exc(limit=3))
                self.stopped = True
                return
            self.walls.append(time.perf_counter() - t0)
            digest = _gate(
                self.name, self.seed, self.src_digest, model, self.test,
                self.outcome, self.first,
            )
            self.first = self.first or digest
            self.spent += time.perf_counter() - t0

    def record(self) -> None:
        """Record ``fit_wall_s``, the 10th percentile of the fits' walls.

        The host's speed shifts for seconds at a time, moving a whole slice
        of fits together; the fastest tenth of a run is steadier across
        runs than its median (spread 0.095 against 0.17 over eight runs of
        ``fit-rcv1-raw``), and a slower program moves it just the same.
        """
        if self.walls:
            self.outcome.metrics["fit_wall_s"] = percentile(self.walls, 10)


def traced_fit_phase(
    name: str, seed: int, train, test, src_digest: str, tracer: Tracer,
    outcome: Outcome,
) -> dict[str, float]:
    """Traced fit phase: an untraced fit, then a traced one of the same data.

    Returns the metrics only the fit can give: phase walls, the simulated
    cluster clock and the tracing overhead.
    """
    spec = FIT_WORKLOADS[name]
    spec.fit(spec.make_data(seed, WARMUP_SCALE)[0], seed)
    outcome.attempted += 2
    t0 = time.perf_counter()
    model, _ = spec.fit(train, seed)
    untraced_s = time.perf_counter() - t0
    first = _gate(name, seed, src_digest, model, test, outcome)

    phases = PhaseWalls()
    with tracer.installed():
        t0 = time.perf_counter()
        model, result = spec.fit(train, seed, callbacks=[phases])
        traced_s = time.perf_counter() - t0
    _gate(name, seed, src_digest, model, test, outcome, first)

    metrics = {
        f"runtime.{phase.value}.wall_s": phases.walls.get(phase.value, 0.0)
        for phase in WorkerPhase
    }
    phase_total = sum(phases.walls.values())
    metrics["runtime.unattributed_s"] = traced_s - phase_total
    outcome.check(
        phase_total <= traced_s,
        f"{name}: phase walls sum to {phase_total:.4f} s, "
        f"over the fit's {traced_s:.4f} s",
    )
    if result is not None:
        metrics["cluster.sim_comm_s"] = result.breakdown.communication
        metrics["cluster.sim_compute_s"] = result.breakdown.computation
        metrics["cluster.sim_loading_s"] = result.breakdown.loading
    metrics["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["bench.traced_fit_wall_s"] = traced_s
    return metrics
