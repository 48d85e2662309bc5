"""Outside-in tracing: spans recorded around calls into each layer.

The program under test is not edited.  :class:`Tracer` rebinds the
public functions and methods of each layer (listed in :data:`TARGETS`)
to thin wrappers that record one :class:`Span` per call, then restores
the originals.  A function imported by name (``from ..compression.lowprec
import compress_blocked``) is rebound in every loaded ``repro.*`` module
that holds it, or its calls would escape the trace.

Spans stay in memory and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children; a group's busy time is the sum of its spans' self times, so
nested calls into another layer (the codec inside a PS push, the split
scan inside a PS pull) are charged to the layer that ran them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

#: Counter extractor: ``(args, kwargs, result) -> {counter: amount}``.
Counter = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One traced call: ``group`` is the layer-level name it counts under."""

    span_id: int
    parent_id: int
    group: str
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_touched(args: tuple, kwargs: dict, result: Any) -> dict:
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    return {"nodes": 1, "rows": 0 if rows is None else len(rows)}


def _encoded(args: tuple, kwargs: dict, result: Any) -> dict:
    flat = np.asarray(args[0] if args else kwargs["flat"])
    if result.__class__.__name__ == "BlockCompressedHistogram":
        n_blocks = int(result.scales.size)
        zero = int(np.count_nonzero(result.scales == 0.0))
    else:  # one scale for the whole piece
        n_blocks = 1
        zero = int(result.scale_max == 0.0)
    return {"values": int(flat.size), "blocks": n_blocks, "zero_blocks": zero}


def _transfer(args: tuple, kwargs: dict, result: Any) -> dict:
    stats = result[-1] if isinstance(result, tuple) else result
    return {
        "bytes_up": stats.bytes_up,
        "bytes_down": stats.bytes_down,
        "messages": stats.messages,
    }


def _rows_scored(args: tuple, kwargs: dict, result: Any) -> dict:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"rows": X.n_rows}


#: (group, module, qualified attribute, counter) for every traced call.
#: A dotted attribute is a method, wrapped on the class that defines it.
TARGETS: list[tuple[str, str, str, Counter | None]] = [
    ("datasets.generate", "repro.datasets.synthetic", "make_sparse_classification", None),
    ("datasets.generate", "repro.datasets.synthetic", "make_sparse_regression", None),
    ("datasets.partition", "repro.datasets.dataset", "train_test_split", None),
    ("datasets.partition", "repro.datasets.partition", "partition_rows", None),
    ("datasets.partition", "repro.datasets.partition", "BlockPartitioner.__init__", None),
    ("datasets.partition", "repro.datasets.partition", "BlockPartitioner.row_shard", None),
    ("datasets.partition", "repro.datasets.partition", "BlockPartitioner.block", None),
    ("sketch.propose", "repro.sketch.candidates", "propose_candidates", None),
    ("sketch.propose", "repro.sketch.candidates", "propose_candidates_weighted", None),
    ("sketch.propose", "repro.sketch.candidates", "propose_candidates_from_sketches", None),
    ("sketch.propose", "repro.sketch.quantile", "sketch_columns", None),
    ("sketch.propose", "repro.sketch.quantile", "sketch_columns_weighted", None),
    ("histogram.build", "repro.runtime.build", "DenseBuildStrategy.build", _rows_touched),
    ("histogram.build", "repro.runtime.build", "SparseBuildStrategy.build", _rows_touched),
    ("histogram.build", "repro.runtime.build", "BatchedBuildStrategy.build", _rows_touched),
    ("histogram.build", "repro.runtime.build", "ProcessParallelBuildStrategy.build", _rows_touched),
    ("compression.encode", "repro.compression.lowprec", "compress_flat", _encoded),
    ("compression.encode", "repro.compression.lowprec", "compress_blocked", _encoded),
    ("compression.decode", "repro.compression.lowprec", "decompress_flat", None),
    ("compression.decode", "repro.compression.lowprec", "decompress_blocked", None),
    ("ps.push", "repro.ps.group", "ParameterServerGroup.push_row", _transfer),
    ("ps.push", "repro.ps.group", "ParameterServerGroup.push_slab", _transfer),
    ("ps.push", "repro.ps.group", "ParameterServerGroup.push_window", _transfer),
    ("ps.push", "repro.ps.group", "ParameterServerGroup.push_window_rows", _transfer),
    ("ps.push", "repro.ps.group", "ParameterServerGroup.push_sketch", _transfer),
    ("ps.pull", "repro.ps.group", "ParameterServerGroup.pull_row", _transfer),
    ("ps.pull", "repro.ps.group", "ParameterServerGroup.pull_row_udf", _transfer),
    ("ps.pull", "repro.ps.group", "ParameterServerGroup.pull_sketches", _transfer),
    ("tree.split", "repro.tree.split", "best_split_in_range", None),
    ("tree.split", "repro.tree.split", "find_best_split", None),
    ("tree.split", "repro.tree.split", "combine_shard_decisions", None),
    ("tree.grow", "repro.tree.grower", "LayerwiseGrower.grow", None),
    ("distributed.fit", "repro.distributed.engine", "DistributedGBDT.fit", None),
    ("inference.compile", "repro.inference.flat", "FlatEnsemble.__init__", None),
    ("inference.predict", "repro.inference.flat", "FlatEnsemble.predict_raw", _rows_scored),
    ("serving.store_load", "repro.serving.store", "ModelStore.load", None),
]


class Tracer:
    """Records spans around the :data:`TARGETS` while installed.

    Usage::

        tracer = Tracer(run_id="fit-local-7")
        with tracer.installed():
            fit()
        tracer.busy("histogram.build")
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        #: Targets the program no longer has (renamed or removed).
        self.missing: set[str] = set()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, group: str, name: str, counter: Counter | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                stack[-1].span_id if stack else 0,
                group,
                name,
                time.perf_counter(),
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every target the program still has; skip (and note) the rest."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for group, module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if method not in getattr(owner, "__dict__", {}):
                self.missing.add(f"{module_name}.{attr}")
                continue
            if owner_name:
                traced = self._wrap(owner.__dict__[method], group, name, counter)
                self._set(owner, method, traced)
                continue
            original = module.__dict__[attr]
            traced = self._wrap(original, group, name, counter)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, traced)

    def uninstall(self) -> None:
        """Put every original back, most recent rebinding first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _by_id(self) -> dict[int, Span]:
        return {span.span_id: span for span in self.spans}

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        own = {span.span_id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent_id in own:
                own[span.parent_id] -= span.duration
        return own

    def busy(self, group: str) -> float:
        """Total self seconds of every span in ``group``."""
        own = self.self_times()
        return float(sum(own[s.span_id] for s in self.spans if s.group == group))

    def outermost(self, group: str) -> list[Span]:
        """Spans of ``group`` not nested inside another span of it."""
        by_id = self._by_id()
        found = []
        for span in self.spans:
            if span.group != group:
                continue
            parent = by_id.get(span.parent_id)
            while parent is not None and parent.group != group:
                parent = by_id.get(parent.parent_id)
            if parent is None:
                found.append(span)
        return found

    def count(self, group: str, counter: str | None = None) -> int:
        """Outermost calls of ``group``, or the sum of one of their counters."""
        spans = self.outermost(group)
        if counter is None:
            return len(spans)
        return int(sum(span.counts.get(counter, 0) for span in spans))

    def durations(self, group: str) -> list[float]:
        return [span.duration for span in self.outermost(group)]

    def write(self, path: str) -> None:
        """Write every span as one JSON line (called once, at run end)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(
                    json.dumps(
                        {
                            "run_id": self.run_id,
                            "span": span.span_id,
                            "parent": span.parent_id,
                            "group": span.group,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics every workload's traced run reports.

    Layers a workload does not run read exactly 0.
    """
    encoded_blocks = tracer.count("compression.encode", "blocks")
    predict_calls = tracer.count("inference.predict")
    compile_s = tracer.durations("inference.compile")
    load_s = tracer.durations("serving.store_load")
    return {
        "datasets.generate_s": tracer.busy("datasets.generate"),
        "datasets.partition_s": tracer.busy("datasets.partition"),
        "sketch.propose_s": tracer.busy("sketch.propose"),
        "sketch.calls": tracer.count("sketch.propose"),
        "histogram.build_s": tracer.busy("histogram.build"),
        "histogram.nodes_built": tracer.count("histogram.build", "nodes"),
        "histogram.rows_touched": tracer.count("histogram.build", "rows"),
        "compression.encode_s": tracer.busy("compression.encode"),
        "compression.decode_s": tracer.busy("compression.decode"),
        "compression.values_encoded": tracer.count("compression.encode", "values"),
        "compression.zero_block_frac": (
            tracer.count("compression.encode", "zero_blocks") / encoded_blocks
            if encoded_blocks
            else 0.0
        ),
        "ps.push_self_s": tracer.busy("ps.push"),
        "ps.pull_self_s": tracer.busy("ps.pull"),
        "ps.bytes_up": tracer.count("ps.push", "bytes_up")
        + tracer.count("ps.pull", "bytes_up"),
        "ps.bytes_down": tracer.count("ps.push", "bytes_down")
        + tracer.count("ps.pull", "bytes_down"),
        "ps.messages": tracer.count("ps.push", "messages")
        + tracer.count("ps.pull", "messages"),
        "tree.split_scan_s": tracer.busy("tree.split"),
        "tree.split_calls": tracer.count("tree.split"),
        "tree.grow_s": tracer.busy("tree.grow"),
        "distributed.self_s": tracer.busy("distributed.fit"),
        "inference.compile_s": float(np.median(compile_s)) if compile_s else 0.0,
        "inference.predict_s": tracer.busy("inference.predict"),
        "inference.rows_per_call": (
            tracer.count("inference.predict", "rows") / predict_calls
            if predict_calls
            else 0.0
        ),
        "serving.store_load_s": float(np.median(load_s)) if load_s else 0.0,
    }
