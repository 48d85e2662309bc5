"""Helpers shared by the workloads: results, statistics, the work directory."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: Scratch space inside the checkout (artifacts, traces, model digests).
WORK_DIR = Path(".perfbench")


@dataclass
class Outcome:
    """What one workload run measured and how many operations failed.

    Units live in ``BENCHMARK.json``; ``run.py`` attaches them.
    """

    #: End-to-end metrics of an untraced run, by name.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced run, by name.
    layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> bool:
        """Record a correctness violation when ``ok`` is false."""
        if not ok:
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def model_digest(model) -> str:
    """sha256 of the model's serialized JSON (what ``save`` writes)."""
    return hashlib.sha256(json.dumps(model.to_dict()).encode("utf-8")).hexdigest()


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file of the package, path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def remembered_digest(key: str, digest: str) -> str:
    """The digest stored under ``key`` by an earlier run, storing ``digest``
    if there is none.

    The key includes the source digest, so runs of different code never
    compare against each other.
    """
    path = WORK_DIR / "model-digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known[key]
