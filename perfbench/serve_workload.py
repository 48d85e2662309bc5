"""The serve phase of each workload: NDJSON over loopback TCP with hot swaps.

A seeded synthetic ensemble (random full-depth trees; no training code
runs) is served by :class:`repro.serving.ServingServer`, hosted in this
process, on request rows drawn from the workload's held-out split.
:mod:`serve_client`, a separate process, drives it over two connections:
first a bursty open loop at a fixed absolute rate while this process
swaps the served model between two artifacts, then a closed loop at
saturation.  Every response is checked afterwards against
``FlatEnsemble.predict_raw`` of the model version stamped on it.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable

import numpy as np

from repro.boosting.model import GBDTModel
from repro.serving import ModelStore, ServingConfig, ServingRuntime, ServingServer
from repro.tree.tree import RegressionTree

from common import Outcome, median, percentile

#: Serve-phase parameters (recorded in every result's provenance).  The
#: phases' shares are of the run's ``--seconds``.
PARAMS = {
    "rows": "held-out split",
    "request_lines": 4096,
    "n_trees": 64,
    "max_depth": 7,
    "connections": 2,
    "open_rows_per_s": 200.0,
    "open_burst_rows": 6,
    "open_share": 0.35,
    "swap_period_s": 0.5,
    "rounds": 5,
    "closed_share": 0.12,
    "closed_window": 8,
}

CLIENT = Path(__file__).with_name("serve_client.py")


def synthetic_model(
    rng: np.random.Generator, n_features: int, lo: float, hi: float
) -> GBDTModel:
    """Full random trees with thresholds inside the data's value range."""
    depth = PARAMS["max_depth"]
    trees = []
    for _ in range(PARAMS["n_trees"]):
        tree = RegressionTree(max_depth=depth)
        internal = (1 << (depth - 1)) - 1
        for node in range(internal):
            feature = int(rng.integers(0, n_features))
            tree.set_split(node, feature, float(rng.uniform(lo, hi)))
        for node in range(internal, tree.max_nodes):
            tree.set_leaf(node, float(rng.normal(scale=0.1)))
        trees.append(tree)
    return GBDTModel(
        trees=trees, base_score=0.0, loss_name="logistic", n_features=n_features
    )


def open_bursts(rng: np.random.Generator, seconds: float, n_lines: int) -> list:
    """``[offset_s, [line ids]]`` bursts at a fixed absolute rate.

    Bursts hold ``open_burst_rows`` requests.  The gaps between them are
    spread evenly over [0.75, 1.25] times their mean and shuffled by
    ``rng``: every seed offers the same load with the same burstiness,
    in a different order.
    """
    size, rate = PARAMS["open_burst_rows"], PARAMS["open_rows_per_s"]
    n_bursts = max(1, round(seconds * rate / size))
    gaps = np.linspace(0.75, 1.25, n_bursts) * (seconds / n_bursts)
    offsets = np.concatenate([[0.0], np.cumsum(rng.permutation(gaps))[:-1]])
    return [
        [float(offset), rng.integers(0, n_lines, size=size).tolist()]
        for offset in offsets
    ]


@dataclass
class Session:
    """One ready-to-serve set-up: inputs, artifacts and a listening server."""

    X: object  # CSRMatrix of the request rows, in line order
    lines: list
    artifacts: list
    store: ModelStore
    runtime: ServingRuntime
    server: ServingServer

    async def close(self) -> None:
        await self.server.close()
        self.store.close()


async def set_up(test, seed: int, work: Path) -> Session:
    """Encode requests from ``test``'s rows, write both artifacts, load one,
    listen."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, test.n_instances, size=PARAMS["request_lines"])
    X = test.take(rows).X
    indices, values, bounds = X.indices.tolist(), X.data.tolist(), X.indptr.tolist()
    lines = [
        json.dumps({"features": list(zip(indices[lo:hi], values[lo:hi]))})
        for lo, hi in zip(bounds, bounds[1:])
    ]
    lo, hi = float(X.data.min()), float(X.data.max())
    artifacts = []
    for k in range(2):
        path = work / f"serve-model-{k}.json"
        synthetic_model(np.random.default_rng([seed, k]), X.n_cols, lo, hi).save(path)
        artifacts.append(str(path))
    store = ModelStore()
    store.load(artifacts[0])
    runtime = ServingRuntime(store, ServingConfig(queue_limit=1 << 16))
    server = ServingServer(runtime)
    await server.start()
    return Session(X, lines, artifacts, store, runtime, server)


async def drive(
    session: Session,
    seed: int,
    seconds: float,
    work: Path,
    outcome: Outcome,
    interlude: Callable[[int], Awaitable[None]] | None = None,
):
    """Run the client against the session; swap models during open loops.

    The open and closed loops are split into ``rounds``; ``interlude(k)``,
    if given, runs before round ``k`` while the client waits.  Returns the
    client's records and the ``(version, artifact, seconds)`` of every swap.
    """
    rng = np.random.default_rng([seed, 2])
    rounds = PARAMS["rounds"]
    plan = {
        "host": session.server.host,
        "port": session.server.port,
        "connections": PARAMS["connections"],
        "lines": session.lines,
        "rounds": [
            {
                "open_bursts": open_bursts(
                    rng, PARAMS["open_share"] * seconds / rounds, len(session.lines)
                ),
                "closed_seconds": PARAMS["closed_share"] * seconds / rounds,
            }
            for _ in range(rounds)
        ],
        "closed_window": PARAMS["closed_window"],
    }
    plan_path, out_path = work / "serve-plan.json", work / "serve-out.json"
    plan_path.write_text(json.dumps(plan))
    swaps = [(1, session.artifacts[0], None)]
    swapping = asyncio.Event()

    async def swapper() -> None:
        started = time.perf_counter()
        k = 0
        while swapping.is_set():
            k += 1
            delay = started + k * PARAMS["swap_period_s"] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if not swapping.is_set():
                return
            path = session.artifacts[k % 2]
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                version = await session.runtime.swap(path)
            except Exception as exc:  # counted; serving goes on with the old model
                outcome.failed += 1
                outcome.problems.append(f"swap to {path} failed: {exc!r}")
                continue
            swaps.append((version.version, path, time.perf_counter() - t0))

    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(CLIENT), str(plan_path), str(out_path),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
    )
    task = None

    async def follow(until: str) -> None:
        """Read the client's announcements up to ``until``."""
        nonlocal task
        async for raw in proc.stdout:
            word = raw.decode().strip()
            if word == "open":
                swapping.set()
                task = asyncio.create_task(swapper())
            elif word == "closed" and task is not None:
                swapping.clear()
                await task
                task = None
            if word == until:
                return
        raise RuntimeError(f"serve client ended before printing {until!r}")

    try:
        for k in range(rounds):
            if interlude is not None:
                await interlude(k)
            proc.stdin.write(b"go\n")
            await proc.stdin.drain()
            await asyncio.wait_for(follow("paused"), timeout=2 * seconds + 30)
        proc.stdin.close()
        await asyncio.wait_for(follow("done"), timeout=60)
    finally:
        swapping.clear()
        if task is not None:
            await task
        if not proc.stdin.is_closing():
            proc.stdin.close()
        if proc.returncode is None:
            try:
                await asyncio.wait_for(proc.wait(), timeout=30)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"serve client exited with code {proc.returncode}")
    records = json.loads(out_path.read_text())
    return records, swaps


def check(session: Session, records: dict, swaps: list, outcome: Outcome) -> list:
    """Correctness gate over every response; returns the parsed open loop.

    Each served ``raw`` must equal, bit for bit, ``predict_raw`` of the
    artifact whose version is stamped on the response, and versions must
    never go backwards on a connection or across batches.
    """
    artifact_of = {version: path for version, path, _ in swaps}
    expected = {}
    for path in session.artifacts:
        model = GBDTModel.load(path)
        expected[path] = model.compiled().predict_raw(
            session.X, base_score=model.base_score
        )
    # In send order: the rounds interleave open and closed loops.
    everything = sorted(
        records["open"] + records["closed"]["records"], key=lambda r: r["sent"]
    )
    outcome.attempted += len(everything)
    last_version: dict[int, int] = {}
    batch_version: dict[int, int] = {}
    for record in everything:
        response = json.loads(record["resp"])
        record["response"] = response
        bad = not response.get("ok")
        if not bad:
            version = response["version"]
            path = artifact_of.get(version)
            bad |= not outcome.check(
                path is not None and response["raw"] == expected[path][record["line"]],
                f"line {record['line']}: raw {response['raw']!r} is not "
                f"version {version}'s score",
            )
            conn = record["conn"]
            bad |= not outcome.check(
                version >= last_version.get(conn, 0),
                f"connection {conn} went back to version {version}",
            )
            bad |= not outcome.check(
                batch_version.setdefault(response["batch_seq"], version) == version,
                f"batch {response['batch_seq']} mixed model versions",
            )
            last_version[conn] = max(version, last_version.get(conn, 0))
        outcome.failed += bad
    seqs = sorted(batch_version)
    outcome.check(
        all(batch_version[a] <= batch_version[b] for a, b in zip(seqs, seqs[1:])),
        "a later batch was scored on an older model version",
    )
    return [r for r in records["open"] if r["response"].get("ok")]


def serve_metrics(records: dict, served: list) -> dict[str, float]:
    """End-to-end serving metrics from the checked records."""
    latency = [(r["recv"] - r["due"]) * 1e3 for r in served]
    closed = records["closed"]
    return {
        "serve_p50_ms": percentile(latency, 50),
        "serve_rows_per_s": len(closed["records"]) / closed["seconds"],
    }


def serve_layer_metrics(records: dict, served: list, swaps: list) -> dict[str, float]:
    """Per-layer serving metrics that come from the responses themselves."""
    every = [r["response"] for r in records["open"] + records["closed"]["records"]]
    ok = [r for r in every if r.get("ok")]
    batches = {r["batch_seq"]: r["batch_size"] for r in ok}
    latency = [(r["recv"] - r["due"]) * 1e3 for r in served]
    wire = [
        (r["recv"] - r["sent"]) * 1e3
        - r["response"]["queued_ms"]
        - r["response"]["score_ms"]
        for r in served
    ]
    return {
        "serving.queue_wait_ms": percentile([r["queued_ms"] for r in ok], 50),
        "serving.score_ms": percentile([r["score_ms"] for r in ok], 50),
        "serving.batch_rows_mean": sum(batches.values()) / len(batches),
        "serving.wire_ms": percentile(wire, 50),
        "serving.p90_ms": percentile(latency, 90),
        "serving.p99_ms": percentile(latency, 99),
        "serving.rejected": sum(r.get("error") == "rejected" for r in every),
        "serving.swap_ms": median(s * 1e3 for _, _, s in swaps[1:]),
        "bench.gen_late_p90_ms": percentile(
            [(r["sent"] - r["due"]) * 1e3 for r in records["open"]], 90
        ),
    }
