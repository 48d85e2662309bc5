"""Run one benchmark workload and print its result as the last line.

Run from the repository root::

    python3 perfbench/run.py --workload fit-rcv1-raw --seed 3 --seconds 34 --trace 0

Every workload fits models and serves requests (see :mod:`pipeline`).
``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints every per-layer
metric (a layer the workload does not run reads 0).  The line before the
result records provenance: source revision, core count, Python and numpy
versions, workload parameters and seed.  Any failed correctness check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("fit-gender-8bit", "fit-rcv1-raw", "fit-local")


def _git_revision(root: Path) -> str | None:
    if not (root / ".git").exists():  # an exported tree has no revision
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _declared(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {src}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    end_to_end, per_layer = _declared(root)
    sys.path.insert(0, str(src))

    import numpy

    import pipeline
    from common import WORK_DIR, source_digest
    from tracing import Tracer

    src_digest = source_digest(src / "repro")
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    try:
        outcome = pipeline.run(
            args.workload, args.seed, args.seconds, work, src_digest, tracer
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(str(WORK_DIR / f"trace-{args.workload}-{args.seed}.jsonl"))

    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if tracer is None:
        declared, measured = end_to_end, outcome.metrics
    else:  # every per-layer metric; a layer that did not run reads 0
        declared, measured = per_layer, dict.fromkeys(per_layer, 0.0) | outcome.layer
    if set(measured) != set(declared):
        raise RuntimeError(
            "measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(declared))}"
        )
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": declared[name]}
            for name, value in measured.items()
        },
    }

    provenance = {
        "revision": _git_revision(root),
        "src_sha256": src_digest,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "params": pipeline.params(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    for target in sorted(tracer.missing if tracer is not None else ()):
        print(f"perfbench: trace target {target} not found", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
