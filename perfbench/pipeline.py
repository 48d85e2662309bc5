"""One workload run: set-ups, fits and serving, as a user of the package does.

Each workload trains with its own trainer and data (:mod:`fit_workloads`)
and serves a synthetic ensemble on its held-out rows
(:mod:`serve_workload`), so every run measures every end-to-end metric.

An untraced run sets up once and then runs the serve phase's rounds.
Before each round it sets up once more (a spare, closed again) and makes
a slice of the fits, which take :data:`FIT_SHARE` of ``--seconds`` in
all; so set-ups, fits and serving each sample the whole run, not one
stretch of it.  A traced run sets up once, makes an untraced and a traced
fit and serves with the tracer installed.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path

from common import Outcome, median, peak_rss_mb
from fit_workloads import FIT_WORKLOADS, FitLoop, data_digest, traced_fit_phase
from serve_workload import (
    PARAMS as SERVE_PARAMS,
    check,
    drive,
    serve_layer_metrics,
    serve_metrics,
    set_up,
)
from tracing import Tracer, layer_metrics

#: Share of ``--seconds`` the untraced run spends repeating the fit.
FIT_SHARE = 0.5


def params(name: str) -> dict:
    """Every parameter of a workload, for the provenance line."""
    return {
        **FIT_WORKLOADS[name].params(),
        "fit_share": FIT_SHARE,
        "serve": SERVE_PARAMS,
    }


async def _set_up(name: str, seed: int, work: Path):
    """Generate and split the inputs, then make the serving session ready."""
    train, test = FIT_WORKLOADS[name].make_data(seed)
    session = await set_up(test, seed, work)
    return train, test, session


async def _measure(name, seed, seconds, work, src_digest, outcome):
    setups, digests = [], set()

    async def timed_set_up():
        where = work / f"setup-{len(setups)}"
        where.mkdir()
        t0 = time.perf_counter()
        train, test, session = await _set_up(name, seed, where)
        setups.append(time.perf_counter() - t0)
        digests.add(data_digest((train, test)))
        return train, test, session

    train, test, session = await timed_set_up()
    try:
        fits = FitLoop(
            name, seed, FIT_SHARE * seconds, train, test, src_digest, outcome
        )

        async def interlude(k: int) -> None:
            # One more set-up and one slice of fits before each serve round,
            # so that every metric samples the whole run.
            *_, spare = await timed_set_up()
            await spare.close()
            fits.run((k + 1) / SERVE_PARAMS["rounds"])

        records, swaps = await drive(session, seed, seconds, work, outcome, interlude)
    finally:
        await session.close()
    outcome.check(len(digests) == 1, "same seed generated different inputs")
    outcome.metrics["setup_s"] = median(setups)
    fits.record()
    served = check(session, records, swaps, outcome)
    outcome.metrics.update(serve_metrics(records, served))
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()


async def _trace(name, seed, seconds, work, src_digest, tracer, outcome):
    with tracer.installed():
        train, test, session = await _set_up(name, seed, work)
    try:
        fit_layer = traced_fit_phase(
            name, seed, train, test, src_digest, tracer, outcome
        )
        with tracer.installed():
            records, swaps = await drive(session, seed, seconds, work, outcome)
    finally:
        await session.close()
    served = check(session, records, swaps, outcome)
    metrics = (
        layer_metrics(tracer)
        | fit_layer
        | serve_layer_metrics(records, served, swaps)
    )
    codec = {k: v for k, v in metrics.items() if k.startswith("compression.")}
    if FIT_WORKLOADS[name].compression_bits:
        outcome.check(
            codec["compression.values_encoded"] > 0,
            f"{name}: no codec call was traced with compression on",
        )
    else:
        outcome.check(
            not any(codec.values()), f"{name}: the codec ran with compression off"
        )
    outcome.layer = metrics


def run(
    name: str,
    seed: int,
    seconds: float,
    work: Path,
    src_digest: str,
    tracer: Tracer | None = None,
) -> Outcome:
    """One run of workload ``name``; traced when ``tracer`` is given."""
    outcome = Outcome()
    if tracer is None:
        asyncio.run(_measure(name, seed, seconds, work, src_digest, outcome))
    else:
        asyncio.run(_trace(name, seed, seconds, work, src_digest, tracer, outcome))
    return outcome
