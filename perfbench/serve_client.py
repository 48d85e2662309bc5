"""Load generator for each workload's serve phase (standard library only).

Runs as its own process so that sending and timing requests does not
compete with the server for the interpreter lock::

    python3 perfbench/serve_client.py PLAN.json OUT.json

The plan names the server's port, the request lines and a list of
rounds, each of two phases:

* ``open``: bursts of requests sent at fixed due times, whatever the
  server's progress.  Latency counts from the due time, so a stalled
  generator shows up as latency; how late each send was is recorded too.
* ``closed``: each connection keeps ``window`` requests outstanding for
  ``seconds`` and sends the next one as each response arrives.

The server answers each connection's lines in order, so the k-th response
read on a connection belongs to the k-th request sent on it.  Responses
are stored as received and parsed only after the clock stops.

The client starts each round when it reads a line on stdin and stops
early at end of input.  It prints ``open`` and ``closed`` as each phase
starts and ``paused`` when a round ends; after the last round it closes
its connections, writes OUT.json and prints ``done``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import sys
import time

clock = time.perf_counter


async def open_loop(conns, lines, bursts) -> list[dict]:
    """Send each burst at its due time; returns one record per request."""
    records = []
    for offset, line_ids in bursts:
        for line in line_ids:
            records.append({"line": line, "conn": len(records) % len(conns)})
    per_conn = [[r for r in records if r["conn"] == c] for c in range(len(conns))]

    async def read(conn: int) -> None:
        reader = conns[conn][0]
        for record in per_conn[conn]:
            record["resp"] = await reader.readline()
            record["recv"] = clock()

    readers = [asyncio.create_task(read(c)) for c in range(len(conns))]
    start = clock() + 0.05
    cursor = 0
    for offset, line_ids in bursts:
        delay = start + offset - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        for _ in line_ids:
            record = records[cursor]
            cursor += 1
            record["due"] = start + offset
            conns[record["conn"]][1].write(lines[record["line"]])
            record["sent"] = clock()
        for _, writer in conns:
            await writer.drain()
    await asyncio.gather(*readers)
    return records


async def closed_loop(conns, lines, seconds: float, window: int) -> dict:
    """Keep ``window`` requests in flight per connection for ``seconds``."""
    start = clock()
    stop_at = start + seconds
    done: list[dict] = []

    async def drive(conn: int) -> None:
        reader, writer = conns[conn]
        inflight: collections.deque = collections.deque()
        next_line = conn

        def send() -> None:
            nonlocal next_line
            record = {"line": next_line % len(lines), "conn": conn, "sent": clock()}
            writer.write(lines[record["line"]])
            inflight.append(record)
            next_line += len(conns)

        for _ in range(window):
            send()
        await writer.drain()
        while inflight:
            response = await reader.readline()
            record = inflight.popleft()
            record["resp"] = response
            record["recv"] = clock()
            done.append(record)
            if clock() < stop_at:
                send()
                await writer.drain()

    await asyncio.gather(*(drive(c) for c in range(len(conns))))
    return {"start": start, "end": clock(), "records": done}


def _announce(word: str) -> None:
    sys.stdout.write(word + "\n")
    sys.stdout.flush()


async def main(plan_path: str, out_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    lines = [line.encode("utf-8") + b"\n" for line in plan["lines"]]
    conns = [
        await asyncio.open_connection(plan["host"], plan["port"])
        for _ in range(plan["connections"])
    ]
    opened: list[dict] = []
    closed: dict = {"seconds": 0.0, "records": []}
    try:
        for round_ in plan["rounds"]:
            if not sys.stdin.readline():  # the server process stopped the run
                break
            _announce("open")
            opened += await open_loop(conns, lines, round_["open_bursts"])
            _announce("closed")
            phase = await closed_loop(
                conns, lines, round_["closed_seconds"], plan["closed_window"]
            )
            closed["seconds"] += phase["end"] - phase["start"]
            closed["records"] += phase["records"]
            _announce("paused")
    finally:
        for _, writer in conns:
            writer.close()
        for _, writer in conns:
            await writer.wait_closed()
    for record in opened + closed["records"]:
        record["resp"] = record["resp"].decode("utf-8")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"open": opened, "closed": closed}, handle)
    _announce("done")


if __name__ == "__main__":
    asyncio.run(main(sys.argv[1], sys.argv[2]))
