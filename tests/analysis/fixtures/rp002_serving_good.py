"""Known-good RP002 serving twin: instants come from the serving seam.

Same module shape as the bad fixture, but every instant flows through
:mod:`repro.serving.clock`, which reads the repo's one clock seam.
"""

from repro.serving import clock


def admit() -> float:
    return clock.now()


def batch_deadline(delay_s: float) -> clock.Deadline:
    return clock.Deadline.after(delay_s)


def stamp_ns() -> int:
    return int(clock.now() * 1e9)
