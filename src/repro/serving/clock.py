"""The serving runtime's instants, read from the one clock seam.

Everything in :mod:`repro.serving` that needs an instant — admission
stamps, micro-batch flush deadlines, per-request SLO deadlines, stage
latencies — reads *this* module, never ``time.*`` directly.  The module
itself only calls :func:`repro.utils.timing.wall_clock`, the repo's one
RP002 clock seam, so serving latencies and training phase seconds come
from the same monotonic stream and are directly comparable in reports.
"""

from __future__ import annotations

from ..utils.timing import wall_clock

__all__ = ["Deadline", "now"]


def now() -> float:
    """Monotonic seconds; the serving runtime's authoritative instant.

    Same value stream as :func:`repro.utils.timing.wall_clock`, re-
    exported here so serving modules have exactly one import to audit.
    """
    return wall_clock()


class Deadline:
    """An absolute instant in the :func:`now` stream.

    Wraps the "remaining budget" arithmetic the batching loop and the
    admission control both need, so expiry checks read one way at every
    site::

        deadline = Deadline.after(0.002)   # flush at most 2 ms from now
        await asyncio.wait_for(queue.get(), timeout=deadline.remaining())
        if deadline.expired():
            ...
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """The instant ``seconds`` from now (clamped to >= 0)."""
        return cls(now() + max(0.0, seconds))

    def remaining(self) -> float:
        """Seconds left before expiry (0.0 once expired, never negative)."""
        return max(0.0, self.at - now())

    def expired(self) -> bool:
        """Whether the instant has passed."""
        return now() >= self.at

    def __repr__(self) -> str:
        return f"Deadline(at={self.at:.6f}, remaining={self.remaining():.6f})"
