"""Summary statistics of the benchmark (pure functions, no repro imports).

The tail rule: a ``_tail`` figure is the highest whole percentile that
still has at least :data:`TAIL_BEYOND` samples strictly above its rank,
so a tail never rests on fewer than ten observations.
"""

from __future__ import annotations

import math

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile ``p`` with ``n * (1 - p/100) >= TAIL_BEYOND``.

    ``None`` when even the median leaves fewer than ``TAIL_BEYOND``
    samples beyond it (the tail is then undefined and not reported).
    """
    if n <= 0:
        return None
    p = math.floor(100 * (1 - TAIL_BEYOND / n) + 1e-9)
    return p if p >= 50 else None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (the value at rank ceil(p·n/100))."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, int] | None:
    """``(value, percentile)`` of the tail rule, or ``None`` if undefined."""
    p = tail_percentile(len(values))
    if p is None:
        return None
    return percentile(values, p), p


def geomean(values: list[float]) -> float:
    """Geometric mean of positive values."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Attempted / failed operation counts with the reasons for failure.

    Every operation is counted once; an operation fails when it raises,
    could not complete, or returns a result that does not match its
    reference.  Failures are never skipped.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failures.append(what)

    def check(self, what: str, got, want) -> bool:
        """Count one operation; it fails unless ``got == want``."""
        if got == want:
            self.ok()
            return True
        self.fail(f"{what}: got {got!r}, want {want!r}")
        return False

