"""The latency tail: the highest percentile with at least ten samples beyond it."""

from __future__ import annotations

BEYOND = 10


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile that
    has at least ten samples beyond it.  With ten samples or fewer no
    percentile qualifies, and the maximum is returned with 0 beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n <= BEYOND:
        return xs[-1], 100.0, 0
    k = n - BEYOND
    return xs[k - 1], 100.0 * k / n, BEYOND
