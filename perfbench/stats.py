"""Summary statistics of a run: the tail rule and the geometric mean."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail(xs) -> tuple[float, float, int]:
    """Highest percentile of ``xs`` with at least ten samples beyond it.

    Returns ``(value, percentile, samples_beyond)``. With n sorted samples
    this is the (n-10)-th smallest, the nearest-rank percentile
    100 * (n-10) / n. With ten samples or fewer no percentile qualifies;
    the maximum is reported as p100 with no samples beyond it.
    """
    xs = sorted(xs)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, TAIL_BEYOND
