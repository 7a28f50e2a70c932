"""A fixed pure-Python loop that measures how fast the host runs Python now.

On a shared host, other tenants slow the cores themselves, by up to 1.8x in
spells from a fraction of a second to minutes long, and CPU time grows with
them.  The benchmark runs this loop between operations and scales each
operation's CPU time by REFERENCE_S / (the loop's time around it).  Times are
then seconds on a host where the loop takes REFERENCE_S.  The loop calls
nothing in the library, so no change to the library can move it.
"""

from __future__ import annotations

from time import process_time

# CPU seconds of one lap on a quiet 2-vCPU Xeon VM with Python 3.11: a unit,
# fixed once, that every scaled time is expressed in.
REFERENCE_S = 0.015
_TABLE = tuple((i * 37 + 11) % 101 for i in range(101))


def _loop(n: int = 100_000) -> int:
    table, x, total, seen = _TABLE, 1, 0, {}
    for i in range(n):
        x = table[(x + i) % 101]
        seen[x] = total
        total += x & 7
    return total


def lap() -> float:
    """CPU seconds of one run of the loop."""
    start = process_time()
    _loop()
    return process_time() - start


def scale(seconds: float, before: float, after: float) -> float:
    """CPU seconds measured between two laps, at the reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
