"""Waiting-time distributions for a random word to become a superpattern.

Letters are drawn i.i.d. uniformly from {1..d}; the waiting time is the first
length at which the accumulated prefix contains every length-k pattern.  For
(d, k) = (2, 2) and (3, 3) the exact distribution comes from one place: the
rational generating function returned by `waiting_time_gf`, whose Maclaurin
coefficients are the PMF (`pmf_table`) and whose derivatives at 1 give the
moments.  Two independent routes check it: the closed-form PMFs
(`binary_pmf`, `ternary_pmf`) and exact counts of strict superpatterns by DP
over the containment automaton's states (`brute_force_pmf`).  A seeded Monte
Carlo simulator checks whole distributions; it draws random bytes in chunks
and expands each byte by exact rejection into several letters, so every
letter is exactly uniform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator, Optional

from .automaton import get_automaton
from .classify import count_formulas, count_strict_superpatterns
from .series import Polynomial, RationalFunction

__all__ = [
    "PmfTable",
    "SimSummary",
    "binary_pmf",
    "ternary_pmf",
    "brute_force_pmf",
    "simulate_tau",
    "pmf_table",
    "coupon_expectations",
    "binary_waiting_time_gf",
    "ternary_waiting_time_gf",
    "waiting_time_gf",
]

def binary_pmf(n: int) -> Fraction:
    """P(waiting time = n) for d = k = 2: (n-2) / 2^(n-1) from n = 3 on.

    A binary word first becomes a superpattern at n exactly when its first
    n-1 letters form two runs and the n-th letter completes 121 or 212; there
    are 2(n-2) such words among the 2^n.
    """
    if n < 1:
        raise ValueError("the waiting time is supported on positive lengths")
    if n < 3:
        return Fraction(0)
    return Fraction(n - 2, 2 ** (n - 1))


def ternary_pmf(n: int) -> Fraction:
    """P(waiting time = n) for d = k = 3: the count_formulas(n).s_total strict
    superpatterns of length n among the 3^n words, from n = 7 on.

    That count is 6 * sum_{m=7}^{n} [(m-4)^2 - 2] * C(n-2, m-2): each strict
    superpattern of length n arises from a strict minimal one of some length
    m by inserting n-m adjacent repeats anywhere but before the last letter,
    times the 6 letter relabelings.
    """
    if n < 1:
        raise ValueError("the waiting time is supported on positive lengths")
    if n < 7:
        return Fraction(0)
    return Fraction(count_formulas(n).s_total, 3**n)


def brute_force_pmf(d: int, k: int, n: int, budget: Optional[int] = None) -> Fraction:
    """Oracle PMF value: the strict superpatterns of length n over d^n, counted
    by the transfer-matrix DP over the containment automaton (independent of
    the closed forms); the word-space budget still caps n."""
    return Fraction(count_strict_superpatterns(d, k, n, budget), d**n)


@dataclass(frozen=True)
class SimSummary:
    """Result of a seeded simulation run; identical inputs reproduce it bit
    for bit."""

    d: int
    k: int
    trials: int
    seed: int
    sample_mean: float
    sample_variance: float
    histogram: dict[int, int]


_MASK64 = (1 << 64) - 1
_TRIALS_PER_BLOCK = 1 << 16
_CHUNK_BYTES = 512


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _block_seed(seed: int, block_index: int) -> int:
    return _splitmix64(_splitmix64(seed & _MASK64) + block_index)


def _letter_decoder(d: int) -> tuple[int, Callable[[bytes], Iterable[int]]]:
    """Return (width, expand): expand maps random bytes, read as `width`-byte
    little-endian units, to exactly uniform letters on {1..d}.

    One unit holds j base-d digits, j the largest value <= 8 with d^j at most
    the number of unit values.  A unit below the largest multiple of d^j that
    fits is accepted and yields the j digits of its residue mod d^j, least
    significant first, each plus one; any other unit is rejected and yields
    nothing.  Every digit string is hit by the same number of accepted units,
    so the letters are exactly uniform and independent.  Below d = 256 the
    unit is one byte, every letter fits in a byte value, and a chunk expands at
    C level through a 256-entry table; wider alphabets take wider units.
    """
    width = max(1, ((d - 1).bit_length() + 7) // 8)
    values = 256**width
    j = 1
    while j < 8 and d ** (j + 1) <= values:
        j += 1
    limit = values // d**j * d**j

    def digits(unit: int) -> list[int]:
        letters = []
        for _ in range(j):
            unit, r = divmod(unit, d)
            letters.append(r + 1)
        return letters

    if d < 256:
        lookup = [bytes(digits(b)) if b < limit else b"" for b in range(256)].__getitem__
        return 1, lambda chunk: b"".join(map(lookup, chunk))

    def expand(chunk: bytes) -> list[int]:
        units = (int.from_bytes(chunk[i : i + width], "little") for i in range(0, len(chunk), width))
        return [a for u in units if u < limit for a in digits(u)]

    return width, expand


def _letter_stream(d: int, rng: random.Random) -> Iterator[int]:
    """Endless stream of exactly uniform letters on {1..d}, decoded from
    chunks of at most _CHUNK_BYTES bytes drawn with `rng.randbytes`."""
    width, expand = _letter_decoder(d)
    draw = partial(rng.randbytes, _CHUNK_BYTES // width * width)
    return chain.from_iterable(map(expand, iter(draw, None)))


def simulate_tau(d: int, k: int, trials: int, seed: int) -> SimSummary:
    """Estimate the waiting-time distribution from `trials` independent runs.

    Trials are grouped into fixed-size blocks; block i draws from its own
    generator seeded by mixing (seed, i), so the outcome is independent of
    any evaluation order and reruns are bit-identical.  Each block reads one
    letter stream (see `_letter_decoder`): random bytes in chunks, each byte
    expanded by exact rejection into several letters, every one exactly
    uniform on {1..d}.  A trial runs on from where the previous one stopped;
    the letters left over when a block's trials are done are discarded.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if k > d:
        raise ValueError(f"no k={k} superpattern exists over a {d}-letter alphabet")
    auto = get_automaton(d, k)
    step = auto.step
    transitions = auto.transitions
    accepting = auto.accepting
    histogram: dict[int, int] = {}

    for block_index, block_start in enumerate(range(0, trials, _TRIALS_PER_BLOCK)):
        remaining = min(_TRIALS_PER_BLOCK, trials - block_start)
        state = 0
        t = 0
        for a in _letter_stream(d, random.Random(_block_seed(seed, block_index))):
            t += 1
            ns = transitions[state][a]
            if ns < 0:
                ns = step(state, a)
            state = ns
            if accepting[state]:
                histogram[t] = histogram.get(t, 0) + 1
                remaining -= 1
                if not remaining:
                    break
                state = 0
                t = 0

    mean = Fraction(sum(n * c for n, c in histogram.items()), trials)
    if trials > 1:
        variance = sum(c * (n - mean) ** 2 for n, c in histogram.items()) / (trials - 1)
    else:
        variance = Fraction(0)
    return SimSummary(
        d=d,
        k=k,
        trials=trials,
        seed=seed,
        sample_mean=float(mean),
        sample_variance=float(variance),
        histogram=dict(sorted(histogram.items())),
    )


@dataclass(frozen=True)
class PmfTable:
    """Exact waiting-time PMF truncated at n_max, with running partial sums.

    entries[n] is P(tau = n) for 1 <= n <= n_max (zero below the support);
    cumulative[n] is P(tau <= n).  The mass beyond the truncation is kept as
    the exact `tail` rather than renormalising: the support is infinite.
    """

    d: int
    k: int
    n_max: int
    entries: dict[int, Fraction]
    cumulative: dict[int, Fraction]

    @property
    def tail(self) -> Fraction:
        return 1 - self.cumulative[self.n_max]


def pmf_table(d: int, n_max: int) -> PmfTable:
    """Tabulate the exact PMF (with k = d) from the Maclaurin coefficients of
    waiting_time_gf(d).  The support starts at the lowest power of t in the
    generating function's numerator, the least superpattern length."""
    gf = waiting_time_gf(d)
    start = next(n for n, c in enumerate(gf.numerator.coefficients) if c)
    if n_max < start:
        raise ValueError(f"n_max must reach the least superpattern length {start}")
    probabilities = gf.series_coefficients(n_max)[1:]
    lengths = range(1, n_max + 1)
    return PmfTable(
        d=d,
        k=d,
        n_max=n_max,
        entries=dict(zip(lengths, probabilities)),
        cumulative=dict(zip(lengths, accumulate(probabilities))),
    )


def coupon_expectations(d: int, k: int) -> tuple[Fraction, Fraction]:
    """Coupon-collector baselines: expected draws to see every letter once
    (sum of d/j), and k times that, the expected time for k disjoint
    collections, which is the waiting time for all length-k words to appear
    as subsequences."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    single = sum(Fraction(d, j) for j in range(1, d + 1))
    return single, k * single


def binary_waiting_time_gf() -> RationalFunction:
    """Generating function of the d = k = 2 waiting time: t^3 / (2 - t)^2."""
    return RationalFunction(Polynomial.monomial(3), Polynomial([2, -1]) ** 2)


def ternary_waiting_time_gf() -> RationalFunction:
    """Generating function of the d = k = 3 waiting time:
    2 t^7 (16 t^2 - 63 t + 63) / ((3 - t)^5 (3 - 2t)^3)."""
    numerator = Polynomial.monomial(7, 2) * Polynomial([63, -63, 16])
    denominator = Polynomial([3, -1]) ** 5 * Polynomial([3, -2]) ** 3
    return RationalFunction(numerator, denominator)


def waiting_time_gf(d: int) -> RationalFunction:
    """Generating function of the d = k waiting time.  The one place that
    says which alphabets are solved (d = 2 and d = 3); pmf_table and the
    moments read it."""
    if d == 2:
        return binary_waiting_time_gf()
    if d == 3:
        return ternary_waiting_time_gf()
    raise ValueError("waiting-time generating functions are available for d = 2 and d = 3 only")
