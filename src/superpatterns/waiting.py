"""Waiting-time distributions for a random word to become a superpattern.

Letters are drawn i.i.d. uniformly from {1..d}; the waiting time is the first
length at which the accumulated prefix contains every length-k pattern.  For
(d, k) = (2, 2) and (3, 3) the exact distribution comes from one place: the
rational generating function returned by `waiting_time_gf`, whose Maclaurin
coefficients are the PMF (`pmf_table`) and whose expansion at t = 1 gives the
moments.  Two independent routes check it: the closed-form PMFs
(`binary_pmf`, `ternary_pmf`) and exact counts of strict superpatterns by the
word-space DP, which steps the containment automaton's minimal DFA for both
alphabets (`brute_force_pmf`).  A seeded Monte Carlo simulator checks whole
distributions; it draws random bytes in chunks, each byte standing by exact
rejection for several letters, so every letter is exactly uniform.  It runs
on the containment automaton's minimal DFA (`_dfa`, which the counting DP
shares), with two lookups per random byte: one in a (state, residue) table,
every row of which is built when the table is made, from the tables of
shorter letter strings, and one in a table of elapsed-letter codes, which
names the trial lengths a byte finishes.  Alphabets of up to 255 letters fit
in a byte.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from fractions import Fraction

from ._dfa import close_and_minimise
from ._value import _Value
from .classify import _least_length_bounds, count_formulas, count_strict_superpatterns
from .patterns import MAX_INSTANCES, BudgetExceededError
from .series import Polynomial, RationalFunction

__all__ = [
    "SimSummary",
    "binary_pmf",
    "ternary_pmf",
    "brute_force_pmf",
    "simulate_tau",
    "pmf_table",
    "coupon_expectations",
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


def brute_force_pmf(d: int, k: int, n: int) -> Fraction:
    """Oracle PMF value: the strict superpatterns of length n over d^n, counted
    by the word-space transfer-matrix DP (independent of the closed forms)."""
    return Fraction(count_strict_superpatterns(d, k, n), d**n)


class SimSummary(_Value):
    """Result of a seeded simulation run; identical inputs reproduce it bit
    for bit."""

    __slots__ = __match_args__ = ("d", "k", "trials", "seed", "sample_mean", "sample_variance", "histogram")
    d: int
    k: int
    trials: int
    seed: int
    sample_mean: float
    sample_variance: float
    histogram: dict[int, int]

    def __init__(
        self,
        d: int,
        k: int,
        trials: int,
        seed: int,
        sample_mean: float,
        sample_variance: float,
        histogram: dict[int, int],
    ) -> None:
        self._fill(d, k, trials, seed, sample_mean, sample_variance, histogram)


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


def _letters_per_byte(d: int) -> int:
    """The number j of letters, exactly uniform on {1..d}, that one random
    byte stands for: the largest value <= 8 with d^j <= 256.

    A byte below the largest multiple of d^j that fits is accepted and stands
    for the j base-d digits of its residue mod d^j, least significant first,
    each plus one; any other byte is rejected and stands for nothing.  Every
    digit string is hit by the same number of accepted bytes, so the letters
    are exactly uniform and independent.  Raises BudgetExceededError for
    d > 255, where a letter no longer fits in a byte.
    """
    if d > 255:
        raise BudgetExceededError(
            f"the simulator draws letters from single bytes, so d={d} is over 255;"
            f" for k >= 2 that alphabet also has d**k pattern instances, at or over"
            f" the cap of {MAX_INSTANCES}"
        )
    j = 1
    while j < 8 and d ** (j + 1) <= 256:
        j += 1
    return j


def _elapsed_cap(d: int, k: int) -> int:
    """The most letters a trial reads on the byte table's counting codes:
    four times the least waiting time, past which few trials run."""
    return 4 * _least_length_bounds(k, d)[0]


class _ByteTable:
    """The minimal DFA lifted from letters to random bytes, and the codes
    that count the trial lengths it reads.

    A byte that stands for the letters a_1..a_j (see `_letters_per_byte`)
    takes a state through j steps; each time the accepting state is reached a
    trial finishes and the next one starts from state 0.  An accepted byte b
    stands for the digits of its residue r = residues[b] = b mod d^j, and
    entry rows[s][r] is the end state when no trial finishes inside the byte.
    Otherwise it is a variant of the end state: an id from `states` up, with
    `offsets[id]` the letter offsets (1..j) at which trials finish, more
    than one only when j exceeds the least waiting time, as for k = 2 and
    d <= 4.  A variant's row is its end state's row, the same array object,
    so variants cost no table memory and the next byte reads on from the
    variant as from its end state.  The variants, fewer than d^j <= 256,
    come from state 0's tables below, so the states decide whether the ids
    fit the 16-bit rows.

    Every row is built at construction, in one pass over letter-string
    lengths L = 1..j: a state's length-L table, indexed by the last L letters
    of a byte as base-d digits, least significant first, is d slices, one per
    first letter, each the length-(L-1) table of the state that letter leads
    to, or of state 0 with a finish at that letter when it accepts.  The
    length-j tables are the rows.  The letters per byte are worked out
    before the closure, so an alphabet too wide for a byte fails at once.

    In the code table, steps[x][e] is the code after a byte that leads from
    code e to id x.  A code e up to cap + j says the running trial has read
    e letters; a state id takes e <= cap (`_elapsed_cap`, at least j - 1)
    to e + j, and past cap every byte leads to `spill`, on which `run`
    counts letters itself.  A variant takes e <= cap to a finish code, past
    spill, that names the trial lengths the byte completes (`finished`:
    e + the first offset, then the gaps between offsets) and the letters of
    the next trial it has read (`elapsed`); every row reads it as that
    count.  Ids with the same offsets share one row, a list, the faster to
    index.
    """

    def __init__(self, d: int, k: int):
        j = self.letters_per_byte = _letters_per_byte(d)
        rows, accept = close_and_minimise(d, k)
        width = d**j
        self.rejected = bytes(range(256 // width * width, 256))
        self.residues = bytes(b % width for b in range(256))
        n = self.states = len(rows)
        ids = "H" if n + 255 < 1 << 16 else "i"
        # The finish offsets by id (none for a state), and each variant's end
        # state by id - n.
        offsets: list[tuple[int, ...]] = [()] * n
        ends_of: list[int] = []
        variants: dict[tuple[int, tuple[int, ...]], int] = {}

        def finish_before(at: int, entry: int) -> int:
            """The id for `entry` with a trial finishing at offset `at`, ahead
            of the letters the entry covers."""
            key = (entry if entry < n else ends_of[entry - n], (at, *offsets[entry]))
            if key not in variants:
                variants[key] = len(offsets)
                ends_of.append(key[0])
                offsets.append(key[1])
            return variants[key]

        # State s's length-0 table: no letters lead anywhere but s.
        tables = [array(ids, [s]) for s in range(n)]
        for length in range(1, j + 1):
            restart = array(ids, [finish_before(j - length + 1, e) for e in tables[0]])
            built = []
            for ends in rows:
                out = array(ids, [0]) * d**length
                for a, end in enumerate(ends):
                    out[a::d] = restart if end == accept else tables[end]
                built.append(out)
            tables = built
        self.rows = tables + [tables[end] for end in ends_of]
        self.offsets = offsets

        cap = self.cap = max(_elapsed_cap(d, k), j - 1)
        spill = self.spill = cap + j + 1
        self.most = max(map(len, offsets))
        # Each finish code by (lengths, elapsed), numbered from spill + 1.
        codes: dict[tuple[tuple[int, ...], int], int] = {}

        def after(o: tuple[int, ...], e: int) -> int:
            """The code after a byte with finish offsets o, from code e <= cap."""
            if not o:
                return e + j
            key = (e + o[0], *(b - a for a, b in zip(o, o[1:]))), j - o[-1]
            return codes.setdefault(key, spill + 1 + len(codes))

        counting = {o: [after(o, e) for e in range(cap + 1)] for o in dict.fromkeys(offsets)}
        self.finished = [()] * (spill + 1) + [lengths for lengths, _ in codes]
        self.elapsed = [*range(spill + 1), *(e for _, e in codes)]
        shared = {o: row + [spill] * (j + 1) + [row[e] for _, e in codes] for o, row in counting.items()}
        self.steps = [shared[o] for o in offsets]

    def run(self, rng: random.Random, trials: int, lengths: Counter) -> None:
        """Count into `lengths` the lengths of the next `trials` trials, read
        from `rng.randbytes` chunks with the rejected bytes dropped and the
        rest mapped to their residues.

        Whole chunks are read with two lookups a byte, finish codes tallied
        in `hits`, while the block cannot end inside the chunk: a byte
        finishes at most `most` trials, and `hits` is recounted only when
        that bound reaches `trials`.  The last trials, and a trial past cap,
        are counted in `t`, byte by byte: from code 0, a byte's code names
        the lengths it finishes, less the letters read before it."""
        rows, steps, finished, elapsed = self.rows, self.steps, self.finished, self.elapsed
        j, cap, spill, most = self.letters_per_byte, self.cap, self.spill, self.most
        residues, rejected = self.residues, self.rejected
        hits = [0] * len(finished)
        # t: the letters of a trial past cap; late: the trials such trials
        # finished; room: the trials left, less all that the chunks since the
        # last recount could have finished.
        x = e = t = late = 0
        room = trials
        while True:
            chunk = rng.randbytes(_CHUNK_BYTES).translate(residues, rejected)
            reach = len(chunk) * most
            if room < reach:
                room = trials - late - sum(h * len(f) for h, f in zip(hits, finished))
                if room < reach:
                    break
            room -= reach
            for b in chunk:
                x = rows[x][b]
                e = steps[x][e]
                if e > cap:
                    if e > spill:
                        hits[e] += 1
                    elif e < spill:
                        t = e
                    elif (c := steps[x][0]) > spill:
                        f = finished[c]
                        lengths[t + f[0]] += 1
                        lengths.update(f[1:])
                        late += len(f)
                        e = elapsed[c]
                    else:
                        t += j
        for h, f in zip(hits, finished):
            if h:
                for n in f:
                    lengths[n] += h
        if not room:
            return
        if e != spill:
            t = elapsed[e]
        while True:
            for b in chunk:
                x = rows[x][b]
                c = steps[x][0]
                if c > spill:
                    f = finished[c]
                    for n in (t + f[0], *f[1:]):
                        lengths[n] += 1
                        room -= 1
                        if not room:
                            return
                    t = elapsed[c]
                else:
                    t += j
            chunk = rng.randbytes(_CHUNK_BYTES).translate(residues, rejected)


_byte_tables: dict[tuple[int, int], _ByteTable] = {}


def simulate_tau(d: int, k: int, trials: int, seed: int) -> SimSummary:
    """Estimate the waiting-time distribution from `trials` independent runs.

    Trials are grouped into fixed-size blocks; block i draws from its own
    generator seeded by mixing (seed, i), so the outcome is independent of
    any evaluation order and reruns are bit-identical.  Each block reads one
    letter stream (see `_letters_per_byte`): random bytes in chunks, each byte
    expanded by exact rejection into several letters, every one exactly
    uniform on {1..d}.  A trial runs on from where the previous one stopped;
    the letters left over when a block's trials are done are discarded.

    The stream runs through the containment automaton's minimal DFA
    (`_dfa.close_and_minimise`, built once per (d, k) and shared with the
    counting DP), with one table lookup per random byte (`_ByteTable`, kept
    per (d, k)).  For k = 1 every trial has length 1, so nothing is drawn.
    Raises BudgetExceededError for k >= 2 over more than 255 letters, and
    when building the DFA outgrows its state budget, as (6,3) does.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    if k > d:
        raise ValueError(f"no k={k} superpattern exists over a {d}-letter alphabet")
    histogram: Counter = Counter()
    if k == 1:
        histogram[1] = trials
    else:
        table = _byte_tables.get((d, k))
        if table is None:
            table = _byte_tables[(d, k)] = _ByteTable(d, k)
        for block_index, block_start in enumerate(range(0, trials, _TRIALS_PER_BLOCK)):
            rng = random.Random(_block_seed(seed, block_index))
            table.run(rng, min(_TRIALS_PER_BLOCK, trials - block_start), histogram)

    # From S1 = sum n*c and S2 = sum n^2*c, the sample variance
    # (S2 - S1^2/T) / (T - 1) is one exact fraction.
    s1 = sum(n * c for n, c in histogram.items())
    s2 = sum(n * n * c for n, c in histogram.items())
    mean = Fraction(s1, trials)
    variance = Fraction(trials * s2 - s1 * s1, trials * (trials - 1)) if trials > 1 else Fraction(0)
    return SimSummary(
        d=d,
        k=k,
        trials=trials,
        seed=seed,
        sample_mean=float(mean),
        sample_variance=float(variance),
        histogram=dict(sorted(histogram.items())),
    )


def pmf_table(d: int, n_max: int) -> list[Fraction]:
    """P(tau = n) for n = 1..n_max, with k = d: the Maclaurin coefficients of
    waiting_time_gf(d) from t^1 on, zero below the support.  The support
    starts at the lowest power of t in the generating function's numerator,
    the least superpattern length, and is infinite, so the mass past n_max
    is 1 less the sum of the list."""
    return _supported_gf(d, n_max).series_coefficients(n_max)[1:]


def _supported_gf(d: int, n_max: int) -> RationalFunction:
    """waiting_time_gf(d), once n_max reaches the start of its support."""
    gf = waiting_time_gf(d)
    start = next(n for n, c in enumerate(gf.numerator.coefficients) if c)
    if n_max < start:
        raise ValueError(f"n_max must reach the least superpattern length {start}")
    return gf


def coupon_expectations(d: int, k: int) -> tuple[Fraction, Fraction]:
    """Coupon-collector baselines: expected draws to see every letter once
    (sum of d/j), and k times that, the expected time for k disjoint
    collections, which is the waiting time for all length-k words to appear
    as subsequences."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    single = sum(Fraction(d, j) for j in range(1, d + 1))
    return single, k * single


def waiting_time_gf(d: int) -> RationalFunction:
    """Generating function of the d = k waiting time: t^3 / (2 - t)^2 for
    d = 2, and 2 t^7 (16 t^2 - 63 t + 63) / ((3 - t)^5 (3 - 2t)^3) for d = 3.
    The one place that says which alphabets are solved; pmf_table and the
    moments read it."""
    if d == 2:
        return RationalFunction(Polynomial.monomial(3), Polynomial([2, -1]) ** 2)
    if d == 3:
        return RationalFunction(
            Polynomial.monomial(7, 2) * Polynomial([63, -63, 16]),
            Polynomial([3, -1]) ** 5 * Polynomial([3, -2]) ** 3,
        )
    raise ValueError("waiting-time generating functions are available for d = 2 and d = 3 only")
