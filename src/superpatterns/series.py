"""Exact univariate polynomials, rational functions, and series expansion.

Polynomials and evaluation work over fractions.Fraction, so probability
generating functions are expanded and evaluated with no rounding anywhere.
Maclaurin expansion is one recurrence (`RationalFunction.expand`) on scaled
Decimal integers, each term formed under this module's own context that
cannot round (`_EXACT`) and handed out under the caller's, yielding each
coefficient as a pair reduced at a constant number of big-number operations.
Such integers turn into text in linear time, Python ints in quadratic time;
`series_coefficients` builds Fractions from the pairs' ints.  The
tail series sum_n P(tau > n) t^n (`_tail_series`) shares a distribution's
denominator; taken at t = 1 it gives the moments.  Floating point is for
display only and never feeds back into these routines.
"""

from __future__ import annotations

import math
from collections import deque
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat, zip_longest
from operator import mul
from typing import Iterable, Iterator, Sequence, Union

from ._value import _Value

__all__ = ["Polynomial", "RationalFunction", "moments_from_gf"]

Scalar = Union[int, Fraction]

# Decimal integer arithmetic that never rounds: an operation that would raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT.traps[Inexact] = _EXACT.traps[Rounded] = True


# Trial divisors tried when choosing the recurrence's scale stay below this,
# so that a huge prime in a denominator costs a thousand remainders, not a
# factorisation.
_TRIAL_BOUND = 1 << 10


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _scale_base(denominators: Sequence[int]) -> int:
    """An integer g >= 1 with denominators[j-1] dividing g^j for every j.

    For each prime below 2^10 the exponent is the least that works, the
    largest ceil(v_p(den_j) / j); whatever of the lcm has no prime factor
    that small goes into g whole, which is exact though not always least.
    """
    rest = math.lcm(*denominators)
    g = 1
    # In increasing order a composite p never divides rest: its prime factors
    # are already gone.
    for p in range(2, _TRIAL_BOUND):
        if rest == 1:
            break
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        g *= p ** max(-(-_valuation(den, p) // j) for j, den in enumerate(denominators, 1))
    return g * rest


def reduce_pair(numerator: Decimal, denominator: Decimal, modulus: int, residue: int) -> tuple[Decimal, Decimal]:
    """numerator / denominator in lowest terms (zero is (0, 1), never -0),
    given that every prime factor of their gcd divides modulus and residue =
    denominator % modulus.  Dividing both by common = gcd(numerator % modulus,
    residue, modulus) leaves lowest terms unless some prime's whole power in
    modulus divides both; only then, seen as common^2 not dividing modulus,
    do more rounds follow, on both remainders.  Needs a context that cannot
    round."""
    if not numerator:
        return Decimal(0), Decimal(1)
    common = math.gcd(int(numerator % modulus), residue, modulus)
    while common > 1:
        numerator //= common
        denominator //= common
        if not modulus % (common * common):
            break
        common = math.gcd(int(numerator % modulus), int(denominator % modulus), modulus)
    return numerator, denominator


def _recurrence(weights: list[int], sources: Iterable[int], m: int, g: int) -> Iterator[tuple[Decimal, Decimal]]:
    """The pairs (C_n, m g^n) of `RationalFunction.expand`, reduced, for
    n = 0, 1, ..., keeping only the window of the last len(weights) terms
    and the scale's residue modulo a power of m g below 2^64, where one is.
    Each source S_n is read as its term is formed, and is 0 past the last.
    Each pair is formed under _EXACT and yielded under the caller's context:
    a context belongs to the thread, not to the suspended generator."""
    weights = list(map(Decimal, weights))
    # C_n for n < 0 is zero, so the window starts full of zeros.
    window = deque([Decimal(0)] * len(weights), maxlen=len(weights))
    sources = map(Decimal, sources)
    scale, step, modulus = Decimal(m), Decimal(g), (m * g) ** max(1, 64 // (m * g).bit_length())
    residue = m % modulus
    while True:
        with localcontext(_EXACT):
            term = next(sources, 0) - sum(map(mul, weights, window))
            window.append(term)
            pair = reduce_pair(term, scale, modulus, residue)
            scale *= step
        yield pair
        residue = residue * g % modulus


class Polynomial(_Value):
    """Polynomial with Fraction coefficients, constant term first.

    Trailing zero coefficients are trimmed on construction, so equal
    polynomials compare equal.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Scalar] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def monomial(cls, degree: int, coefficient: Scalar = 1) -> "Polynomial":
        return cls([0] * degree + [coefficient])

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: Scalar) -> Fraction:
        result = Fraction(0)
        for c in reversed(self.coefficients):
            result = result * x + c
        return result

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coefficients])
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1 or 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("polynomial powers must be non-negative")
        return reduce(mul, repeat(self, exponent), Polynomial([1]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coefficients)!r})"


class RationalFunction(_Value):
    """A ratio of polynomials.  No common-factor cancellation is attempted;
    evaluation and series expansion work directly on the given pair."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if denominator.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def evaluate(self, x: Scalar) -> Fraction:
        den = self.denominator(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.numerator(x) / den

    def expand(self) -> Iterator[tuple[Decimal, Decimal]]:
        """The Maclaurin coefficients c_0, c_1, ... without end, each a
        reduced (numerator, denominator) pair of Decimal integers.

        Needs denominator(0) != 0, and checks it at once.  With a, b the
        numerator and denominator coefficients, r_j = b_j / b_0 and
        s_n = a_n / b_0, the coefficients obey c_n = s_n - sum_{j>=1} r_j c_{n-j}.
        The recurrence runs on the integers C_n = c_n m g^n, where g makes
        every R_j = r_j g^j an integer and m is the least that makes every
        S_n = s_n g^n m one: C_n = S_n - sum_j R_j C_{n-j}, over the last D
        terms alone, D the denominator's degree.  Every prime that c_n =
        C_n / (m g^n) can cancel divides m g: `reduce_pair` cancels it
        against m g^n's residue modulo a fixed power of m g.

        Each pair is formed under _EXACT, whatever the caller's context, so
        the same pairs come out under any context.
        """
        b = self.denominator.coefficients
        if b[0] == 0:
            raise ValueError("series expansion needs a nonzero constant term in the denominator")
        ratios = [c / b[0] for c in b[1:]]
        g = _scale_base([r.denominator for r in ratios])
        # R_D .. R_1, so that a window C_{n-D} .. C_{n-1} pairs with its weights.
        weights = [(r * g**j).numerator for j, r in reversed(list(enumerate(ratios, 1)))]
        sources = [a / b[0] * g**n for n, a in enumerate(self.numerator.coefficients)]
        m = math.lcm(*(s.denominator for s in sources))
        return _recurrence(weights, [(s * m).numerator for s in sources], m, g)

    def series_coefficients(self, order: int) -> list[Fraction]:
        """Maclaurin coefficients c_0..c_order, exactly, as Fractions of the
        pairs `expand` yields."""
        return [Fraction(int(a), int(b)) for a, b in islice(self.expand(), max(order + 1, 0))]

    def __eq__(self, other: object) -> bool:
        # Equality as functions: cross-multiplied equality of the raw pairs.
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r}, {self.denominator!r})"


def _tail_series(f: RationalFunction) -> RationalFunction:
    """The tail series sum_n P(tau > n) t^n = ((D - N) / (1 - t)) / D of the
    probability generating function f = N / D, unless f(1) != 1.  D - N
    vanishes at 1, so the numerator is the prefix sums of D - N's coefficients.
    For P(tau = n) = 2^-n, generated by t / (2 - t), P(tau > n) = 2^-n too:

    >>> _tail_series(RationalFunction(Polynomial([0, 1]), Polynomial([2, -1]))).series_coefficients(3)
    [Fraction(1, 1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    """
    if (total := f.evaluate(1)) != 1:
        raise ValueError(f"not a probability generating function: f(1) = {total}")
    difference = zip_longest(f.denominator.coefficients, f.numerator.coefficients, fillvalue=0)
    return RationalFunction(Polynomial(list(accumulate(d - n for d, n in difference))), f.denominator)


def moments_from_gf(f: RationalFunction) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the distribution with probability generating
    function f, unless f(1) != 1.  Its tail series T has T(1) = E[tau] and
    T'(1) = sum_n n P(tau > n) = E[C(tau, 2)], so T(1 + s) = c_0 + c_1 s + ...
    puts the mean at c_0 and the variance at 2 c_1 + c_0 - c_0^2; sum_i a_i t^i
    shifted to t = 1 + s has sum_i a_i C(i, j) at s^j."""
    tail = _tail_series(f)
    shifted = (
        Polynomial([sum(a * math.comb(i, j) for i, a in enumerate(p.coefficients)) for j in range(2)])
        for p in (tail.numerator, tail.denominator)
    )
    mean, second = RationalFunction(*shifted).series_coefficients(1)
    return mean, 2 * second + mean - mean * mean
