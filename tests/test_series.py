from __future__ import annotations

import math
import random
import time
from decimal import ROUND_DOWN, Decimal, Inexact, Rounded, getcontext, localcontext
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpatterns import Polynomial, RationalFunction, moments_from_gf, pmf_table, waiting_time_gf
from superpatterns.series import _EXACT, _scale_base, _tail_series, reduce_pair

from conftest import series_by_long_division


def random_polynomial(rng, max_degree=4, nonzero_constant=False):
    coeffs = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(max_degree + 1)]
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    return Polynomial(coeffs)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]) == Polynomial([1, 2])
        assert Polynomial([0, 0]).is_zero()

    def test_evaluation_horner(self):
        p = Polynomial([1, -2, 3])  # 1 - 2t + 3t^2
        assert p(2) == 1 - 4 + 12
        assert p(Fraction(1, 2)) == Fraction(3, 4)

    def test_arithmetic(self):
        a = Polynomial([1, 1])
        b = Polynomial([2, 0, 1])
        assert (a * b) == Polynomial([2, 2, 1, 1])
        assert a * 3 == Polynomial([3, 3])
        assert (a**3) == Polynomial([1, 3, 3, 1])

    def test_monomial(self):
        assert Polynomial.monomial(3) == Polynomial([0, 0, 0, 1])
        assert Polynomial.monomial(2, 5)(2) == 20

    def test_product_degree_adds(self):
        rng = random.Random(5)
        for _ in range(50):
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            if a.is_zero() or b.is_zero():
                assert (a * b).is_zero()
            else:
                assert len((a * b).coefficients) == len(a.coefficients) + len(b.coefficients) - 1

    def test_immutability(self):
        p = Polynomial([1])
        with pytest.raises(AttributeError):
            p.coefficients = (Fraction(2),)


class TestRationalFunction:
    def test_geometric_series(self):
        f = RationalFunction(Polynomial([1]), Polynomial([1, -1]))
        assert f.series_coefficients(3) == [1, 1, 1, 1]

    def test_shifted_squared_geometric(self):
        # t^3 / (2 - t)^2 has coefficients (n-2) / 2^(n-1) from n = 3 on
        f = RationalFunction(Polynomial.monomial(3), Polynomial([2, -1]) ** 2)
        coeffs = f.series_coefficients(5)
        assert coeffs[3] == Fraction(1, 4)
        assert coeffs[4] == Fraction(1, 4)
        assert coeffs[5] == Fraction(3, 16)

    def test_pole_raises(self):
        f = RationalFunction(Polynomial([1]), Polynomial([1, -1]))
        with pytest.raises(ZeroDivisionError):
            f.evaluate(1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial([1]), Polynomial([]))

    def test_series_needs_expandable_point(self):
        f = RationalFunction(Polynomial([1]), Polynomial([0, 1]))
        with pytest.raises(ValueError):
            f.series_coefficients(3)

    def test_series_round_trip(self):
        # den * series == num modulo t^(N+1)
        rng = random.Random(17)
        N = 12
        for _ in range(40):
            num = random_polynomial(rng)
            den = random_polynomial(rng, nonzero_constant=True)
            f = RationalFunction(num, den)
            series = Polynomial(f.series_coefficients(N))
            product = series * den
            assert Polynomial(product.coefficients[: N + 1]) == Polynomial(num.coefficients[: N + 1])

    def test_function_equality_up_to_cancellation(self):
        f = RationalFunction(Polynomial([0, 1]), Polynomial([1, 1]))
        g = RationalFunction(Polynomial([0, 2]), Polynomial([2, 2]))
        assert f == g


# Coefficient denominators: 1, primes, prime powers, composites, a prime above
# the trial-division bound, and a Mersenne prime.
_DENOMINATORS = (1, 2, 3, 4, 7, 8, 9, 12, 25, 27, 30, 1031, 2**61 - 1)
_coefficients = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(_DENOMINATORS))
_nonzero = _coefficients.filter(bool)


class TestSeriesExpansion:
    @pytest.mark.parametrize("d", [2, 3])
    def test_paper_gfs_match_long_division(self, d):
        f = waiting_time_gf(d)
        assert f.series_coefficients(1000) == series_by_long_division(f, 1000)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_coefficients, max_size=12),
        _nonzero,
        st.lists(_coefficients, max_size=5),
        st.integers(0, 10),
    )
    def test_matches_long_division(self, numerator, b0, rest, order):
        # b0 may be negative; the numerator's degree often exceeds the order.
        f = RationalFunction(Polynomial(numerator), Polynomial([b0, *rest]))
        assert f.series_coefficients(order) == series_by_long_division(f, order)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_coefficients, max_size=12),
        _nonzero,
        st.lists(_coefficients, max_size=5),
        st.integers(0, 12),
    )
    def test_pairs_are_reduced_decimal_integers(self, numerator, b0, rest, order):
        f = RationalFunction(Polynomial(numerator), Polynomial([b0, *rest]))
        pairs = list(islice(f.expand(), order + 1))
        assert all(type(x) is Decimal and x == int(x) for pair in pairs for x in pair)
        assert all(b > 0 and math.gcd(int(a), int(b)) == 1 for a, b in pairs)

    def test_the_callers_context_changes_no_pair(self):
        # The recurrence forms each pair under its own context, so one that
        # would round, or trap a rounding, changes nothing, and is still the
        # caller's while the expansion is suspended.
        expected = [(c.numerator, c.denominator) for c in waiting_time_gf(3).series_coefficients(3000)]
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = 5, ROUND_DOWN
            ctx.traps[Inexact] = ctx.traps[Rounded] = True
            pairs = waiting_time_gf(3).expand()
            assert next(pairs) == (0, 1)
            assert getcontext() is ctx
            assert (ctx.prec, ctx.rounding, ctx.traps[Inexact], ctx.traps[Rounded]) == (5, ROUND_DOWN, True, True)
            assert [(0, 1), *islice(pairs, 3000)] == expected
            assert getcontext() is ctx and ctx.prec == 5

    def test_the_exact_context_never_rounds(self):
        with localcontext(_EXACT):
            assert int(Decimal(3) ** 20000) == 3**20000
            with pytest.raises(Inexact):
                Decimal("2.5").to_integral_exact()

    def test_zero_reduces_to_zero_over_one(self):
        for zero in (Decimal(0), Decimal("-0")):
            a, b = reduce_pair(zero, zero + 27, 3, 0)
            assert (str(a), str(b)) == ("0", "1")

    @pytest.mark.parametrize("d, g", [(2, 2), (3, 3)])
    def test_paper_gfs_scale_by_their_alphabet(self, d, g):
        b = waiting_time_gf(d).denominator.coefficients
        assert _scale_base([(c / b[0]).denominator for c in b[1:]]) == g

    def test_scale_base_is_least_for_small_primes(self):
        assert _scale_base([]) == 1
        assert _scale_base([4, 1, 64]) == 4  # 2^2 | g, 2^6 | g^3
        assert _scale_base([1, 9, 27]) == 3
        assert _scale_base([12, 1, 8]) == 12
        assert _scale_base([1031, 1031**2]) == 1031 * 1031  # large prime goes in whole

    @pytest.mark.parametrize("b0", [2**61 - 1, Fraction((2**61 - 1) ** 2, 7)])
    def test_large_prime_constant_terms_expand_quickly(self, b0):
        f = RationalFunction(Polynomial([1]), Polynomial([b0, 1]))
        start = time.perf_counter()
        coeffs = f.series_coefficients(200)
        assert time.perf_counter() - start < 0.5
        assert coeffs == [Fraction(-1) ** n / b0 ** (n + 1) for n in range(201)]

    def test_negative_order_is_empty(self):
        f = RationalFunction(Polynomial([1, 2, 3]), Polynomial([1, -1]))
        assert f.series_coefficients(-1) == []
        assert f.series_coefficients(-3) == []


@pytest.fixture
def gcd_calls(monkeypatch):
    """The argument tuples of every math.gcd call from here on."""
    calls, real = [], math.gcd

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(math, "gcd", counted)
    return calls


class TestReduction:
    @pytest.mark.parametrize("c", [1, -5, 7**30], ids=["1", "-5", "7^30"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_terms_past_the_modulus_power_take_the_fallback_round(self, gcd_calls, base, c):
        # c base^200 / (base - t)^2 = sum_n c base^200 (n + 1) / base^(n + 2) t^n:
        # numerator and denominator share far more than the modulus's power.
        f = RationalFunction(Polynomial([c * base**200]), Polynomial([base, -1]) ** 2)
        expected = [Fraction(c * base**200 * (n + 1), base ** (n + 2)) for n in range(400)]
        expected = [(x.numerator, x.denominator) for x in expected]
        pairs = f.expand()
        del gcd_calls[:]
        assert list(islice(pairs, 400)) == expected
        assert len(gcd_calls) > 400

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_paper_gfs_take_one_gcd_per_pair(self, gcd_calls, d):
        pairs = waiting_time_gf(d).expand()
        del gcd_calls[:]
        pairs = list(islice(pairs, 3001))
        assert len(gcd_calls) <= len(pairs)
        assert all(b > 0 and math.gcd(int(a), int(b)) == 1 for a, b in pairs)


class TestTailSeries:
    @pytest.mark.parametrize("d", [2, 3])
    def test_coefficients_are_the_mass_left(self, d):
        f = waiting_time_gf(d)
        tail = _tail_series(f)
        assert tail.denominator == f.denominator
        assert tail.series_coefficients(300) == [1, *(1 - s for s in accumulate(pmf_table(d, 300)))]

    def test_binary_tail(self):
        tail = _tail_series(waiting_time_gf(2)).series_coefficients(300)
        assert tail[1:] == [Fraction(n, 2 ** (n - 1)) for n in range(1, 301)]

    def test_refuses_anything_but_a_probability_generating_function(self):
        with pytest.raises(ValueError, match=r"not a probability generating function: f\(1\) = 1/2"):
            _tail_series(RationalFunction(Polynomial([0, 1]), Polynomial([3, -1])))
        with pytest.raises(ValueError, match=r"f\(1\) = 2"):
            _tail_series(RationalFunction(Polynomial([2]), Polynomial([1])))


def _finite_factor(weights):
    """A PGF with finite support, P(i) proportional to weights[i], with its
    mean and variance."""
    total = sum(weights)
    probs = [Fraction(w, total) for w in weights]
    mean = sum(i * p for i, p in enumerate(probs))
    variance = sum(i * i * p for i, p in enumerate(probs)) - mean * mean
    return Polynomial(probs), Polynomial([1]), mean, variance


def _negative_binomial_factor(m, q, r):
    """t^m ((1 - q) / (1 - q t))^r: m plus the failures before r successes
    of chance 1 - q, with its mean and variance."""
    return (
        Polynomial.monomial(m, (1 - q) ** r),
        Polynomial([1, -q]) ** r,
        m + r * q / (1 - q),
        r * q / (1 - q) ** 2,
    )


_finite_factors = st.lists(st.integers(0, 6), min_size=1, max_size=6).filter(any).map(_finite_factor)
_chances = st.integers(2, 12).flatmap(lambda b: st.builds(Fraction, st.integers(1, b - 1), st.just(b)))
_negative_binomial_factors = st.builds(
    _negative_binomial_factor, st.integers(0, 3), _chances, st.integers(1, 3)
)


class TestMoments:
    def test_requires_normalization(self):
        f = RationalFunction(Polynomial([2]), Polynomial([1]))
        with pytest.raises(ValueError):
            moments_from_gf(f)
        f = RationalFunction(Polynomial([0, 1]), Polynomial([3, -1]))  # f(1) = 1/2
        with pytest.raises(ValueError, match=r"not a probability generating function: f\(1\) = 1/2"):
            moments_from_gf(f)

    def test_pole_at_one_raises(self):
        f = RationalFunction(Polynomial([0, 1]), Polynomial([1, -1]))
        with pytest.raises(ZeroDivisionError, match="pole at 1"):
            moments_from_gf(f)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_finite_factors, _negative_binomial_factors), min_size=1, max_size=4))
    def test_moments_of_independent_sums_add(self, factors):
        numerator, denominator = Polynomial([1]), Polynomial([1])
        for num, den, _, _ in factors:
            numerator, denominator = numerator * num, denominator * den
        mean, variance = moments_from_gf(RationalFunction(numerator, denominator))
        assert mean == sum(factor[2] for factor in factors)
        assert variance == sum(factor[3] for factor in factors)

    def test_point_mass(self):
        # generating function t^5: deterministic value 5
        f = RationalFunction(Polynomial.monomial(5), Polynomial([1]))
        mean, variance = moments_from_gf(f)
        assert mean == 5
        assert variance == 0

    def test_geometric_distribution(self):
        # P(n) = (1/2)^n for n >= 1: gf = t / (2 - t); mean 2, variance 2
        f = RationalFunction(Polynomial([0, 1]), Polynomial([2, -1]))
        mean, variance = moments_from_gf(f)
        assert mean == 2
        assert variance == 2


class TestFractionLaws:
    def test_field_laws_on_samples(self):
        rng = random.Random(41)
        values = [Fraction(rng.randrange(-30, 30), rng.randrange(1, 30)) for _ in range(30)]
        for a, b, c in zip(values, values[1:], values[2:]):
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + b - b == a

    def test_canonical_form(self):
        assert Fraction(42, 2187) == Fraction(14, 729)
        assert str(Fraction(42, 2187)) == "14/729"
        assert Fraction(0, 5) == Fraction(0, 1)
