"""Unit and property tests for the sparse polynomial core."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _util import (
    NonDivisible,
    coefficient_map,
    exact_div,
    random_nonzero_poly,
    random_poly,
    reduce_mod,
    tuple_product,
)
from jetcert.polynomials import MultiPoly, RingMismatch


def _binomial_expand_power(base: MultiPoly, n: int) -> MultiPoly:
    """Oracle: n-fold repeated addition-free product, computed term by term
    with integer coefficients (no modular arithmetic on the way)."""
    result = MultiPoly.constant(base.arity, 1)
    for _ in range(n):
        result = result * base
    return result


def test_freshman_dream_over_gf5():
    x = MultiPoly.variable(2, 0, modulus=5)
    y = MultiPoly.variable(2, 1, modulus=5)
    fifth = (x + y) ** 5
    expected = MultiPoly(2, {(5, 0): 1, (0, 5): 1}, modulus=5)
    assert fifth == expected
    # Oracle path: expand over ZZ first, reduce afterwards.
    xz = MultiPoly.variable(2, 0)
    yz = MultiPoly.variable(2, 1)
    integer_fifth = _binomial_expand_power(xz + yz, 5)
    assert reduce_mod(integer_fifth, 5) == expected
    # The middle binomial coefficients really were there before reduction.
    assert integer_fifth.terms[(3, 2)] == 10


def test_ring_mismatch_raises():
    f = MultiPoly.variable(2, 0, modulus=5)
    g = MultiPoly.variable(2, 0, modulus=7)
    h = MultiPoly.variable(3, 0, modulus=5)
    with pytest.raises(RingMismatch):
        _ = f + g
    with pytest.raises(RingMismatch):
        _ = f * h


def test_repr_names_the_coefficient_ring():
    x = MultiPoly.variable(2, 0)
    assert repr(x) == "MultiPoly(arity=2, ring=ZZ, 1 terms)"
    half = x.scale(Fraction(1, 2)) + MultiPoly.constant(2, 3)
    assert repr(half) == "MultiPoly(arity=2, ring=QQ, 2 terms)"
    assert repr(MultiPoly.variable(2, 1, modulus=5)) == "MultiPoly(arity=2, ring=GF(5), 1 terms)"


def test_canonical_form_drops_zeros_and_reduces():
    f = MultiPoly(2, {(1, 0): 5, (0, 1): 7, (0, 0): 3}, modulus=5)
    assert (1, 0) not in f.terms
    assert f.terms[(0, 1)] == 2
    assert f.terms[(0, 0)] == 3
    g = MultiPoly(2, {(2, 2): 0})
    assert g.is_zero


# ``exact_div`` is the monomial division of the tests' jet-frame reference.


def test_exact_div_failure_attaches_remainder():
    x = MultiPoly.variable(2, 0, modulus=5)
    y = MultiPoly.variable(2, 1, modulus=5)
    f = x * x + y  # not divisible by x
    with pytest.raises(NonDivisible) as excinfo:
        exact_div(f, x)
    remainder = excinfo.value.remainder
    assert remainder is not None
    assert remainder == y
    # f - remainder is exactly divisible.
    assert exact_div(f - remainder, x) == x


def test_exact_div_rejects_multi_term_divisor():
    x = MultiPoly.variable(2, 0, modulus=5)
    y = MultiPoly.variable(2, 1, modulus=5)
    with pytest.raises(ValueError):
        exact_div(x * y, x + y)
    with pytest.raises(ValueError):
        exact_div(MultiPoly(2, {(2, 0): 4}), MultiPoly(2, {(1, 0): 2, (0, 0): 1}))


def test_exact_div_rejects_zero_divisor():
    x = MultiPoly.variable(2, 0, modulus=5)
    with pytest.raises(ZeroDivisionError):
        exact_div(x, MultiPoly.zero(2, modulus=5))


def test_exact_div_by_scaled_monomial():
    f = MultiPoly(2, {(3, 1): 6, (1, 2): -4})
    assert exact_div(f, MultiPoly(2, {(1, 1): 2})) == MultiPoly(2, {(2, 0): 3, (0, 1): -2})
    # Over ZZ a coefficient that is not a multiple is a remainder.
    with pytest.raises(NonDivisible) as excinfo:
        exact_div(f, MultiPoly(2, {(1, 1): 4}))
    assert excinfo.value.remainder == MultiPoly(2, {(3, 1): 6})
    g = MultiPoly(2, {(2, 2): 3, (1, 3): 1}, modulus=5)
    assert exact_div(g, MultiPoly(2, {(1, 2): 2}, modulus=5)) == MultiPoly(
        2, {(1, 0): 4, (0, 1): 3}, modulus=5
    )


def test_reduction_is_ring_homomorphism_random():
    rng = random.Random(11)
    p = 5
    for _ in range(1000):
        f = random_poly(rng, 2, max_degree=5, n_terms=6)
        g = random_poly(rng, 2, max_degree=5, n_terms=6)
        assert reduce_mod(f * g, p) == reduce_mod(f, p) * reduce_mod(g, p)
        assert reduce_mod(f + g, p) == reduce_mod(f, p) + reduce_mod(g, p)


def _divisible_by_monomial(f: MultiPoly, ea: int, eb: int) -> bool:
    return all(e[0] >= ea and e[1] >= eb for e in f.terms)


def test_unit_irrelevance_of_divisibility():
    """Multiplying by a factor with nonzero constant term never changes
    whether a monomial x^i y^j divides (200 seeded instances, brute force)."""
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        f = random_poly(rng, 2, max_degree=5, n_terms=6, modulus=5)
        g = random_poly(rng, 2, max_degree=3, n_terms=4, modulus=5)
        if g.terms.get((0, 0), 0) == 0:
            g = g + MultiPoly.constant(2, rng.randint(1, 4), modulus=5)
        if f.is_zero:
            continue
        ea = rng.randint(1, 3)
        eb = rng.randint(1, 3)
        assert _divisible_by_monomial(f * g, ea, eb) == _divisible_by_monomial(
            f, ea, eb
        )
        checked += 1


def test_power_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(20):
        f = random_poly(rng, 2, max_degree=3, n_terms=4)
        assert reduce_mod(f**4, 5) == reduce_mod(_binomial_expand_power(f, 4), 5)
        g = reduce_mod(f, 5)
        assert g**4 == g * g * g * g


def test_deriv_product_rule_random():
    rng = random.Random(6)
    for _ in range(100):
        f = random_poly(rng, 3, max_degree=4, n_terms=5)
        g = random_poly(rng, 3, max_degree=4, n_terms=5)
        for var in range(3):
            lhs = (f * g).deriv(var)
            rhs = f.deriv(var) * g + f * g.deriv(var)
            assert lhs == rhs


def test_dehomogenize_and_embed():
    f = MultiPoly(3, {(2, 1, 0): 3, (0, 1, 0): 4, (0, 1, 2): -1})
    dehom = f.dehomogenize(0)
    assert dehom == MultiPoly(2, {(1, 0): 3 + 4, (1, 2): -1})
    lifted = dehom.embed(4, (1, 3))
    assert lifted == MultiPoly(4, {(0, 1, 0, 0): 7, (0, 1, 0, 2): -1})


def test_coefficient_map_partition_is_faithful():
    rng = random.Random(8)
    for _ in range(25):
        f = random_poly(rng, 4, max_degree=3, n_terms=8, modulus=5)
        grouped = coefficient_map(f, (2, 3))
        # Rebuild f from the grouping and compare.
        rebuilt = MultiPoly.zero(4, 5)
        for pattern, poly in grouped.items():
            lifted = poly.embed(4, (0, 1))
            monomial = MultiPoly(
                4, {(0, 0, pattern[0], pattern[1]): 1}, modulus=5
            )
            rebuilt = rebuilt + lifted * monomial
        assert rebuilt == f


@pytest.mark.parametrize("arity", [0, 1, 2, 5, 7])
def test_packed_product_matches_tuple_sums(arity):
    """``__mul__`` adds exponents packed into one int per term; it agrees with
    the plain product that adds exponent tuples, over ZZ, QQ and GF(5), with
    zero operands, cancelling coefficients and exponent sums at a power of
    two (a field one bit too narrow would carry into its neighbor)."""
    rng = random.Random(20261018 + arity)
    rings = [(None, 1), (None, Fraction(1, 3)), (5, 1)]
    for modulus, unit in rings:
        zero = MultiPoly.zero(arity, modulus)

        def draw(max_degree):
            poly = random_poly(rng, arity, max_degree, n_terms=6)
            return MultiPoly(arity, poly.scale(unit).terms, modulus)

        for _ in range(30):
            f, g = draw(4), draw(6)
            assert f * g == tuple_product(f, g)
            assert f * zero == zero == zero * f
            # (f + g) * (f - g): the cross terms cancel to zero.
            assert (f + g) * (f - g) == tuple_product(f + g, f - g)
            assert (f + g) * (f - g) == f * f - g * g
        # The largest exponents sum to 2, 7, 15 and 256: 2^b - 1 and 2^b.
        for top_f, top_g in [(1, 1), (3, 4), (7, 8), (255, 1)]:
            f, g = draw(1), draw(1)
            for i in range(arity):
                high = [0] * arity
                high[i] = top_f
                f = f + MultiPoly(arity, {tuple(high): 2}, modulus)
                high[i] = top_g
                high[(i + 1) % arity] += 1
                g = g + MultiPoly(arity, {tuple(high): 3}, modulus)
            assert f * g == tuple_product(f, g)
