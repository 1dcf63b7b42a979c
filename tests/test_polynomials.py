"""Unit and property tests for the sparse polynomial core."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _util import random_nonzero_poly, random_poly
from jetcert.polynomials import (
    MultiPoly,
    NonDivisible,
    RingMismatch,
    coefficient_of,
    exact_div,
    glex_key,
    obstruction,
)


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
    assert integer_fifth.reduce_mod(5) == expected
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


def test_exact_div_round_trip_random_gf5():
    rng = random.Random(20260816)
    divisor = MultiPoly(2, {(0, 0): 2, (2, 0): 1, (0, 2): 1}, modulus=5)
    for _ in range(50):
        q = random_poly(rng, 2, max_degree=5, n_terms=8, modulus=5)
        product = divisor * q
        if product.is_zero:
            assert q.is_zero
            continue
        assert exact_div(product, divisor) == q


def test_exact_div_round_trip_random_integer():
    rng = random.Random(97)
    divisor = MultiPoly(3, {(0, 0, 0): 2, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -3})
    for _ in range(50):
        q = random_poly(rng, 3, max_degree=3, n_terms=5)
        assert exact_div(divisor * q, divisor) == q


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


def test_obstruction_worked_example():
    # f = x^3 y^2 + x y + y^5; keep terms with deg_x < 1 or deg_y < 2.
    f = MultiPoly(2, {(3, 2): 1, (1, 1): 1, (0, 5): 1})
    got = obstruction(f, 0, 1, 1, 2)
    assert got == MultiPoly(2, {(1, 1): 1, (0, 5): 1})


def test_obstruction_idempotent_and_complement_divisible():
    rng = random.Random(4242)
    monomial = MultiPoly(3, {(2, 3, 0): 1}, modulus=5)
    for _ in range(200):
        f = random_poly(rng, 3, max_degree=6, n_terms=10, modulus=5)
        ob = obstruction(f, 0, 2, 1, 3)
        assert obstruction(ob, 0, 2, 1, 3) == ob
        cleared = f - ob
        if cleared.is_zero:
            continue
        # Every surviving term has x^2 y^3 as a factor.
        quotient = exact_div(cleared, monomial)
        assert monomial * quotient == cleared


def test_coefficient_of_worked_example():
    # Variables (x, x1, W); f = (2 + x) * x1^2 * W + x1.
    f = MultiPoly(3, {(0, 2, 1): 2, (1, 2, 1): 1, (0, 1, 0): 1})
    got = coefficient_of(f, (1, 2), (2, 1))
    assert got == MultiPoly(1, {(0,): 2, (1,): 1})
    # Absent pattern yields the zero polynomial in the remaining variables.
    assert coefficient_of(f, (1, 2), (9, 9)).is_zero


def test_reduction_is_ring_homomorphism_random():
    rng = random.Random(11)
    p = 5
    for _ in range(1000):
        f = random_poly(rng, 2, max_degree=5, n_terms=6)
        g = random_poly(rng, 2, max_degree=5, n_terms=6)
        assert (f * g).reduce_mod(p) == f.reduce_mod(p) * g.reduce_mod(p)
        assert (f + g).reduce_mod(p) == f.reduce_mod(p) + g.reduce_mod(p)


def test_obstruction_commutes_with_reduction_random():
    rng = random.Random(12)
    for _ in range(1000):
        f = random_poly(rng, 2, max_degree=7, n_terms=8)
        ea = rng.randint(1, 4)
        eb = rng.randint(1, 4)
        assert obstruction(f, 0, ea, 1, eb).reduce_mod(5) == obstruction(
            f.reduce_mod(5), 0, ea, 1, eb
        )


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
        assert (f**4).reduce_mod(5) == _binomial_expand_power(f, 4).reduce_mod(5)
        g = f.reduce_mod(5)
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


def test_substitute_matches_evaluation():
    rng = random.Random(7)
    for _ in range(50):
        f = random_poly(rng, 2, max_degree=4, n_terms=5)
        g = random_poly(rng, 2, max_degree=2, n_terms=3)
        composed = f.substitute(0, g)
        point = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
        g_val = g.evaluate(point)
        assert composed.evaluate(point) == f.evaluate([g_val, point[1]])


def test_dehomogenize_and_embed():
    f = MultiPoly(3, {(2, 1, 0): 3, (0, 1, 0): 4, (0, 1, 2): -1})
    dehom = f.dehomogenize(0)
    assert dehom == MultiPoly(2, {(1, 0): 3 + 4, (1, 2): -1})
    lifted = dehom.embed(4, (1, 3))
    assert lifted == MultiPoly(4, {(0, 1, 0, 0): 7, (0, 1, 0, 2): -1})


def test_glex_leading_term_and_rendering():
    f = MultiPoly(3, {(1, 1, 1): 32})
    assert f.to_str(("Z0", "Z1", "Z2")) == "32*Z0*Z1*Z2"
    g = MultiPoly(2, {(2, 0): 1, (1, 1): -2, (0, 0): 1})
    assert g.leading_term() == ((2, 0), 1)
    assert g.to_str(("x", "y")) == "x^2 - 2*x*y + 1"
    assert glex_key((2, 0)) > glex_key((1, 1)) or (2, 0) > (1, 1)
    assert MultiPoly.zero(2).to_str(("x", "y")) == "0"


def test_coefficient_map_partition_is_faithful():
    rng = random.Random(8)
    for _ in range(25):
        f = random_poly(rng, 4, max_degree=3, n_terms=8, modulus=5)
        grouped = f.coefficient_map((2, 3))
        # Rebuild f from the grouping and compare.
        rebuilt = MultiPoly.zero(4, 5)
        for pattern, poly in grouped.items():
            lifted = poly.embed(4, (0, 1))
            monomial = MultiPoly(
                4, {(0, 0, pattern[0], pattern[1]): 1}, modulus=5
            )
            rebuilt = rebuilt + lifted * monomial
        assert rebuilt == f
