"""Tests for the exact threshold calculators and the tower engine."""

from __future__ import annotations

import math
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from jetcert.polynomials import MultiPoly
from jetcert.thresholds import (
    C1,
    C2,
    H,
    MINIMUM_CONSTANT,
    THREE_CONIC_PAIRINGS,
    U1,
    U2,
    ConstantTooSmall,
    DegenerateTotalDegree,
    DegreeMismatch,
    DegreeTriple,
    QuadExt,
    SplitMismatch,
    build_threshold_report,
    codimensions,
    delta1,
    exceptional_pairs,
    quartic_monomial_table,
    split_independence_report,
    tau_roots,
    tower_integral,
    tower_reduce,
    two_jet_constants,
    two_jet_phi,
    two_jet_phi_roots,
    two_over_tau1,
    vanishing_slope,
    z_cube_intersection,
)

from _util import reference_exceptional_pairs, tower_reduce_u2_first


# -- QuadExt ---------------------------------------------------------------------------


def test_quadext_normalization():
    assert QuadExt.make(0, 1, 81) == QuadExt.make(9)
    assert QuadExt.make(Fraction(1, 2), Fraction(-1, 18), 81) == QuadExt.make(0)
    folded = QuadExt.make(0, 2, 12)
    assert (folded.coefficient, folded.radicand) == (Fraction(4), 3)
    assert QuadExt.make(3, 0, 7).is_rational
    with pytest.raises(ValueError):
        QuadExt.make(0, 1, -5)


def test_quadext_field_arithmetic():
    x = QuadExt.make(Fraction(1, 2), Fraction(-1, 12), 33)
    assert x * x.inverse() == QuadExt.make(1)
    assert (x + 2) - 2 == x
    assert 3 * x == x + x + x
    y = QuadExt.make(0, 1, 2)
    assert y * y == QuadExt.make(2)
    with pytest.raises(ValueError):
        x + y  # incompatible radicands
    assert (1 / y) * y == QuadExt.make(1)


def test_quadext_ordering_is_exact():
    sqrt2 = QuadExt.make(0, 1, 2)
    assert QuadExt.make(Fraction(141421356, 100000000)) < sqrt2
    assert sqrt2 < QuadExt.make(Fraction(141421357, 100000000))
    assert QuadExt.make(1, -1, 2) < 0  # 1 - sqrt(2)
    assert QuadExt.make(2, -1, 2) > 0  # 2 - sqrt(2)
    assert sqrt2.sign() == 1
    assert QuadExt.make(0).sign() == 0


def test_quadext_decimal_rendering():
    sqrt2 = QuadExt.make(0, 1, 2)
    assert str(sqrt2.to_decimal(20)).startswith("1.414213562373095048")
    third = QuadExt.make(Fraction(1, 3))
    assert str(third.to_decimal(12)).startswith("0.33333333333")


# -- 1-jet thresholds --------------------------------------------------------------------


def test_degree_triple_validation():
    assert DegreeTriple.of(2, 3, 2) == DegreeTriple(3, 2, 2)
    assert DegreeTriple(3, 2, 2).total == 7
    assert DegreeTriple(3, 2, 2).pair_sum == 16
    with pytest.raises(ValueError):
        DegreeTriple(2, 3, 2)
    with pytest.raises(ValueError):
        DegreeTriple(2, 1, 0)
    with pytest.raises(ValueError):
        DegreeTriple.of(1, 2)


def test_delta1_reference_configuration():
    report = delta1(DegreeTriple.of(3, 2, 2))
    assert report.radicand == 132
    assert not report.negative_radicand
    assert report.hypothesis_ok
    assert report.delta1 == QuadExt.make(Fraction(1, 2), Fraction(-1, 12), 33)
    assert report.delta2 == QuadExt.make(Fraction(1, 2), Fraction(1, 12), 33)
    assert report.threshold_constant == QuadExt.make(6, 1, 33)
    # 6 + sqrt(33) is about 11.745
    assert abs(float(report.threshold_constant) - 11.7445626) < 1e-6
    # The root satisfies its quadratic exactly, in QuadExt arithmetic.
    d = report.degrees.total
    lead = (d - 3) ** 2
    value = (
        lead * report.delta1 * report.delta1
        - lead * report.delta1
        + Fraction(report.degrees.pair_sum, 3)
        - d
        + 2
    )
    assert value == QuadExt.make(0)


def test_delta1_flat_configuration_degenerates_to_zero():
    report = delta1(DegreeTriple.of(2, 2, 2))
    assert report.delta1 == QuadExt.make(0)
    assert not report.hypothesis_ok
    assert report.threshold_constant is None


def test_delta1_rejects_total_degree_three():
    with pytest.raises(DegenerateTotalDegree):
        delta1(DegreeTriple.of(1, 1, 1))


# -- 2-jet quadratic ---------------------------------------------------------------------


def test_two_jet_phi_values_and_roots():
    assert two_jet_phi(0) == 4
    assert two_jet_phi(1) == 10
    lower, upper = two_jet_phi_roots()
    assert lower == QuadExt.make(Fraction(4, 9), Fraction(-1, 9), 10)
    assert upper == QuadExt.make(Fraction(4, 9), Fraction(1, 9), 10)
    for root in (lower, upper):
        assert 54 * root * root - 48 * root + 4 == QuadExt.make(0)
    assert abs(float(lower) - 0.0930803) < 1e-6
    assert abs(float(upper) - 0.7958086) < 1e-6


def test_two_jet_derived_constants():
    constants = two_jet_constants()
    assert constants.tripled_lower_root == QuadExt.make(
        Fraction(4, 3), Fraction(-1, 3), 10
    )
    # 1 / (3*delta1) = 3/(4 - sqrt(10)) = (4 + sqrt(10))/2
    assert constants.reciprocal_constant == QuadExt.make(2, Fraction(1, 2), 10)
    assert abs(float(constants.reciprocal_constant) - 3.5811) < 1e-4
    assert two_jet_constants() is constants


# -- tau roots ---------------------------------------------------------------------------


def test_tau_root_identities():
    for m in range(1, 11):
        for t in range(0, m + 4):
            tau1, tau2 = tau_roots(m, t)
            assert tau1 <= tau2
            assert tau1 + tau2 == QuadExt.make(Fraction(3 * (4 * m - t), m))
            assert tau1 * tau2 == QuadExt.make(Fraction(12 * (m - t), m))
            if t < m:
                assert tau1.sign() == 1
            elif t == m:
                assert tau1 == QuadExt.make(0)
            else:
                assert tau1.sign() == -1
    with pytest.raises(ValueError):
        tau_roots(0, 0)


def test_tau_zero_twist_closed_form():
    tau1, tau2 = tau_roots(1, 0)
    assert tau1 == QuadExt.make(6, -2, 6)
    assert tau2 == QuadExt.make(6, 2, 6)
    assert abs(float(tau1) - 1.1010) < 1e-4


def test_two_over_tau1_reference_ratio():
    # At t/m = 92/135 the discriminant is a perfect square and 2/tau1 = 5.
    value = two_over_tau1(135, 92)
    assert value == QuadExt.make(5)
    with pytest.raises(ValueError):
        two_over_tau1(3, 3)


def test_two_over_tau1_grid_infimum():
    """Over twist ratios in (0, 1) the infimum of 2/tau1 is (3 + sqrt(6))/3,
    approached as the ratio goes to zero; a geometric grid reaches it."""
    ratios = [Fraction(1, 10**k) for k in range(1, 9)]
    ratios += [Fraction(j, 100) for j in range(1, 100)]
    values = [float(two_over_tau1(r.denominator, r.numerator)) for r in ratios]
    assert abs(min(values) - float(MINIMUM_CONSTANT)) < 1e-6
    assert all(value > float(MINIMUM_CONSTANT) for value in values)


# -- tower engine ------------------------------------------------------------------------


def test_quartic_monomial_table_from_relations():
    assert quartic_monomial_table() == {
        "u1^4*u2^0": 0,
        "u1^3*u2^1": 0,
        "u1^2*u2^2": 9,
        "u1^1*u2^3": -18,
        "u1^0*u2^4": 36,
    }


def test_tower_normal_form_bounds_exponents():
    element = (U2**4) + (U1**3) * U2 - H * U1 * U2 * H
    reduced = tower_reduce(element)
    for key in reduced.terms:
        assert key[0] <= 1 and key[1] <= 1


def test_tower_mixed_h_identities():
    # Pairings against pullback hyperplane classes, all engine-derived.
    assert tower_integral(U1 * U2 * H * H) == 1
    assert tower_integral(U2 * U2 * H * H) == -1
    assert tower_integral(U1 * U1 * H * H) == 0
    assert tower_integral(U2**3 * H) == 0
    assert tower_integral(U1 * U1 * U2 * H) == 3
    # Linearity example: (u2 - u1) * u1^2 * u2 = u1^2 u2^2 - u1^3 u2 = 9.
    assert tower_integral((U2 - U1) * (U1**2) * U2) == 9


def test_tower_reduction_is_confluent():
    rng = random.Random(616)
    generators = [U1, U2, H, C1]
    for _ in range(60):
        factors = [rng.choice(generators) for _ in range(4)]
        element = factors[0]
        for factor in factors[1:]:
            element = element * factor
        assert tower_reduce(element) == tower_reduce_u2_first(element)
        # Reduction is a ring homomorphism onto normal forms.
        split = rng.randint(1, 3)
        head = factors[0]
        for factor in factors[1:split]:
            head = head * factor
        tail = factors[split]
        for factor in factors[split + 1 :]:
            tail = tail * factor
        assert tower_reduce(head * tail) == tower_reduce(
            tower_reduce(head) * tower_reduce(tail)
        )


def test_tower_integral_requires_codimension_four():
    with pytest.raises(DegreeMismatch):
        tower_integral(U1 * U2 * H)
    with pytest.raises(DegreeMismatch):
        tower_integral(U1 * U2 * H * H + U1 * U2 * H)


def test_tower_symbolic_pairings_specialize():
    element = (U2**4)
    symbols = tower_integral(element, symbolic=True)
    total = sum(
        value * THREE_CONIC_PAIRINGS[key] for key, value in symbols.items()
    )
    assert total == tower_integral(element) == 36
    # u2^4 = 5*c2 - c1^2 as a symbolic pairing.
    assert symbols == {(0, 1): Fraction(5), (2, 0): Fraction(-1)}


def test_tower_element_helpers():
    zero = MultiPoly.zero(5)
    assert zero + U1 == U1
    assert U1 - U1 == zero
    assert U1.scale(0) == zero
    assert codimensions(C2) == {2}
    assert codimensions(U1 * C2) == {3}
    assert codimensions(zero) == set()
    half = H.scale(Fraction(1, 2))
    assert half.terms == {(0, 0, 1, 0, 0): Fraction(1, 2)}
    assert half * 2 == H


# -- degree-4 self-intersection ------------------------------------------------------------


def test_z_cube_reference_values():
    assert z_cube_intersection(3, 1, 0, 2, 1) == 72
    assert z_cube_intersection(3, 1, 0, 3, 0) == 72
    with pytest.raises(SplitMismatch):
        z_cube_intersection(3, 1, 0, 2, 2)
    with pytest.raises(ValueError):
        z_cube_intersection(3, 1, 0, 4, -1)


def _engine_z_cube(t: int, tau, b1: int, b2: int) -> Fraction:
    """The self-intersection as the engine's pairing of the whole product."""
    cube = (U1.scale(2) + U2 - H.scale(Fraction(tau))) ** 3
    return tower_integral(cube * (U1.scale(b1) + U2.scale(b2) - H.scale(t)))


def test_z_cube_matches_the_engine_product():
    points = [
        (m, t, tau, b1)
        for m in range(1, 7)
        for t in range(0, m + 1)
        for b1 in range(0, m + 1)
        for tau in (Fraction(0), Fraction(1, 2), Fraction(1))
    ]
    # A sample of the benchmark's tower domain, then a negative tau and the
    # int and str spellings of tau.
    rng = random.Random(1411)
    for _ in range(150):
        m = rng.randint(1, 12)
        tau = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
        points.append((m, rng.randint(0, m), tau, rng.randint(0, m)))
    points += [(5, 2, Fraction(-7, 5), 3), (7, 4, 3, 2), (6, 1, "5/3", 6)]
    for m, t, tau, b1 in points:
        got = z_cube_intersection(m, t, tau, b1, m - b1)
        assert isinstance(got, Fraction)
        assert got == _engine_z_cube(t, tau, b1, m - b1), (m, t, tau, b1)


def test_importing_the_cli_derives_nothing():
    code = (
        "import jetcert.cli\n"
        "from jetcert import thresholds\n"
        "print(thresholds.two_jet_constants.cache_info().currsize,"
        " thresholds._cube_pairings.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "0"]


def test_z_cube_vanishes_at_tau1_by_construction():
    # tau1 is a root of the closed form; verified in QuadExt arithmetic.
    for m, t in ((3, 1), (5, 2), (8, 6)):
        tau1, _ = tau_roots(m, t)
        value = (
            m * tau1 * tau1
            - 3 * (4 * m - t) * tau1
            + Fraction(12 * (m - t))
        )
        assert value == QuadExt.make(0)


def test_split_independence_holds_symbolically():
    for m, t, tau in ((3, 1, Fraction(0)), (4, 2, Fraction(1, 2)), (6, 3, Fraction(1))):
        report = split_independence_report(m, t, tau)
        assert report["independent_for_general_pairings"] is True
        assert len(report["symbolic_values"]) == m + 1


# -- exceptional pairs ---------------------------------------------------------------------


def test_vanishing_slope_reference_fractions():
    assert vanishing_slope(5) == Fraction(92, 135)
    assert vanishing_slope(19) == Fraction(1940, 2109)


def test_exceptional_pairs_reference_lists():
    assert exceptional_pairs(5, 20) == [
        (3, 3), (4, 3), (5, 4), (6, 5), (7, 5), (8, 6),
        (9, 7), (10, 7), (11, 8), (12, 9), (13, 9),
    ]
    assert exceptional_pairs(19, 20) == [(3, 3), (4, 4), (5, 5), (6, 6), (7, 7)]


def test_exceptional_pairs_constant_guard():
    with pytest.raises(ConstantTooSmall):
        exceptional_pairs(Fraction(9, 5), 10)
    with pytest.raises(ConstantTooSmall):
        exceptional_pairs(1, 10)
    # Just above the limit is accepted.
    assert isinstance(exceptional_pairs(Fraction(1817, 1000), 5), list)


#: Every constant ``num/den`` with ``den < 40`` and ``num < 40*den``: 31,161
#: constants of 18,959 values, enumerated up to the weight ``_GRID_M_MAX``.
_GRID = [Fraction(num, den) for den in range(1, 40) for num in range(1, 40 * den)]
_GRID_M_MAX = 120


def _pairs_or_reason(enumerate_pairs, c):
    try:
        return enumerate_pairs(c, _GRID_M_MAX)
    except ConstantTooSmall as exc:
        return f"ConstantTooSmall: {exc}"


def _assert_matches_the_fraction_loop(constants) -> None:
    """``exceptional_pairs`` gives the oracle's pairs, or fails with its
    message, on every constant; the oracle runs once per value."""
    expected: dict[Fraction, list | str] = {}
    for c in constants:
        if c not in expected:
            expected[c] = _pairs_or_reason(reference_exceptional_pairs, c)
        assert _pairs_or_reason(exceptional_pairs, c) == expected[c], c


def _cutoff_weights(c: Fraction) -> list[int]:
    """The weights at which the minimal twist meets the cutoff exactly,
    ``t = m/c + 7``, which must not list the pair.  There ``m/c`` is an
    integer, so ``m`` is a multiple of the numerator of ``c``."""
    slope = vanishing_slope(c)
    return [
        m
        for m in range(c.numerator, _GRID_M_MAX + 1, c.numerator)
        if m >= 3 and max(1, math.ceil(slope * m)) == m / c + 7
    ]


def test_exceptional_pairs_match_the_fraction_loop_below_the_minimum():
    small = [c for c in _GRID if not MINIMUM_CONSTANT < c]
    assert len(small) == 1397
    _assert_matches_the_fraction_loop(small)


def test_exceptional_pairs_match_the_fraction_loop_at_the_cutoff():
    """The grid meets the strict side of the cutoff at 370 weights, carried
    by 37 values of the constant; on each of those the lists agree."""
    at_cutoff = {}
    for c in _GRID:
        if c.numerator <= _GRID_M_MAX and MINIMUM_CONSTANT < c:
            weights = _cutoff_weights(c)
            if weights:
                at_cutoff.setdefault(c, []).extend(weights)
    assert sum(len(weights) for weights in at_cutoff.values()) == 370
    assert len(at_cutoff) == 37
    for c, weights in at_cutoff.items():
        assert not {m for m, _ in exceptional_pairs(c, _GRID_M_MAX)} & set(weights)
    _assert_matches_the_fraction_loop(at_cutoff)


def test_exceptional_pairs_match_the_fraction_loop_on_small_denominators():
    _assert_matches_the_fraction_loop(c for c in _GRID if c.denominator < 10)


@pytest.mark.extended
def test_exceptional_pairs_match_the_fraction_loop_on_the_whole_grid():
    _assert_matches_the_fraction_loop(_GRID)


def test_exceptional_pairs_fractions_do_not_grow_with_the_weight(monkeypatch):
    """The guard and the slope build the same ``Fraction``s at any
    ``m_max``; the loop over the weights builds none.  The ``Fraction`` loop
    it replaced built at least five per weight, which the same count sees."""
    made = [0]
    construct = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results, Python 3.12+
        from_coprime = Fraction._from_coprime_ints

        def counting_from_coprime(cls, numerator, denominator):
            made[0] += 1
            return from_coprime(numerator, denominator)

        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counting_from_coprime)
        )

    def constructions(enumerate_pairs, m_max):
        made[0] = 0
        enumerate_pairs(Fraction(5), m_max)
        return made[0]

    assert constructions(exceptional_pairs, 40) == constructions(exceptional_pairs, 400)
    grown = constructions(reference_exceptional_pairs, 400)
    assert grown - constructions(reference_exceptional_pairs, 40) >= 5 * 360


def test_floor_table_row():
    slope = vanishing_slope(5)
    floors = [int(slope * m) for m in range(3, 15)]
    assert floors == [2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9]


# -- aggregated report ----------------------------------------------------------------------


def _decimal_matches_exact(entry: dict) -> bool:
    exact = QuadExt.make(
        Fraction(entry["rational"]), Fraction(entry["coefficient"]), entry["radicand"]
    )
    rendered = Decimal(entry["decimal"])
    reference = exact.to_decimal(40)
    return abs(rendered - reference) < Decimal("1e-12")


def test_threshold_report_decimal_coherence():
    report = build_threshold_report(degrees=(3, 2, 2), m=5, t=4)
    payload = report.as_dict(digits=30)
    checked = 0
    for section in payload.values():
        for value in section.values():
            if isinstance(value, dict) and "decimal" in value:
                assert _decimal_matches_exact(value)
                checked += 1
    assert checked >= 8
    assert payload["one_jet"]["degrees"] == [3, 2, 2]
    assert payload["tau"]["m"] == 5
    # Report building is deterministic.
    assert build_threshold_report(degrees=(3, 2, 2), m=5, t=4).as_dict() == payload


def test_threshold_report_optional_sections():
    bare = build_threshold_report().as_dict()
    assert "one_jet" not in bare and "tau" not in bare
    assert "two_jet" in bare
