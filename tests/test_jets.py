"""Tests for the jet expansion pipeline.

The centerpiece is an independent oracle: substitute an explicit polynomial
curve z -> (u(z), v(z)) into the chart functions and differentiate the
composites directly in z.  The six-variable reference of ``_util`` (the
whole log-jet forms, built by chain rule over formal jet variables, and the
Wronskian numerator ``L~``) must agree with quotient-rule numerators computed
from those composites, and so must the certifier's block factors ``X``,
``Y`` and ``C_1``, evaluated at ``W = u1*v2 - v1*u2`` along the curve.  The
reference then checks the factors on random triples and the expansion
blocks by eliminating ``(u2, v2)`` on its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from jetcert.conics import CHART_AXES, PRESET_TRIPLES, Conic, ConicTriple, chart_data
from jetcert.jets import (
    AnsatzIndex,
    AnsatzSpace,
    block_factors,
    case_m3_dim_counts,
    chart_monomial_shift,
    expand_ansatz,
    obstruction_rows,
    twist_lowering_embedding,
    wronskian_solution_vector,
)
from jetcert.polynomials import MultiPoly

from _util import (
    chart_determinant,
    coefficient_map,
    evaluate,
    reduce_blocks,
    reference_blocks,
    reference_forms,
    reference_reduced,
    reference_rows,
    reference_tilde,
)

FERMAT = PRESET_TRIPLES["fermat"]
CASE72 = PRESET_TRIPLES["case72"]


class _Curve(NamedTuple):
    """Jet values and quotient-rule numerators along the explicit curve."""

    jets6: list  # (u, v, u1, v1, u2, v2)
    jets5: list  # (u, v, u1, v1, W)
    a: MultiPoly
    b: MultiPoly
    ab_uv2: MultiPoly  # a*b*(u*v)^2, the factor of C_1 beside L~_red
    f_num: MultiPoly
    g_num: MultiPoly
    f_prime: MultiPoly
    g_prime: MultiPoly


def _along_curve(data) -> _Curve:
    """The chart's conics along z -> (1 + z + 2z^3, 1 - z + z^2), with the
    numerators of (log a/c)', (log b/c)' and of their derivatives."""
    z = MultiPoly.variable(1, 0, None)
    one = MultiPoly.constant(1, 1, None)
    u_poly = one + z + z * z * z * 2
    v_poly = one - z + z * z
    du, dv = u_poly.deriv(0), v_poly.deriv(0)
    d2u, d2v = du.deriv(0), dv.deriv(0)

    composite = lambda p: evaluate(p, [u_poly, v_poly])  # noqa: E731
    f_a, f_b, f_c = (composite(p) for p in (data.a, data.b, data.c))
    d_a, d_b, d_c = f_a.deriv(0), f_b.deriv(0), f_c.deriv(0)
    f_num = d_a * f_c - d_c * f_a
    g_num = d_b * f_c - d_c * f_b
    # gamma is the quotient-rule numerator of (f_num / (a*c))'.
    ac, bc = f_a * f_c, f_b * f_c
    return _Curve(
        jets6=[u_poly, v_poly, du, dv, d2u, d2v],
        jets5=[u_poly, v_poly, du, dv, du * d2v - dv * d2u],
        a=f_a,
        b=f_b,
        ab_uv2=f_a * f_b * (u_poly * v_poly) ** 2,
        f_num=f_num,
        g_num=g_num,
        f_prime=f_num.deriv(0) * ac - f_num * ac.deriv(0),
        g_prime=g_num.deriv(0) * bc - g_num * bc.deriv(0),
    )


def test_jet_forms_match_composite_differentiation():
    """The reference's chain-rule jet numerators agree with direct d/dz of
    the composites, and so do the certifier's factors ``X = alpha*b`` and
    ``Y = beta*a``."""
    for preset in (FERMAT, CASE72):
        for chart in (0, 1, 2):
            data = chart_data(preset, chart)
            curve = _along_curve(data)
            forms = reference_forms(data)
            assert evaluate(forms.alpha, curve.jets6) == curve.f_num
            assert evaluate(forms.beta, curve.jets6) == curve.g_num
            assert evaluate(forms.gamma_a, curve.jets6) == curve.f_prime
            assert evaluate(forms.gamma_b, curve.jets6) == curve.g_prime
            x, y, _ = block_factors(data)
            assert evaluate(x, curve.jets5) == curve.f_num * curve.b
            assert evaluate(y, curve.jets5) == curve.g_num * curve.a


def test_wronskian_matches_log_derivative_wronskian():
    """The cleared numerator equals f*g' - f'*g over a^2*b^2*c^3, computed
    from composite derivatives of an explicit curve: for the reference's
    six-variable ``L~``, and for the closed-form reduced numerator inside
    ``C_1 = L~_red * a*b*(u*v)^2``, which sees only W = u1*v2 - v1*u2 of
    the second-order data."""
    for preset in (FERMAT, CASE72):
        for chart in (0, 1, 2):
            data = chart_data(preset, chart)
            curve = _along_curve(data)
            oracle = (
                curve.f_num * curve.g_prime * curve.a
                - curve.f_prime * curve.g_num * curve.b
            )
            assert evaluate(reference_tilde(data), curve.jets6) == oracle
            _, _, c_1 = block_factors(data)
            assert evaluate(c_1, curve.jets5) == oracle * curve.ab_uv2


def test_w_coefficient_is_abc_squared_times_determinant():
    """The ``W``-coefficient of ``L~_red`` is ``a*b*c^2 * D``, so that of
    ``C_1`` is ``a*b*c^2 * D * a*b*(u*v)^2``, and the reference finds the
    same jet-free coefficient of ``L~`` by eliminating ``(u2, v2)``."""
    for preset in (FERMAT, CASE72):
        for chart in (0, 1, 2):
            data = chart_data(preset, chart)
            expected = data.a * data.b * data.c * data.c * chart_determinant(data)
            uv = MultiPoly.variable(2, 0) * MultiPoly.variable(2, 1)
            closed = coefficient_map(block_factors(data)[2], (2, 3, 4))
            assert closed[(0, 0, 1)] == expected * data.a * data.b * uv * uv
            by_jet = coefficient_map(reference_reduced(data), (2, 3, 4))
            assert {pattern for pattern in by_jet if pattern[2]} == {(0, 0, 1)}
            assert by_jet[(0, 0, 1)] == expected


def _random_conic(rng: random.Random) -> Conic:
    while True:
        coefficients = tuple(rng.randint(-6, 6) for _ in range(6))
        if any(coefficients):
            return Conic(coefficients)


@pytest.mark.parametrize("modulus", [None, 5, 11], ids=["ZZ", "GF5", "GF11"])
def test_closed_form_matches_the_reference_on_random_triples(modulus):
    """``L~_red = L~|(u2=v2=0) + a*b*c^2*D*W`` holds for any three conics,
    smooth or not, on every chart: ``C_1`` is the reference's elimination of
    ``(u2, v2)`` through ``W`` times ``a*b*(u*v)^2``, and ``X`` and ``Y``
    are the reference's ``alpha*b`` and ``beta*a``."""
    rng = random.Random(20261018)
    for _ in range(6):
        triple = ConicTriple(*(_random_conic(rng) for _ in range(3)))
        for chart in (0, 1, 2):
            data = chart_data(triple, chart, modulus)
            x, y, c_1 = block_factors(data)
            lift = lambda p: p.embed(5, (0, 1))  # noqa: E731
            a, b = lift(data.a), lift(data.b)
            uv = lift(MultiPoly.variable(2, 0, modulus) * MultiPoly.variable(2, 1, modulus))
            assert c_1 == reference_reduced(data) * a * b * uv * uv
            forms = reference_forms(data)
            alpha, beta = (
                coefficient_map(form, (4, 5)).get((0, 0), MultiPoly.zero(4, modulus))
                .embed(5, (0, 1, 2, 3))
                for form in (forms.alpha, forms.beta)
            )
            assert (x, y) == (alpha * b, beta * a)


def test_jet_weight_scaling():
    """Rescaling (u1, v1) by s and (u2, v2) by s^2 scales alpha by s,
    gamma by s^2 and the Wronskian numerator by s^3; the factors ``X`` and
    ``Y`` scale by s and ``C_1`` by s^3 when W, of weight 3, is rescaled by
    s^3."""
    data = chart_data(FERMAT, 0)
    forms = reference_forms(data)
    tilde = reference_tilde(data)
    factors = tuple(zip(block_factors(data), (1, 1, 3)))
    rng = random.Random(20240816)
    for _ in range(5):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        for s in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            scaled = point[:2] + [s * point[2], s * point[3],
                                  s * s * point[4], s * s * point[5]]
            for form, weight in ((forms.alpha, 1), (forms.beta, 1),
                                 (forms.gamma_a, 2), (forms.gamma_b, 2),
                                 (tilde, 3)):
                base = evaluate(form, point)
                assert evaluate(form, scaled) == s**weight * base
            scaled = point[:2] + [s * point[2], s * point[3], s**3 * point[4]]
            for factor, weight in factors:
                base = evaluate(factor, point[:5])
                assert evaluate(factor, scaled) == s**weight * base


def test_ansatz_space_counts():
    expected = {
        (3, 0): 230,
        (3, 1): 186,
        (3, 3): 113,
        (4, 3): 295,
        (5, 5): 441,
        (7, 7): 1197,
        (8, 6): 2340,
        (13, 9): 12550,
    }
    for (m, t), count in expected.items():
        space = AnsatzSpace.build(m, t)
        assert space.n_vars == count
        assert space.counting_formula() == count
        assert len(set(space.columns)) == count
        for pos, col in enumerate(space.columns):
            assert space.index[col] == pos


def test_vacuous_boundary():
    assert AnsatzSpace.build(1, 4).strata == ()
    assert AnsatzSpace.build(1, 4).n_vars == 0
    assert AnsatzSpace.build(2, 7).strata == ()
    # Twist exactly 3m keeps the constant stratum (degree 0).
    boundary = AnsatzSpace.build(2, 6)
    assert boundary.strata == ((0, 0),)
    with pytest.raises(ValueError):
        AnsatzSpace.build(0, 1)
    with pytest.raises(ValueError):
        AnsatzSpace.build(3, -1)


def test_ansatz_space_structure():
    space = AnsatzSpace.build(3, 3)
    assert space.strata == ((0, 6), (1, 0))
    assert space.columns[0] == AnsatzIndex(0, 0, (0, 0, 6))
    assert space.columns[-1] == AnsatzIndex(1, 0, (0, 0, 0))
    for col in space.columns:
        w = col.stratum
        assert sum(col.exponents) == dict(space.strata)[w]
        assert 0 <= col.split <= space.m - 3 * w


def test_chart_monomial_shift_conventions():
    exps = (2, 3, 5)
    assert chart_monomial_shift(0, exps) == (3, 5)
    assert chart_monomial_shift(1, exps) == (2, 5)
    assert chart_monomial_shift(2, exps) == (2, 3)
    for chart, axes in CHART_AXES.items():
        assert chart_monomial_shift(chart, exps) == (exps[axes[0]], exps[axes[1]])


def test_expansion_slots_and_denominators():
    """Each full block is its summand ``alpha^(m-3w-k) * beta^k * L~_red^w``
    over the denominator ``a^(m-w-k) * b^(k+2w) * c^m * (u*v)^(m-2w)``
    stated in the ``JetExpansion`` docstring, times ``(u*v*a*b*c)^m``;
    checked by exact evaluation at a rational point of ``(u, v, u1, v1, W)``.
    The expansion stores each of those blocks modulo ``u^m * v^m``."""
    m = 3
    space = AnsatzSpace.build(m, 3)
    data = chart_data(FERMAT, 0)
    expansion = expand_ansatz(data, space)
    full = reference_blocks(data, space)
    assert set(expansion.blocks) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)}
    assert expansion.blocks == reduce_blocks(full, m)
    _assert_weighted_homogeneous(expansion.blocks, m)

    point = [Fraction(2), Fraction(-3), Fraction(5), Fraction(7), Fraction(1, 3)]
    u, v, u1, v1, w_jet = point
    forms = reference_forms(data)
    alpha, beta = (
        evaluate(coefficient_map(form, (4, 5))[(0, 0)], point[:4])
        for form in (forms.alpha, forms.beta)
    )
    lam = evaluate(reference_reduced(data), point)
    a, b, c = (evaluate(q, (u, v)) for q in (data.a, data.b, data.c))
    for (w, k), slot_map in full.items():
        value = sum(
            evaluate(poly, (u, v)) * u1**i * v1**j * w_jet**kk
            for (i, j, kk), poly in slot_map.items()
        )
        summand = alpha ** (m - 3 * w - k) * beta**k * lam**w / (
            a ** (m - w - k) * b ** (k + 2 * w) * c**m * (u * v) ** (m - 2 * w)
        )
        assert value == summand * (u * v * a * b * c) ** m


def _assert_weighted_homogeneous(blocks, m):
    """Every jet slot ``u1^i * v1^j * W^kk`` of every block has weight
    ``i + j + 3*kk = m``."""
    for slot_map in blocks.values():
        for (i, j, kk) in slot_map:
            assert i + j + 3 * kk == m


def test_reduced_blocks_match_full_elimination():
    """The expansion's product blocks equal the per-block elimination of the
    second-order jet variables in the reference's ``full_block`` modulo ``u^m * v^m``, on
    several charts and configurations."""
    cases = [
        (FERMAT, 0, 3, 3),
        (FERMAT, 2, 3, 3),
        (FERMAT, 0, 4, 3),
        (CASE72, 0, 3, 3),
    ]
    for triple, chart, m, t in cases:
        data = chart_data(triple, chart)
        space = AnsatzSpace.build(m, t)
        expected = reduce_blocks(reference_blocks(data, space), m)
        blocks = expand_ansatz(data, space).blocks
        assert blocks == expected
        _assert_weighted_homogeneous(blocks, m)


@pytest.mark.extended
@pytest.mark.parametrize("chart", [0, 1, 2], ids=["z0", "z1", "z2"])
def test_case72_blocks_match_full_elimination_weight_5(chart):
    """``case72`` at ``(5, 4)`` mod 5, on every chart: two strata, ``w = 0``
    with splits up to ``beta^5`` and ``w = 1`` with one Wronskian factor;
    compared modulo ``u^5 * v^5``."""
    data = chart_data(CASE72, chart, modulus=5)
    space = AnsatzSpace.build(5, 4)
    expected = reduce_blocks(reference_blocks(data, space), 5)
    assert expand_ansatz(data, space).blocks == expected


@pytest.mark.parametrize(
    "triple, chart, m, t",
    [(FERMAT, 0, 6, 5), (FERMAT, 2, 6, 5), (CASE72, 1, 4, 3)],
    ids=["fermat-z0-6-5", "fermat-z2-6-5", "case72-z1-4-3"],
)
def test_blocks_equal_the_literal_product(triple, chart, m, t):
    """Every block equals
    alpha^(m-3w-k) * beta^k * L~_red^w * a^(w+k) * b^(m-2w-k) * (u*v)^(2w)
    modulo ``u^m * v^m``, multiplied out term by term over GF(5) from the
    reference's forms and its reduced numerator."""
    data = chart_data(triple, chart, modulus=5)
    space = AnsatzSpace.build(m, t)
    forms = reference_forms(data)
    alpha, beta = (
        coefficient_map(form, (4, 5))[(0, 0)].embed(5, (0, 1, 2, 3))
        for form in (forms.alpha, forms.beta)
    )
    lift = lambda p: p.embed(5, (0, 1))  # noqa: E731
    lam = reference_reduced(data)
    a, b = lift(data.a), lift(data.b)
    uv = lift(MultiPoly.variable(2, 0, 5) * MultiPoly.variable(2, 1, 5))
    expected = {}
    for w, _degree in space.strata:
        for k in range(m - 3 * w + 1):
            product = (
                alpha ** (m - 3 * w - k) * beta**k * lam**w
                * a ** (w + k) * b ** (m - 2 * w - k) * uv ** (2 * w)
            )
            expected[(w, k)] = coefficient_map(product, (2, 3, 4))
    blocks = expand_ansatz(data, space).blocks
    assert blocks == reduce_blocks(expected, m)
    _assert_weighted_homogeneous(blocks, m)


def test_zero_factors_expand_like_the_reference():
    """Conics 1 and 3 of this triple agree mod 3 (the CLI rejects the
    prime), so on chart 0 ``alpha``, hence ``X = alpha*b``, and ``L~_red``,
    hence ``C_1``, are 0: the packed expansion must still size its fields
    and give the reference's blocks, with the ``X``-divisible blocks
    empty."""
    triple = ConicTriple(*(
        Conic(row)
        for row in ((2, -1, 1, 0, 0, 0), (1, 2, 1, 0, 0, 0), (1, 1, 2, 0, 0, 0))
    ))
    data = chart_data(triple, 0, modulus=3)
    x, y, c_1 = block_factors(data)
    assert x.is_zero and c_1.is_zero and not y.is_zero
    space = AnsatzSpace.build(2, 5)
    blocks = expand_ansatz(data, space).blocks
    assert blocks == reduce_blocks(reference_blocks(data, space), 2)
    assert blocks[(0, 0)] == blocks[(0, 1)] == {} != blocks[(0, 2)]


def test_multipoly_products_do_not_grow_with_the_weight(monkeypatch):
    """``chart_data`` only dehomogenizes: no ``MultiPoly`` product and no
    derivative.  ``block_factors`` is the one place that differentiates:
    15 partials (five per conic), and 72 products for the frame, ``D`` and
    the three factors ``X``, ``Y`` and ``C_1``.  Their powers and the blocks
    multiply packed maps, so an expansion makes as many calls at ``(6, 5)``
    as at ``(3, 3)``."""
    calls = {"__mul__": 0, "deriv": 0}
    for name in calls:
        method = getattr(MultiPoly, name)

        def counting(self, other, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, other)

        monkeypatch.setattr(MultiPoly, name, counting)
    for m, t in ((3, 3), (5, 4), (6, 5)):
        for key in calls:
            calls[key] = 0
        data = chart_data(FERMAT, 0, modulus=5)
        assert calls == {"__mul__": 0, "deriv": 0}, (m, t)
        expand_ansatz(data, AnsatzSpace.build(m, t))
        assert calls == {"__mul__": 72, "deriv": 15}, (m, t)


def test_obstruction_rows_frozen_shape():
    space = AnsatzSpace.build(3, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0), space)
    rows = list(obstruction_rows(expansion, 5))
    assert len(rows) == 164
    assert rows[0] == ((27, 1), (55, 4), (83, 1), (111, 4))
    assert rows[-1] == ((6, 1), (34, 1), (90, 1))
    for row in rows:
        assert row[0][1] == 1  # normalized leading coefficient
        assert all(1 <= coeff < 5 for _, coeff in row)
        cols = [col for col, _ in row]
        assert cols == sorted(cols)


@pytest.mark.parametrize("triple", [FERMAT, CASE72], ids=["fermat", "case72"])
@pytest.mark.parametrize("m, t", [(3, 3), (4, 3), (3, 0)], ids=["3-3", "4-3", "3-0"])
def test_rows_match_the_reference_rows(triple, m, t):
    """On every chart, at p = 5 and 7, over GF(p) and over ZZ, the rows
    are exactly the reference's, read off the blocks monomial by monomial
    from the definition: same content, same normalization, same order."""
    space = AnsatzSpace.build(m, t)
    for chart in (0, 1, 2):
        over_z = expand_ansatz(chart_data(triple, chart), space)
        for prime in (5, 7):
            over_gf = expand_ansatz(chart_data(triple, chart, modulus=prime), space)
            expected = reference_rows(over_gf, prime)
            assert expected
            assert list(obstruction_rows(over_gf, prime)) == expected
            assert list(obstruction_rows(over_z, prime)) == expected
            assert reference_rows(over_z, prime) == expected


def test_rows_share_one_tuple_per_pair():
    """The rows of a chart hold one ``(column, coefficient)`` tuple per
    distinct pair, however many rows hold it."""
    space = AnsatzSpace.build(4, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0, modulus=5), space)
    rows = list(obstruction_rows(expansion, 5))
    entries = [entry for row in rows for entry in row]
    assert len(set(entries)) < len(entries)
    assert len({id(entry) for entry in entries}) == len(set(entries))


def test_rows_reject_mismatched_prime():
    space = AnsatzSpace.build(3, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0, modulus=5), space)
    with pytest.raises(ValueError):
        obstruction_rows(expansion, 7)


def test_integer_rows_match_modular_rows():
    """Assembling over the integers and reducing mod 5 gives the same rows
    as working mod 5 throughout."""
    space = AnsatzSpace.build(3, 3)
    over_z = expand_ansatz(chart_data(FERMAT, 0, modulus=None), space)
    over_gf = expand_ansatz(chart_data(FERMAT, 0, modulus=5), space)
    assert list(obstruction_rows(over_z, 5)) == list(obstruction_rows(over_gf, 5))


def test_wronskian_vector_annihilates_every_chart():
    space = AnsatzSpace.build(3, 0)
    vector = wronskian_solution_vector(space)
    assert vector == {225: 1}
    assert space.columns[225] == AnsatzIndex(1, 0, (1, 1, 1))
    for chart in (0, 1, 2):
        expansion = expand_ansatz(chart_data(FERMAT, chart), space)
        for row in obstruction_rows(expansion, 5):
            acc = sum(coeff * vector.get(col, 0) for col, coeff in row)
            assert acc % 5 == 0
    with pytest.raises(ValueError):
        wronskian_solution_vector(AnsatzSpace.build(3, 1))


def test_case_m3_dim_counts_by_lattice_enumeration():
    counts = case_m3_dim_counts()

    def simplex(bound):
        return len([(i, j) for i in range(bound + 1) for j in range(bound + 1 - i)])

    assert counts["coefficient_space"] == simplex(2) + 4 * simplex(8) == 186
    assert counts["coefficient_space"] == AnsatzSpace.build(3, 1).n_vars
    assert counts["target_space"] == 4 * simplex(23) == 1200
    assert counts["divisible_subspace"] == 4 * simplex(14) == 480
    assert counts["coefficient_space"] + counts["divisible_subspace"] == 666
    assert 666 < counts["target_space"]


def test_twist_lowering_embedding_shapes():
    source = AnsatzSpace.build(3, 1)
    target = AnsatzSpace.build(3, 0)
    vector = {0: 2, 5: 3}
    image = twist_lowering_embedding(source, target, vector)
    assert len(image) == len(vector)
    for col, value in vector.items():
        idx = source.columns[col]
        e0, e1, e2 = idx.exponents
        lifted = AnsatzIndex(idx.stratum, idx.split, (e0 + 1, e1, e2))
        assert image[target.index[lifted]] == value
    with pytest.raises(ValueError):
        twist_lowering_embedding(source, AnsatzSpace.build(4, 0), vector)
    with pytest.raises(ValueError):
        twist_lowering_embedding(source, source, vector)

