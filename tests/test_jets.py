"""Tests for the jet expansion pipeline.

The centerpiece is an independent oracle: substitute an explicit polynomial
curve z -> (u(z), v(z)) into the chart functions and differentiate the
composites directly in z.  The jet forms, built by chain rule over formal jet
variables, must agree with quotient-rule numerators computed from those
composites.  This checks alpha/beta/gamma and the Wronskian numerator without
reusing any of the chain-rule code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetcert.conics import CHART_AXES, PRESET_TRIPLES, chart_data
from jetcert.jets import (
    AnsatzIndex,
    AnsatzSpace,
    ResidualSecondDerivative,
    case_m3_dim_counts,
    chart_monomial_shift,
    expand_ansatz,
    log_jet_forms,
    obstruction_rows,
    twist_lowering_embedding,
    wronskian_form,
    wronskian_solution_vector,
)
from jetcert.polynomials import MultiPoly, evaluate_fraction

FERMAT = PRESET_TRIPLES["fermat"]
CASE72 = PRESET_TRIPLES["case72"]


def _curve_pair():
    """An explicit integer-coefficient curve z -> (u(z), v(z))."""
    z = MultiPoly.variable(1, 0, None)
    one = MultiPoly.constant(1, 1, None)
    u_poly = one + z + z * z * z * 2
    v_poly = one - z + z * z
    return u_poly, v_poly


def test_jet_forms_match_composite_differentiation():
    """Chain-rule jet numerators agree with direct d/dz of the composites."""
    for preset in (FERMAT, CASE72):
        for chart in (0, 1, 2):
            data = chart_data(preset, chart)
            u_poly, v_poly = _curve_pair()
            du, dv = u_poly.deriv(0), v_poly.deriv(0)
            jets = [u_poly, v_poly, du, dv, du.deriv(0), dv.deriv(0)]

            composite = lambda p: p.evaluate([u_poly, v_poly])  # noqa: E731
            f_a, f_b, f_c = (composite(p) for p in (data.a, data.b, data.c))
            d_a, d_b, d_c = f_a.deriv(0), f_b.deriv(0), f_c.deriv(0)

            forms = log_jet_forms(data)
            f_num = d_a * f_c - d_c * f_a
            g_num = d_b * f_c - d_c * f_b
            assert forms.alpha.evaluate(jets) == f_num
            assert forms.beta.evaluate(jets) == g_num

            # gamma is the quotient-rule numerator of (f_num / (a*c))'.
            ac, bc = f_a * f_c, f_b * f_c
            f_prime = f_num.deriv(0) * ac - f_num * ac.deriv(0)
            g_prime = g_num.deriv(0) * bc - g_num * bc.deriv(0)
            assert forms.gamma_a.evaluate(jets) == f_prime
            assert forms.gamma_b.evaluate(jets) == g_prime


def test_wronskian_matches_log_derivative_wronskian():
    """The cleared numerator equals f*g' - f'*g over a^2*b^2*c^3, computed
    from composite derivatives of an explicit curve."""
    data = chart_data(FERMAT, 0)
    u_poly, v_poly = _curve_pair()
    du, dv = u_poly.deriv(0), v_poly.deriv(0)
    jets = [u_poly, v_poly, du, dv, du.deriv(0), dv.deriv(0)]

    composite = lambda p: p.evaluate([u_poly, v_poly])  # noqa: E731
    f_a, f_b, f_c = (composite(p) for p in (data.a, data.b, data.c))
    d_a, d_b, d_c = f_a.deriv(0), f_b.deriv(0), f_c.deriv(0)
    f_num = d_a * f_c - d_c * f_a
    g_num = d_b * f_c - d_c * f_b
    ac, bc = f_a * f_c, f_b * f_c
    f_prime = f_num.deriv(0) * ac - f_num * ac.deriv(0)
    g_prime = g_num.deriv(0) * bc - g_num * bc.deriv(0)

    wf = wronskian_form(data)
    oracle = f_num * g_prime * f_a - f_prime * g_num * f_b
    assert wf.tilde.evaluate(jets) == oracle

    # The reduced form sees only W = u1*v2 - v1*u2 of the second-order data.
    w_along_curve = du * dv.deriv(0) - dv * du.deriv(0)
    assert wf.reduced.evaluate([u_poly, v_poly, du, dv, w_along_curve]) == (
        wf.tilde.evaluate(jets)
    )


def test_w_coefficient_is_abc_squared_times_determinant():
    for preset in (FERMAT, CASE72):
        for chart in (0, 1, 2):
            data = chart_data(preset, chart)
            wf = wronskian_form(data)
            expected = data.a * data.b * data.c * data.c * data.det
            assert wf.w_coefficient == expected


def test_jet_weight_scaling():
    """Rescaling (u1, v1) by s and (u2, v2) by s^2 scales alpha by s,
    gamma by s^2 and the Wronskian numerator by s^3."""
    data = chart_data(FERMAT, 0)
    forms = log_jet_forms(data)
    tilde = wronskian_form(data).tilde
    rng = random.Random(20240816)
    for _ in range(5):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        for s in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            scaled = point[:2] + [s * point[2], s * point[3],
                                  s * s * point[4], s * s * point[5]]
            for form, weight in ((forms.alpha, 1), (forms.beta, 1),
                                 (forms.gamma_a, 2), (forms.gamma_b, 2),
                                 (tilde, 3)):
                base = evaluate_fraction(form, point)
                assert evaluate_fraction(form, scaled) == s**weight * base


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
    assert AnsatzSpace.build(1, 4).is_vacuous
    assert AnsatzSpace.build(1, 4).n_vars == 0
    assert AnsatzSpace.build(2, 7).is_vacuous
    # Twist exactly 3m keeps the constant stratum (degree 0).
    boundary = AnsatzSpace.build(2, 6)
    assert not boundary.is_vacuous
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
    space = AnsatzSpace.build(3, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0), space)
    assert expansion.slots() == [(0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0), (0, 0, 1)]
    assert set(expansion.blocks) == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)}
    assert expansion.denominators == {
        (0, 0): (3, 0, 3, 3),
        (0, 1): (2, 1, 3, 3),
        (0, 2): (1, 2, 3, 3),
        (0, 3): (0, 3, 3, 3),
        (1, 0): (2, 2, 3, 1),
    }
    for slot_map in expansion.blocks.values():
        for (i, j, kk) in slot_map:
            assert i + j + 3 * kk == space.m


def test_reduced_blocks_match_full_elimination():
    """The incremental reduced path equals per-block elimination of the
    second-order jet variables, on several charts and configurations."""
    cases = [
        (FERMAT, 0, 3, 3),
        (FERMAT, 2, 3, 3),
        (FERMAT, 0, 4, 3),
        (CASE72, 0, 3, 3),
    ]
    for triple, chart, m, t in cases:
        data = chart_data(triple, chart)
        space = AnsatzSpace.build(m, t)
        reduced = expand_ansatz(data, space, second_order="reduced")
        full = expand_ansatz(data, space, second_order="full")
        assert reduced.blocks == full.blocks


@pytest.mark.parametrize(
    "triple, chart, m, t",
    [(FERMAT, 0, 6, 5), (FERMAT, 2, 6, 5), (CASE72, 1, 4, 3)],
    ids=["fermat-z0-6-5", "fermat-z2-6-5", "case72-z1-4-3"],
)
def test_blocks_equal_the_literal_product(triple, chart, m, t):
    """Every block equals
    alpha^(m-3w-k) * beta^k * L~^w * a^(w+k) * b^(m-2w-k) * (u*v)^(2w),
    multiplied out term by term over GF(5) as assembly does."""
    data = chart_data(triple, chart, modulus=5)
    space = AnsatzSpace.build(m, t)
    forms = log_jet_forms(data)
    alpha, beta = (
        form.coefficient_map((4, 5))[(0, 0)].embed(5, (0, 1, 2, 3))
        for form in (forms.alpha, forms.beta)
    )
    lift = lambda p: p.embed(5, (0, 1))  # noqa: E731
    lam = wronskian_form(data).reduced
    a, b = lift(data.a), lift(data.b)
    uv = lift(MultiPoly.variable(2, 0, 5) * MultiPoly.variable(2, 1, 5))
    blocks = expand_ansatz(data, space).blocks
    expected_keys = set()
    for w, _degree in space.strata:
        for k in range(m - 3 * w + 1):
            expected_keys.add((w, k))
            product = (
                alpha ** (m - 3 * w - k) * beta**k * lam**w
                * a ** (w + k) * b ** (m - 2 * w - k) * uv ** (2 * w)
            )
            assert blocks[(w, k)] == product.coefficient_map((2, 3, 4))
    assert set(blocks) == expected_keys


def test_expand_rejects_unknown_mode():
    space = AnsatzSpace.build(3, 3)
    with pytest.raises(ValueError):
        expand_ansatz(chart_data(FERMAT, 0), space, second_order="fast")


def test_obstruction_rows_frozen_shape():
    space = AnsatzSpace.build(3, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0), space)
    rows = obstruction_rows(expansion, 5)
    assert len(rows) == 164
    first = rows[0]
    assert (first.chart, first.slot, first.monomial) == (0, (0, 3, 0), (0, 3))
    assert first.entries == ((27, 1), (55, 4), (83, 1), (111, 4))
    last = rows[-1]
    assert (last.slot, last.monomial) == ((3, 0, 0), (15, 2))
    assert last.entries == ((6, 1), (34, 1), (90, 1))
    for row in rows:
        assert row.entries[0][1] == 1  # normalized leading coefficient
        assert all(1 <= coeff < 5 for _, coeff in row.entries)
        cols = [col for col, _ in row.entries]
        assert cols == sorted(cols)
        i, j = row.monomial
        assert i < space.m or j < space.m


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
    assert obstruction_rows(over_z, 5) == obstruction_rows(over_gf, 5)


def test_materialized_numerator_is_linear_and_consistent():
    """materialize_numerator must be degree one in every unknown, and its
    monomial coefficients must reproduce the obstruction rows."""
    space = AnsatzSpace.build(3, 3)
    expansion = expand_ansatz(chart_data(FERMAT, 0), space)
    slot = (0, 3, 0)
    numerator = expansion.materialize_numerator(slot)
    n = space.n_vars
    for exps in numerator.terms:
        assert sum(exps[2:]) == 1
    # Extract the coefficient of u^0 * v^3 and compare with the first row.
    groups = numerator.coefficient_map((0, 1))
    linear_form = groups[(0, 3)]
    bucket = {}
    for exps, coeff in linear_form.terms.items():
        (col,) = [i for i, e in enumerate(exps) if e]
        bucket[col] = coeff % 5
    lead_col = min(bucket)
    inv = pow(bucket[lead_col], 3, 5)
    normalized = tuple(
        (col, bucket[col] * inv % 5) for col in sorted(bucket) if bucket[col]
    )
    assert normalized == ((27, 1), (55, 4), (83, 1), (111, 4))
    assert n == 113


def test_wronskian_vector_annihilates_every_chart():
    space = AnsatzSpace.build(3, 0)
    vector = wronskian_solution_vector(space)
    assert vector == {225: 1}
    assert space.columns[225] == AnsatzIndex(1, 0, (1, 1, 1))
    for chart in (0, 1, 2):
        expansion = expand_ansatz(chart_data(FERMAT, chart), space)
        for row in obstruction_rows(expansion, 5):
            acc = sum(coeff * vector.get(col, 0) for col, coeff in row.entries)
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


def test_residual_second_derivative_is_exceptional():
    """The elimination invariants hold on real inputs; the guard type exists
    for implementation faults and is part of the public surface."""
    assert issubclass(ResidualSecondDerivative, Exception)
