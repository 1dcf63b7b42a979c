"""Tests for chart geometry, the Jacobian cubic, and genericity decisions."""

from __future__ import annotations

import cmath
import random

import pytest

from jetcert.conics import (
    CHART_IDENTITY_SIGN,
    Conic,
    ConicTriple,
    DegenerateConic,
    PRESET_TRIPLES,
    _no_common_point,
    binary_form_is_squarefree,
    chart_data,
    conics_transverse,
    genericity_report,
    homogenize_chart,
    is_coordinate_triangle,
    jacobian_cubic,
    resultant_in_variable,
)
from jetcert.polynomials import MultiPoly

FERMAT = PRESET_TRIPLES["fermat"]
CASE72 = PRESET_TRIPLES["case72"]


# -- independent oracles -----------------------------------------------------------


def _det3_cofactor_second_row(rows):
    """Determinant oracle: cofactor expansion along the *second* row
    (different traversal than the implementation's first-row expansion)."""
    total = MultiPoly.zero(rows[0][0].arity, rows[0][0].modulus)
    for j in range(3):
        entry = rows[1][j]
        if entry.is_zero:
            continue
        minor_rows = [rows[0], rows[2]]
        minor = [[minor_rows[i][k] for k in range(3) if k != j] for i in range(2)]
        det2 = minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0]
        signed = entry * det2
        total = total + (signed if (1 + j) % 2 == 0 else -signed)
    return total


def _jacobian_oracle(triple: ConicTriple) -> MultiPoly:
    polys = triple.polynomials()
    rows = [[polys[j].deriv(i) for j in range(3)] for i in range(3)]
    return _det3_cofactor_second_row(rows)


def _durand_kerner(coeffs: list[complex]) -> list[complex]:
    """All complex roots of a dense univariate polynomial (ascending
    coefficients), by Durand-Kerner iteration."""
    degree = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]

    def value(z: complex) -> complex:
        acc = 0j
        for c in reversed(monic):
            acc = acc * z + c
        return acc

    roots = [(0.4 + 0.9j) ** k for k in range(1, degree + 1)]
    for _ in range(500):
        new_roots = []
        for i, r in enumerate(roots):
            denom = 1.0 + 0j
            for j, other in enumerate(roots):
                if i != j:
                    denom *= r - other
            new_roots.append(r - value(r) / denom)
        shift = max(abs(a - b) for a, b in zip(roots, new_roots))
        roots = new_roots
        if shift < 1e-13:
            break
    return roots


def _common_points_numeric(a: Conic, b: Conic) -> list[tuple[complex, complex]]:
    """Numeric intersection points of two conics on the chart Z2 = 1."""
    pa = a.polynomial().dehomogenize(2)
    pb = b.polynomial().dehomogenize(2)
    res = resultant_in_variable(
        a.polynomial(), b.polynomial(), 1
    )  # eliminates Z1 -> poly in (Z0, Z2)
    res_aff = res.dehomogenize(2).dehomogenize(1)
    coeffs = [0.0] * (max(e[0] for e in res_aff.terms) + 1)
    for (e,), c in res_aff.terms.items():
        coeffs[e] = float(c)
    points = []
    for x in _durand_kerner([complex(c) for c in coeffs]):
        # y-roots of the quadratic b(x, y).
        by = [0j, 0j, 0j]
        for (ex, ey), c in pb.terms.items():
            by[ey] += c * x**ex
        if abs(by[2]) > 1e-9:
            disc = cmath.sqrt(by[1] ** 2 - 4 * by[2] * by[0])
            candidates = [(-by[1] + disc) / (2 * by[2]), (-by[1] - disc) / (2 * by[2])]
        elif abs(by[1]) > 1e-9:
            candidates = [-by[0] / by[1]]
        else:
            candidates = []
        for y in candidates:
            if abs(pa.evaluate([x, y])) < 1e-6:
                points.append((x, y))
    return points


# -- Jacobian cubic ----------------------------------------------------------------


def test_fermat_jacobian_is_coordinate_triangle():
    cubic = jacobian_cubic(FERMAT)
    assert cubic == MultiPoly(3, {(1, 1, 1): 32})
    assert cubic.to_str(("Z0", "Z1", "Z2")) == "32*Z0*Z1*Z2"
    assert is_coordinate_triangle(cubic)


def test_second_preset_jacobian_matches_cofactor_oracle():
    cubic = jacobian_cubic(CASE72)
    assert cubic == _jacobian_oracle(CASE72)
    # Frozen expansion (computed by the oracle once, kept as regression).
    assert cubic.terms == {
        (3, 0, 0): 2,
        (2, 1, 0): -14,
        (1, 1, 1): -34,
        (1, 0, 2): -14,
        (0, 3, 0): 2,
        (0, 2, 1): -14,
        (0, 0, 3): 2,
    }
    assert not is_coordinate_triangle(cubic)


def test_repeated_conic_jacobian_vanishes():
    triple = ConicTriple(FERMAT.first, FERMAT.first, FERMAT.third)
    assert jacobian_cubic(triple).is_zero


def test_jacobian_oracle_agrees_on_random_triples():
    rng = random.Random(2024)
    for _ in range(25):
        conics = []
        while len(conics) < 3:
            coeffs = tuple(rng.randint(-4, 4) for _ in range(6))
            if any(coeffs):
                conics.append(Conic(coeffs))
        triple = ConicTriple(*conics)
        assert jacobian_cubic(triple) == _jacobian_oracle(triple)


def test_jacobian_degree_is_three_or_zero():
    rng = random.Random(77)
    for _ in range(50):
        conics = []
        while len(conics) < 3:
            coeffs = tuple(rng.randint(-3, 3) for _ in range(6))
            if any(coeffs):
                conics.append(Conic(coeffs))
        cubic = jacobian_cubic(ConicTriple(*conics))
        assert cubic.is_zero or (
            cubic.is_homogeneous() and cubic.total_degree() == 3
        )


# -- chart data --------------------------------------------------------------------


def test_fermat_chart0_worked_values():
    data = chart_data(FERMAT, 0)
    assert data.variables == ("x", "y")
    assert data.a == MultiPoly(2, {(0, 0): 2, (2, 0): 1, (0, 2): 1})
    assert data.a.to_str(data.variables) == "x^2 + y^2 + 2"
    assert data.det == MultiPoly(2, {(1, 1): 16})
    assert data.a.deriv(0) == MultiPoly(2, {(1, 0): 2})
    assert data.a.deriv(0).deriv(0) == MultiPoly.constant(2, 2)
    assert data.a.deriv(0).deriv(1) == MultiPoly.zero(2)


def test_fermat_chart2_worked_values():
    data = chart_data(FERMAT, 2)
    assert data.variables == ("t", "x")
    assert data.c == MultiPoly(2, {(0, 0): 2, (2, 0): 1, (0, 2): 1})
    assert data.det == MultiPoly(2, {(1, 1): 16})


def test_chart_identity_all_charts_and_triples():
    """Z_i * J == sign_i * 2 * Z_i * homogenized(D) as forms, i.e. the
    Jacobian cubic equals the signed doubled chart determinant."""
    rng = random.Random(55)
    triples = [FERMAT, CASE72]
    while len(triples) < 7:
        conics = []
        while len(conics) < 3:
            coeffs = tuple(rng.randint(-4, 4) for _ in range(6))
            if any(coeffs) and Conic(coeffs).is_smooth():
                conics.append(Conic(coeffs))
        triples.append(ConicTriple(*conics))
    for triple in triples:
        cubic = jacobian_cubic(triple)
        for chart in range(3):
            det = chart_data(triple, chart).det
            assert det.total_degree() <= 3
            lifted = homogenize_chart(det, chart, 3)
            assert cubic == lifted.scale(2 * CHART_IDENTITY_SIGN[chart])


def test_chart_data_respects_modulus():
    data = chart_data(FERMAT, 0, modulus=5)
    assert data.a.modulus == 5
    assert data.det == MultiPoly(2, {(1, 1): 1}, modulus=5)  # 16 mod 5


# -- conic ingestion ---------------------------------------------------------------


def test_from_rationals_clears_to_primitive_vector():
    conic = Conic.from_rationals(["1/2", "1/3", 0, 0, 0, "-1"])
    assert conic.coefficients == (3, 2, 0, 0, 0, -6)
    flipped = Conic.from_rationals(["-1/2", "-1/3", 0, 0, 0, "1"])
    assert flipped.coefficients == conic.coefficients


def test_canonical_representative_is_scale_invariant():
    base = Conic((2, 4, -6, 0, 2, 0))
    assert base.canonical().coefficients == (1, 2, -3, 0, 1, 0)
    assert Conic(tuple(-3 * c for c in base.coefficients)).canonical() == base.canonical()


def test_singular_conic_detected():
    assert not Conic((1, 0, 0, 0, 0, 0)).is_smooth()  # double line Z0^2
    assert not Conic((0, 0, 0, 1, 0, 0)).is_smooth()  # line pair Z0*Z1
    assert not Conic((1, -1, 0, 0, 0, 0)).is_smooth()  # line pair (Z0-Z1)(Z0+Z1)
    assert Conic((1, 1, 1, 0, 0, 0)).is_smooth()


# -- resultants and binary forms ---------------------------------------------------


def test_resultant_worked_examples():
    z0 = MultiPoly.variable(3, 0)
    z1 = MultiPoly.variable(3, 1)
    z2 = MultiPoly.variable(3, 2)
    r = resultant_in_variable(z0 - z1, z0 - z2, 0)
    assert r == z1 - z2
    assert resultant_in_variable(z0 - z1, z0 - z1, 0).is_zero
    # Res_x(x^2 - z1^2, x - 2*z1) = lead^2 * f(2 z1) = 3 z1^2 (up to sign).
    f = z0 * z0 - z1 * z1
    g = z0 - z1.scale(2)
    r2 = resultant_in_variable(f, g, 0)
    assert r2 in (z1 * z1 * 3, (z1 * z1).scale(-3))


def test_binary_form_squarefree_judgments():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert binary_form_is_squarefree(x * y * (x + y))
    assert binary_form_is_squarefree(x**3 + y**3)
    assert not binary_form_is_squarefree((x - y) * (x - y))
    assert not binary_form_is_squarefree(x * x * y)  # double root on x = 0
    assert not binary_form_is_squarefree(MultiPoly.zero(2))
    assert binary_form_is_squarefree(x + y)


# -- genericity --------------------------------------------------------------------


def test_fermat_genericity_report():
    report = genericity_report(FERMAT)
    assert report.snc is True
    assert report.tp1 is True
    # The Jacobian cubic *is* the coordinate triangle, so its restriction to
    # each coordinate line vanishes identically: tp2 must be false.
    assert report.tp2 is False


def test_second_preset_genericity_report():
    report = genericity_report(CASE72)
    assert report.snc is True
    assert report.tp1 is True
    assert report.tp2 is True


def test_repeated_conic_reports_snc_false_without_raising():
    triple = ConicTriple(FERMAT.first, FERMAT.first, FERMAT.third)
    report = genericity_report(triple)
    assert report.snc is False


def test_singular_member_raises_degenerate_conic():
    triple = ConicTriple(Conic((1, 0, 0, 0, 0, 0)), FERMAT.second, FERMAT.third)
    with pytest.raises(DegenerateConic):
        genericity_report(triple)


def test_tangent_conics_are_not_transverse():
    # Both smooth; they meet only at [1:0:0] with multiplicity four.
    a = Conic((0, -1, 0, 0, 1, 0))  # Z0*Z2 - Z1^2
    b = Conic((0, -1, 1, 0, 1, 0))  # Z0*Z2 - Z1^2 + Z2^2
    assert a.is_smooth() and b.is_smooth()
    assert not conics_transverse(a, b)
    report = genericity_report(ConicTriple(a, b, FERMAT.third))
    assert report.snc is False


def test_triple_sharing_a_point_fails_the_common_point_check():
    a = Conic((0, -1, 0, 0, 1, 0))  # Z0*Z2 - Z1^2, passes [0:0:1]
    b = Conic((-1, 0, 0, 0, 0, 1))  # Z1*Z2 - Z0^2, passes [0:0:1]
    c = Conic((-1, -1, 0, 0, 1, 1))  # passes [0:0:1]
    assert all(q.is_smooth() for q in (a, b, c))
    assert not _no_common_point(a, b, c)
    assert _no_common_point(*FERMAT.conics())
    assert genericity_report(ConicTriple(a, b, c)).snc is False


def test_genericity_stable_under_integer_rescaling():
    for scale in (-1, 3, -7):
        scaled = ConicTriple(
            *(Conic(tuple(scale * v for v in q.coefficients)) for q in CASE72.conics())
        )
        assert genericity_report(scaled) == genericity_report(CASE72)
    assert jacobian_cubic(
        ConicTriple(
            *(Conic(tuple(2 * v for v in q.coefficients)) for q in FERMAT.conics())
        )
    ) == jacobian_cubic(FERMAT).scale(8)


def test_pairwise_intersections_numeric_cross_check():
    """Independent floating-point oracle: each pair of the second preset's
    conics meets in four distinct affine points, and the third conic avoids
    all of them (so snc=True is corroborated numerically)."""
    conics = CASE72.conics()
    for i in range(3):
        for j in range(i + 1, 3):
            k = 3 - i - j
            points = _common_points_numeric(conics[i], conics[j])
            assert len(points) == 4
            for idx1 in range(4):
                for idx2 in range(idx1 + 1, 4):
                    dx = points[idx1][0] - points[idx2][0]
                    dy = points[idx1][1] - points[idx2][1]
                    assert abs(dx) + abs(dy) > 1e-6
            third = conics[k].polynomial().dehomogenize(2)
            for x, y in points:
                assert abs(third.evaluate([x, y])) > 1e-6
