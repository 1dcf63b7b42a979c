"""Tests for chart geometry, the Jacobian cubic, and the two closed forms
that decide simple normal crossings (pencil discriminant, Salmon's
determinant)."""

from __future__ import annotations

import cmath
import itertools
import random

from jetcert.conics import (
    CHART_AXES,
    Conic,
    ConicTriple,
    PRESET_TRIPLES,
    _det_int,
    chart_data,
    is_coordinate_triangle,
    jacobian_cubic,
    pencil_discriminant,
    salmon_determinant,
)
from jetcert.polynomials import MultiPoly

from _util import chart_determinant, coefficient_map, evaluate

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


def _quadratic_resultant_in_y(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Res_y of two polynomials in (x, y) that are quadratic in y, as a
    polynomial in x: (AF - CD)^2 - (AE - BD)(BF - CE) for f = Ay^2 + By + C
    and g = Dy^2 + Ey + F."""
    zero = MultiPoly.zero(1)
    cf, cg = coefficient_map(f, (1,)), coefficient_map(g, (1,))
    a, b, c = (cf.get((k,), zero) for k in (2, 1, 0))
    d, e, f_ = (cg.get((k,), zero) for k in (2, 1, 0))
    return (a * f_ - c * d) ** 2 - (a * e - b * d) * (b * f_ - c * e)


def _common_points_numeric(a: Conic, b: Conic) -> list[tuple[complex, complex]]:
    """Numeric intersection points of two conics on the chart Z2 = 1."""
    pa = a.polynomial().dehomogenize(2)
    pb = b.polynomial().dehomogenize(2)
    res_aff = _quadratic_resultant_in_y(pa, pb)  # eliminates Z1 -> poly in Z0
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
            if abs(evaluate(pa, [x, y])) < 1e-6:
                points.append((x, y))
    return points


# -- Jacobian cubic ----------------------------------------------------------------


def test_fermat_jacobian_is_coordinate_triangle():
    cubic = jacobian_cubic(FERMAT)
    assert cubic == MultiPoly(3, {(1, 1, 1): 32})
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
        assert all(sum(e) == 3 for e in cubic.terms)


# -- chart data --------------------------------------------------------------------


def test_fermat_chart0_worked_values():
    data = chart_data(FERMAT, 0)
    assert data.a == MultiPoly(2, {(0, 0): 2, (2, 0): 1, (0, 2): 1})
    assert chart_determinant(data) == MultiPoly(2, {(1, 1): 16})
    assert data.a.deriv(0) == MultiPoly(2, {(1, 0): 2})
    assert data.a.deriv(0).deriv(0) == MultiPoly.constant(2, 2)
    assert data.a.deriv(0).deriv(1) == MultiPoly.zero(2)


def test_fermat_chart2_worked_values():
    data = chart_data(FERMAT, 2)
    assert data.c == MultiPoly(2, {(0, 0): 2, (2, 0): 1, (0, 2): 1})
    assert chart_determinant(data) == MultiPoly(2, {(1, 1): 16})


#: Sign of the chart identity  Z_i * J == sign * 2 * homogenized(D).
_CHART_IDENTITY_SIGN = {0: 1, 1: -1, 2: 1}


def _homogenize_chart(poly: MultiPoly, chart: int, degree: int) -> MultiPoly:
    """Lift an arity-2 chart polynomial to a degree-``degree`` form in
    ``(Z0, Z1, Z2)`` by restoring the chart variable's power."""
    axis_u, axis_v = CHART_AXES[chart]
    out = {}
    for (eu, ev), coeff in poly.terms.items():
        exps = [0, 0, 0]
        exps[axis_u] = eu
        exps[axis_v] = ev
        exps[chart] = degree - eu - ev
        out[tuple(exps)] = coeff
    return MultiPoly(3, out, poly.modulus)


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
            det = chart_determinant(chart_data(triple, chart))
            assert max(map(sum, det.terms)) <= 3
            lifted = _homogenize_chart(det, chart, 3)
            assert cubic == lifted.scale(2 * _CHART_IDENTITY_SIGN[chart])


def test_chart_data_respects_modulus():
    data = chart_data(FERMAT, 0, modulus=5)
    assert data.a.modulus == 5
    assert chart_determinant(data) == MultiPoly(2, {(1, 1): 1}, modulus=5)  # 16 mod 5


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


# -- simple normal crossings -------------------------------------------------------

TANGENT_PAIR = (
    Conic((0, -1, 0, 0, 1, 0)),  # Z0*Z2 - Z1^2
    Conic((0, -1, 1, 0, 1, 0)),  # Z0*Z2 - Z1^2 + Z2^2
)
SHARED_POINT = ConicTriple(
    Conic((0, -1, 0, 0, 1, 0)),  # Z0*Z2 - Z1^2, passes [0:0:1]
    Conic((-1, 0, 0, 0, 0, 1)),  # Z1*Z2 - Z0^2, passes [0:0:1]
    Conic((-1, -1, 0, 0, 1, 1)),  # passes [0:0:1]
)


def _leibniz_det(m):
    """Determinant oracle: the permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_integer_determinant_matches_permutation_expansion():
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(1, 6)
        # Small entries with many zeros exercise the row swaps.
        m = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        assert _det_int(m) == _leibniz_det(m)


def test_tangent_conics_are_not_transverse():
    # Both smooth; they meet only at [1:0:0] with multiplicity four.
    a, b = TANGENT_PAIR
    assert a.is_smooth() and b.is_smooth()
    assert pencil_discriminant(a, b) == 0
    for x, y in itertools.combinations(FERMAT.conics(), 2):
        assert pencil_discriminant(x, y) != 0


def test_triple_sharing_a_point_fails_the_common_point_check():
    assert all(q.is_smooth() for q in SHARED_POINT.conics())
    assert salmon_determinant(SHARED_POINT, jacobian_cubic(SHARED_POINT)) == 0
    assert salmon_determinant(FERMAT, jacobian_cubic(FERMAT)) != 0
    assert salmon_determinant(CASE72, jacobian_cubic(CASE72)) != 0


def test_salmon_determinant_is_minus_512_times_the_resultant():
    # Res(Z0^2, Z1^2, Z2^2) = 1.
    squares = ConicTriple(
        Conic((1, 0, 0, 0, 0, 0)), Conic((0, 1, 0, 0, 0, 0)), Conic((0, 0, 1, 0, 0, 0))
    )
    assert salmon_determinant(squares, jacobian_cubic(squares)) == -512


def test_repeated_conic_reports_snc_false_without_raising():
    triple = ConicTriple(FERMAT.first, FERMAT.first, FERMAT.third)
    assert pencil_discriminant(FERMAT.first, FERMAT.first) == 0
    assert salmon_determinant(triple, jacobian_cubic(triple)) == 0


def test_genericity_stable_under_integer_rescaling():
    """Both closed forms are homogeneous of degree 12 in the coefficients,
    so rescaling the conics rescales them and never changes the verdict."""
    triples = (CASE72, SHARED_POINT, ConicTriple(*TANGENT_PAIR, FERMAT.third))
    for scale in (-1, 3, -7):
        for triple in triples:
            scaled = ConicTriple(
                *(Conic(tuple(scale * v for v in q.coefficients)) for q in triple.conics())
            )
            for (x, y), (sx, sy) in zip(
                itertools.combinations(triple.conics(), 2),
                itertools.combinations(scaled.conics(), 2),
            ):
                assert pencil_discriminant(sx, sy) == scale**12 * pencil_discriminant(x, y)
            assert salmon_determinant(
                scaled, jacobian_cubic(scaled)
            ) == scale**12 * salmon_determinant(triple, jacobian_cubic(triple))
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
                assert abs(evaluate(third, [x, y])) > 1e-6
