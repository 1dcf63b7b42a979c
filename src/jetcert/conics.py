"""Plane conic configurations over the integers: chart data, the Jacobian
cubic, and exact genericity decision procedures.

Conventions
-----------
* Projective coordinates are ``(Z0, Z1, Z2)``; a conic is stored as the
  integer coefficient vector ``(c200, c020, c002, c110, c101, c011)`` of
  ``c200*Z0^2 + c020*Z1^2 + c002*Z2^2 + c110*Z0*Z1 + c101*Z0*Z2 + c011*Z1*Z2``.
  Rational input is cleared to a primitive integer vector on ingestion.
* Affine charts are indexed by the coordinate set to 1.  Chart ``i`` uses the
  two remaining coordinates, in index order, as its variables:
  chart 0 -> ``(x, y) = (Z1, Z2)``, chart 1 -> ``(t, y) = (Z0, Z2)``,
  chart 2 -> ``(t, x) = (Z0, Z1)``.
* ``D`` on a chart is ``det [[a, b, c], [a_u, b_u, c_u], [a_v, b_v, c_v]]``
  (first row the three dehomogenized conics, then their first partials).
  Degree-2 Euler relations give the chart identity
  ``Z_i * J = sign_i * 2 * (homogenized D)`` with signs ``(+, -, +)`` for
  charts ``(0, 1, 2)``; it is asserted in the tests.

All decision procedures are exact (integer/rational arithmetic); the ones in
the negative direction (tangency, triple point) are certified by exhausting a
deterministic projection family whose size beats a counting bound on the
"bad" projection centers, so both answers are proofs, not heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .polynomials import MultiPoly


class DegenerateConic(Exception):
    """Raised when a genericity question is asked about a singular conic."""


#: Variable names of each affine chart, in (u, v) order.
CHART_VARIABLES: dict[int, tuple[str, str]] = {
    0: ("x", "y"),
    1: ("t", "y"),
    2: ("t", "x"),
}

#: Projective indices of each chart's (u, v) variables.
CHART_AXES: dict[int, tuple[int, int]] = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

#: Sign of the chart identity  Z_i * J == sign * 2 * homogenized(D).
CHART_IDENTITY_SIGN: dict[int, int] = {0: 1, 1: -1, 2: 1}


def _normalize_integer_vector(values: Sequence[int]) -> tuple[int, ...]:
    """Divide by the content and make the first nonzero entry positive."""
    g = 0
    for v in values:
        g = gcd(g, v)
    if g == 0:
        raise DegenerateConic("the zero vector is not a conic")
    vec = [v // g for v in values]
    for v in vec:
        if v:
            if v < 0:
                vec = [-w for w in vec]
            break
    return tuple(vec)


@dataclass(frozen=True)
class Conic:
    """A plane conic with integer coefficients (possibly non-primitive)."""

    coefficients: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.coefficients) != 6:
            raise ValueError("a conic needs exactly 6 coefficients")
        if not any(self.coefficients):
            raise ValueError("the zero polynomial is not a conic")

    @classmethod
    def from_rationals(cls, values: Iterable) -> "Conic":
        """Build from rationals (ints, strings like ``"1/2"``, Fractions),
        clearing denominators to a primitive integer vector."""
        fracs = [Fraction(v) for v in values]
        if len(fracs) != 6:
            raise ValueError("a conic needs exactly 6 coefficients")
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // gcd(lcm, f.denominator)
        ints = [int(f * lcm) for f in fracs]
        return cls(_normalize_integer_vector(ints))

    def canonical(self) -> "Conic":
        """Primitive representative with positive first nonzero coefficient."""
        return Conic(_normalize_integer_vector(self.coefficients))

    def polynomial(self, modulus: int | None = None) -> MultiPoly:
        c200, c020, c002, c110, c101, c011 = self.coefficients
        terms = {
            (2, 0, 0): c200,
            (0, 2, 0): c020,
            (0, 0, 2): c002,
            (1, 1, 0): c110,
            (1, 0, 1): c101,
            (0, 1, 1): c011,
        }
        return MultiPoly(3, terms, modulus)

    def gram_matrix_doubled(self) -> tuple[tuple[int, int, int], ...]:
        """The integer matrix of second partials (twice the Gram matrix)."""
        c200, c020, c002, c110, c101, c011 = self.coefficients
        return (
            (2 * c200, c110, c101),
            (c110, 2 * c020, c011),
            (c101, c011, 2 * c002),
        )

    def determinant(self) -> int:
        """Determinant of :meth:`gram_matrix_doubled`: zero iff the conic is
        singular over Q, and divisible by an odd prime ``p`` iff it is
        singular mod ``p`` (it is always even)."""
        return _det3_int(self.gram_matrix_doubled())

    def is_smooth(self) -> bool:
        return self.determinant() != 0

    def evaluate(self, point: Sequence[int]) -> int:
        z0, z1, z2 = point
        c200, c020, c002, c110, c101, c011 = self.coefficients
        return (
            c200 * z0 * z0
            + c020 * z1 * z1
            + c002 * z2 * z2
            + c110 * z0 * z1
            + c101 * z0 * z2
            + c011 * z1 * z2
        )


@dataclass(frozen=True)
class ConicTriple:
    """An ordered triple of conics.  Validity for a particular purpose
    (smoothness, distinctness, transversality) is checked where it matters:
    :func:`genericity_report` and the verification entry points."""

    first: Conic
    second: Conic
    third: Conic

    def conics(self) -> tuple[Conic, Conic, Conic]:
        return (self.first, self.second, self.third)

    def polynomials(self, modulus: int | None = None) -> tuple[MultiPoly, ...]:
        return tuple(c.polynomial(modulus) for c in self.conics())


#: Built-in configurations available to the command line by name.
PRESET_TRIPLES: dict[str, ConicTriple] = {
    # Circle-like triple whose Jacobian cubic is the coordinate triangle.
    "fermat": ConicTriple(
        Conic((2, 1, 1, 0, 0, 0)),
        Conic((1, 2, 1, 0, 0, 0)),
        Conic((1, 1, 2, 0, 0, 0)),
    ),
    # A second built-in triple with a dense (non-monomial) Jacobian cubic,
    # used as a cross-check configuration for the genericity machinery.
    "case72": ConicTriple(
        Conic((2, 1, 1, 1, 0, 0)),
        Conic((1, 1, 2, 0, 1, 0)),
        Conic((1, 2, 1, 0, 0, 1)),
    ),
}


@dataclass(frozen=True)
class ChartData:
    """Dehomogenized data of a conic triple on one affine chart.

    Fields ``a, b, c`` are the three conics restricted to the chart (arity-2
    polynomials in the chart variables ``(u, v)``) and ``det`` is the 3x3
    determinant described in the module docstring.  Partial derivatives are
    taken by the callers that need them, with :meth:`MultiPoly.deriv`.
    """

    chart: int
    variables: tuple[str, str]
    a: MultiPoly
    b: MultiPoly
    c: MultiPoly
    det: MultiPoly


def _det3_int(m: Sequence[Sequence[int]]) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _det_poly_matrix(rows: list[list[MultiPoly]]) -> MultiPoly:
    """Determinant of a square matrix of polynomials by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    sample = rows[0][0]
    total = MultiPoly.zero(sample.arity, sample.modulus)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        cofactor = entry * _det_poly_matrix(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def jacobian_cubic(triple: ConicTriple, modulus: int | None = None) -> MultiPoly:
    """Determinant of the matrix of first partials of the three conics.

    Row ``i`` holds the partials with respect to ``Z_i``; column ``j`` is the
    ``j``-th conic.  The result is a degree-3 form (or identically zero for
    degenerate configurations such as a repeated conic).
    """
    polys = triple.polynomials(modulus)
    rows = [[polys[j].deriv(i) for j in range(3)] for i in range(3)]
    return _det_poly_matrix(rows)


def is_coordinate_triangle(cubic: MultiPoly) -> bool:
    """True when the cubic is a nonzero constant times ``Z0*Z1*Z2``."""
    return len(cubic.terms) == 1 and next(iter(cubic.terms)) == (1, 1, 1)


def chart_data(
    triple: ConicTriple, chart: int, modulus: int | None = None
) -> ChartData:
    """Restrict a triple to one affine chart and compute its determinant."""
    if chart not in CHART_AXES:
        raise ValueError(f"chart must be one of 0, 1, 2; got {chart!r}")
    polys = triple.polynomials(modulus)
    dehom = [p.dehomogenize(chart) for p in polys]
    det = _det_poly_matrix(
        [
            dehom,
            [p.deriv(0) for p in dehom],
            [p.deriv(1) for p in dehom],
        ]
    )
    return ChartData(
        chart=chart,
        variables=CHART_VARIABLES[chart],
        a=dehom[0],
        b=dehom[1],
        c=dehom[2],
        det=det,
    )


def homogenize_chart(poly: MultiPoly, chart: int, degree: int) -> MultiPoly:
    """Lift an arity-2 chart polynomial to a degree-``degree`` form in
    ``(Z0, Z1, Z2)`` by restoring the chart variable's power."""
    axis_u, axis_v = CHART_AXES[chart]
    out: dict[tuple[int, int, int], int] = {}
    for (eu, ev), coeff in poly.terms.items():
        missing = degree - eu - ev
        if missing < 0:
            raise ValueError("degree too small to homogenize this polynomial")
        exps = [0, 0, 0]
        exps[axis_u] = eu
        exps[axis_v] = ev
        exps[chart] = missing
        out[tuple(exps)] = coeff
    return MultiPoly(3, out, poly.modulus)


# -- exact univariate / binary-form helpers ---------------------------------------


def _univariate_coeffs(poly: MultiPoly) -> list[Fraction]:
    """Dense coefficient list (ascending degree) of an arity-1 polynomial."""
    if poly.arity != 1:
        raise ValueError("expected a univariate polynomial")
    if poly.is_zero:
        return []
    deg = max(e[0] for e in poly.terms)
    out = [Fraction(0)] * (deg + 1)
    for (e,), c in poly.terms.items():
        out[e] = Fraction(c)
    return out


def _trim(f: list[Fraction]) -> list[Fraction]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mod(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Remainder of dense univariate division (g nonzero)."""
    f = list(f)
    dg = len(g) - 1
    lead = g[-1]
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = f[-1] / lead
        for i in range(dg + 1):
            f[shift + i] -= factor * g[i]
        _trim(f)
        if not f:
            break
    return f


def _gcd_degree(f: list[Fraction], g: list[Fraction]) -> int:
    """Degree of gcd of two dense univariate polynomials (-1 if both zero)."""
    f = _trim(list(f))
    g = _trim(list(g))
    while g:
        f, g = g, _poly_mod(f, g)
    return len(f) - 1


def binary_form_is_squarefree(form: MultiPoly) -> bool:
    """Whether a nonzero homogeneous arity-2 integer form has only simple
    roots in the projective line (including the root at infinity)."""
    if form.is_zero:
        return False
    if not form.is_homogeneous():
        raise ValueError("expected a homogeneous binary form")
    degree = form.total_degree()
    f_poly = form.dehomogenize(1)  # set second variable to 1
    f = _univariate_coeffs(f_poly)
    infinity_multiplicity = degree - (len(f) - 1)
    if infinity_multiplicity > 1:
        return False
    fprime = [f[i] * i for i in range(1, len(f))]
    return _gcd_degree(f, fprime) <= 0


def _binary_gcd_degree(form1: MultiPoly, form2: MultiPoly) -> int:
    """Degree of the gcd of two nonzero binary forms (projective count)."""
    d1, d2 = form1.total_degree(), form2.total_degree()
    f1 = _univariate_coeffs(form1.dehomogenize(1))
    f2 = _univariate_coeffs(form2.dehomogenize(1))
    inf1 = d1 - (len(f1) - 1)
    inf2 = d2 - (len(f2) - 1)
    return min(inf1, inf2) + max(_gcd_degree(f1, f2), 0)


def _coeffs_in_variable(poly: MultiPoly, var: int) -> list[MultiPoly]:
    """Dense list of coefficient polynomials of ``var^k`` (the variable's
    exponent is zeroed in the returned coefficients, arity preserved)."""
    deg = poly.degree_in(var)
    if deg < 0:
        return []
    grouped = poly.coefficient_map((var,))
    keep = [i for i in range(poly.arity) if i != var]
    out = []
    for k in range(deg + 1):
        coeff = grouped.get((k,))
        if coeff is None:
            out.append(MultiPoly.zero(poly.arity, poly.modulus))
        else:
            out.append(coeff.embed(poly.arity, tuple(keep)))
    return out


def resultant_in_variable(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Sylvester resultant of two arity-3 polynomials with respect to one
    variable; the result does not involve ``var``."""
    fc = _coeffs_in_variable(f, var)
    gc = _coeffs_in_variable(g, var)
    m = len(fc) - 1
    n = len(gc) - 1
    if m < 0 or n < 0:
        return MultiPoly.zero(f.arity, f.modulus)
    size = m + n
    if size == 0:
        return MultiPoly.constant(f.arity, 1, f.modulus)
    zero = MultiPoly.zero(f.arity, f.modulus)
    rows: list[list[MultiPoly]] = []
    for shift in range(n):
        row = [zero] * size
        for i, c in enumerate(fc):
            row[shift + (m - i)] = c
        rows.append([row[j] for j in range(size)])
    for shift in range(m):
        row = [zero] * size
        for i, c in enumerate(gc):
            row[shift + (n - i)] = c
        rows.append([row[j] for j in range(size)])
    return _det_poly_matrix(rows)


# -- genericity decision procedures -------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    """Answers of the three exact genericity questions about a triple:

    * ``snc``: the three conics are pairwise transverse and have no common
      point (simple normal crossings of the conic part).
    * ``tp1``: the Jacobian cubic meets each conic transversally.
    * ``tp2``: the Jacobian cubic meets each coordinate line in three
      distinct simple points.
    """

    snc: bool
    tp1: bool
    tp2: bool


def _pencil_cubic(a: Conic, b: Conic) -> MultiPoly:
    """det(l * Ga + mu * Gb) as a binary cubic in (l, mu), with Ga, Gb the
    doubled Gram matrices."""
    ga = a.gram_matrix_doubled()
    gb = b.gram_matrix_doubled()
    entries = [
        [
            MultiPoly(2, {(1, 0): ga[i][j], (0, 1): gb[i][j]})
            for j in range(3)
        ]
        for i in range(3)
    ]
    return _det_poly_matrix(entries)


def conics_transverse(a: Conic, b: Conic) -> bool:
    """Exact test: two smooth conics meet in four distinct points iff the
    pencil determinant cubic is squarefree."""
    return binary_form_is_squarefree(_pencil_cubic(a, b))


def _shear(poly: MultiPoly, s: int) -> MultiPoly:
    """Coordinate shear sending [s : s^2 : 1] to [0 : 0 : 1]:
    Z0 -> Z0 + s*Z2, Z1 -> Z1 + s^2*Z2 (unimodular, inverse exists)."""
    z0 = MultiPoly.variable(3, 0, poly.modulus)
    z1 = MultiPoly.variable(3, 1, poly.modulus)
    z2 = MultiPoly.variable(3, 2, poly.modulus)
    return poly.substitute(0, z0 + z2.scale(s)).substitute(1, z1 + z2.scale(s * s))


#: Projection centers [s : s^2 : 1].  47 candidates beat the worst-case count
#: of unusable centers (<= 44) in every procedure below, so exhausting the
#: family certifies the negative answer.
_PROJECTION_PARAMETERS = tuple(range(47))


def _no_common_point(a: Conic, b: Conic, c: Conic) -> bool:
    """True iff the three conics have no common projective point.

    For a projection center off all three conics, a common point would force
    the two elimination resultants to share a root; a center for which they
    share none certifies emptiness.  If the triple has no common point, at
    most 16 point-pair alignment lines (at most 2 centers each) plus at most
    12 on-conic parameters can spoil a center, so 47 candidates suffice.
    """
    pa, pb, pc = (x.polynomial() for x in (a, b, c))
    for s in _PROJECTION_PARAMETERS:
        center = (s, s * s, 1)
        if a.evaluate(center) == 0 or b.evaluate(center) == 0 or c.evaluate(center) == 0:
            continue
        sa, sb, sc = (_shear(p, s) for p in (pa, pb, pc))
        r_ab = resultant_in_variable(sa, sb, 2).dehomogenize(2)
        r_ac = resultant_in_variable(sa, sc, 2).dehomogenize(2)
        if r_ab.is_zero or r_ac.is_zero:
            continue  # shared component; cannot certify with this center
        if _binary_gcd_degree(r_ab, r_ac) == 0:
            return True
    return False


def _cubic_meets_conic_transversally(conic: Conic, cubic: MultiPoly) -> bool:
    """True iff the cubic meets the conic in six distinct transverse points.

    A projection from a center off both curves turns the intersection cycle
    into the roots of a degree-6 binary resultant; the cycle is reduced iff
    some projection yields a squarefree resultant.  At most 15 alignment
    lines (2 centers each) plus at most 10 on-curve parameters can spoil a
    center; a genuine tangency spoils every center, so exhausting the family
    decides both directions.
    """
    if cubic.is_zero:
        return False
    p = conic.polynomial()
    for s in _PROJECTION_PARAMETERS:
        center = (s, s * s, 1)
        if conic.evaluate(center) == 0 or cubic.evaluate(center) == 0:
            continue
        r = resultant_in_variable(_shear(p, s), _shear(cubic, s), 2).dehomogenize(2)
        if r.is_zero:
            continue  # shared component
        if binary_form_is_squarefree(r):
            return True
    return False


def _cubic_meets_coordinate_lines_transversally(cubic: MultiPoly) -> bool:
    """True iff the cubic's restriction to each line Z_i = 0 is a binary
    cubic with three simple roots."""
    zero = MultiPoly.zero(3, cubic.modulus)
    for i in range(3):
        restricted = cubic.substitute(i, zero).dehomogenize(i)
        if restricted.is_zero or restricted.total_degree() != 3:
            return False
        if not binary_form_is_squarefree(restricted):
            return False
    return True


def genericity_report(triple: ConicTriple) -> GenericityReport:
    """Exact genericity report; raises :class:`DegenerateConic` when some
    member of the triple is singular."""
    conics = triple.conics()
    for conic in conics:
        if not conic.is_smooth():
            raise DegenerateConic(f"singular conic {conic.coefficients}")
    a, b, c = conics
    pairwise = (
        conics_transverse(a, b)
        and conics_transverse(a, c)
        and conics_transverse(b, c)
    )
    snc = pairwise and _no_common_point(a, b, c)
    cubic = jacobian_cubic(triple)
    tp1 = (
        _cubic_meets_conic_transversally(a, cubic)
        and _cubic_meets_conic_transversally(b, cubic)
        and _cubic_meets_conic_transversally(c, cubic)
    )
    tp2 = _cubic_meets_coordinate_lines_transversally(cubic)
    return GenericityReport(snc=snc, tp1=tp1, tp2=tp2)
