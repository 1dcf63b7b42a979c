"""Plane conic configurations over the integers: chart restriction, the
Jacobian cubic, and the exact simple-normal-crossings test.

Conventions
-----------
* Projective coordinates are ``(Z0, Z1, Z2)``; a conic is stored as the
  integer coefficient vector ``(c200, c020, c002, c110, c101, c011)`` of
  ``c200*Z0^2 + c020*Z1^2 + c002*Z2^2 + c110*Z0*Z1 + c101*Z0*Z2 + c011*Z1*Z2``.
  Rational input is cleared to a primitive integer vector on ingestion.
* Affine charts are indexed by the coordinate set to 1.  Chart ``i`` uses the
  two remaining coordinates, in index order, as its variables:
  chart 0 -> ``(x, y) = (Z1, Z2)``, chart 1 -> ``(t, y) = (Z0, Z2)``,
  chart 2 -> ``(t, x) = (Z0, Z1)``.  :func:`chart_data` only
  dehomogenizes; the chart determinant ``D`` and its identity with the
  Jacobian cubic belong to the jet frame (:mod:`jetcert.jets`).

Simple normal crossings of a triple of smooth conics is decided by two exact
integer closed forms:

* two conics are transverse iff the discriminant of their pencil cubic
  ``det(l * Ga + mu * Gb)`` is nonzero (:func:`pencil_discriminant`);
* three conics share no point iff Salmon's determinant, a constant multiple
  of their resultant, is nonzero (:func:`salmon_determinant`; Cox, Little
  and O'Shea, *Using Algebraic Geometry*, Ch. 3 Sec. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .polynomials import MultiPoly


class DegenerateConic(Exception):
    """Raised when a coefficient vector is not a conic (all zero)."""


#: Projective indices of each chart's (u, v) variables.
CHART_AXES: dict[int, tuple[int, int]] = {0: (1, 2), 1: (0, 2), 2: (0, 1)}

#: Exponents of the six quadratic monomials, in the order of
#: :attr:`Conic.coefficients`.
QUADRIC_MONOMIALS: tuple[tuple[int, int, int], ...] = (
    (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
)


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
        return MultiPoly(3, dict(zip(QUADRIC_MONOMIALS, self.coefficients)), modulus)

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
        return _det_int(self.gram_matrix_doubled())

    def is_smooth(self) -> bool:
        return self.determinant() != 0


@dataclass(frozen=True)
class ConicTriple:
    """An ordered triple of conics.  Smoothness, distinctness and simple
    normal crossings are checked by the verification entry points
    (``cli.check_configuration``), not here."""

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
    # used as a cross-check configuration.
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
    polynomials in the chart variables ``(u, v)``).  Their partial
    derivatives, and the chart determinant built from them, are taken by
    :func:`jetcert.jets.block_factors`.
    """

    chart: int
    a: MultiPoly
    b: MultiPoly
    c: MultiPoly


def _det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
    """Restrict a triple to one affine chart."""
    if chart not in CHART_AXES:
        raise ValueError(f"chart must be one of 0, 1, 2; got {chart!r}")
    a, b, c = (p.dehomogenize(chart) for p in triple.polynomials(modulus))
    return ChartData(chart=chart, a=a, b=b, c=c)


# -- simple normal crossings -----------------------------------------------------


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


def pencil_discriminant(a: Conic, b: Conic) -> int:
    """Discriminant of the pencil cubic ``det(l * Ga + mu * Gb)``.

    Two smooth conics meet in four distinct points iff the cubic has three
    distinct roots, that is iff this is nonzero.
    """
    terms = _pencil_cubic(a, b).terms
    p, q, r, s = (terms.get(e, 0) for e in ((3, 0), (2, 1), (1, 2), (0, 3)))
    return (
        q * q * r * r
        - 4 * p * r**3
        - 4 * q**3 * s
        - 27 * p * p * s * s
        + 18 * p * q * r * s
    )


def salmon_determinant(triple: ConicTriple, jacobian: MultiPoly) -> int:
    """Salmon's 6x6 determinant: rows are the coefficient vectors of the
    three conics and of the three partials of their Jacobian cubic.

    It is ``-512`` times the resultant of the three quadrics, so it is zero
    iff the conics share a projective point.  ``jacobian`` must be
    :func:`jacobian_cubic` of ``triple``.
    """
    rows = [conic.coefficients for conic in triple.conics()]
    for i in range(3):
        partial = jacobian.deriv(i).terms
        rows.append(tuple(partial.get(e, 0) for e in QUADRIC_MONOMIALS))
    return _det_int(rows)
