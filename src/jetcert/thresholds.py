"""Closed-form threshold calculators and the level-2 intersection calculator.

Everything here is exact: algebraic numbers of the form ``u + v*sqrt(r)``
are kept as rational pairs plus an integer radicand, and only renderings
are floating-point.  The module covers four calculators:

* ``delta1`` — the positivity threshold ratio for 1-jet differentials on the
  complement of three curves with given degrees, with both roots of the
  defining quadratic and the derived threshold constant.
* ``two_jet_phi`` — the quadratic controlling the restricted 2-jet setting
  for three conics, with its exact roots.
* ``tau_roots`` — the roots of ``m*tau^2 - 3*(4m - t)*tau + 12*(m - t)``,
  the degree-4 self-intersection condition on the level-2 jet tower.
* ``tower_reduce`` / ``tower_integral`` / ``z_cube_intersection`` — a term
  rewriting engine for the cohomology of the two-step jet tower over the
  plane, normalizing by the two quadratic fiber relations alone and pairing
  degree-4 classes to numbers.  Tower classes are exact
  :class:`~jetcert.polynomials.MultiPoly` values in the five classes
  ``u1, u2, h, c1, c2`` with rational coefficients; ``codimensions`` gives
  their weighted codimensions.  ``z_cube_intersection`` evaluates the
  degree-4 self-intersection ``(2*u1 + u2 - tau*h)^3 * (b1*u1 + b2*u2 - t*h)``
  as a cubic in ``tau`` whose twelve coefficient pairings the engine derives
  once, on first use, and caches.

``exceptional_pairs`` enumerates the finitely many weight/twist pairs that
escape both analytic regimes for a given constant and therefore need an
explicit vanishing certificate.  Its guard and the slope ``g(c)`` are exact
rationals, computed once per call; the loop over the weights compares
integers only, cross-multiplied by the positive numerator of the constant,
so the enumeration stays exact at any ``m_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import comb, isqrt, lcm
from typing import Iterable

from .polynomials import MultiPoly


class DegenerateTotalDegree(Exception):
    """Total degree 3 makes the defining quadratic collapse."""


class DegreeMismatch(Exception):
    """Numeric pairing requires a pure codimension-4 class."""


class SplitMismatch(Exception):
    """The two bundle weights must sum to the jet weight."""


class ConstantTooSmall(Exception):
    """The enumerator's constant must exceed (3 + sqrt(6))/3."""


# -- exact quadratic-extension numbers -------------------------------------------------


_FOLD_TRIAL_BOUND = 10_000


def _fold_square(radicand: int) -> tuple[int, int]:
    """Extract a square factor ``s^2`` of ``radicand``, returning
    ``(s, radicand/s^2)``.

    Trial division runs up to a fixed bound, followed by a perfect-square
    check on the remainder, so the fold is complete for every radicand below
    the bound's fourth power (~10^16) and for perfect squares of any size.
    A huge radicand with a hidden square factor of a large prime stays
    partially folded — harmless, because arithmetic only ever combines
    values carrying the constructor's own radicand."""
    if radicand < 0:
        raise ValueError("radicand must be nonnegative")
    square_part = 1
    remainder = radicand
    factor = 2
    while factor <= _FOLD_TRIAL_BOUND and factor * factor <= remainder:
        while remainder % (factor * factor) == 0:
            remainder //= factor * factor
            square_part *= factor
        factor += 1
    if remainder:
        root = isqrt(remainder)
        if root * root == remainder:
            square_part *= root
            remainder = 1
    return square_part, remainder


@dataclass(frozen=True)
class QuadExt:
    """Exact number ``rational + coefficient * sqrt(radicand)``.

    The radicand is square-free and positive, or 0 for plain rationals;
    construction through :meth:`make` maintains that normal form, so
    equality of values coincides with structural equality."""

    rational: Fraction
    coefficient: Fraction
    radicand: int

    @classmethod
    def make(cls, rational, coefficient=0, radicand: int = 0) -> "QuadExt":
        u = Fraction(rational)
        v = Fraction(coefficient)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if v == 0 or radicand == 0:
            return cls(u, Fraction(0), 0)
        square, reduced = _fold_square(radicand)
        v *= square
        if reduced == 1:
            return cls(u + v, Fraction(0), 0)
        return cls(u, v, reduced)

    @property
    def is_rational(self) -> bool:
        return self.radicand == 0

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        return QuadExt.make(Fraction(other))

    def _common_radicand(self, other: "QuadExt") -> int:
        if self.radicand and other.radicand and self.radicand != other.radicand:
            raise ValueError(
                f"incompatible radicands {self.radicand} and {other.radicand}"
            )
        return self.radicand or other.radicand

    def __add__(self, other) -> "QuadExt":
        other = self._coerce(other)
        radicand = self._common_radicand(other)
        return QuadExt.make(
            self.rational + other.rational,
            self.coefficient + other.coefficient,
            radicand,
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.rational, -self.coefficient, self.radicand)

    def __sub__(self, other) -> "QuadExt":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QuadExt":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "QuadExt":
        other = self._coerce(other)
        radicand = self._common_radicand(other)
        return QuadExt.make(
            self.rational * other.rational
            + self.coefficient * other.coefficient * radicand,
            self.rational * other.coefficient + self.coefficient * other.rational,
            radicand,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        if self.rational == 0 and self.coefficient == 0:
            raise ZeroDivisionError("inverse of zero")
        norm = self.rational**2 - self.coefficient**2 * self.radicand
        # norm = 0 would force sqrt(radicand) rational, impossible in normal form.
        return QuadExt.make(
            self.rational / norm, -self.coefficient / norm, self.radicand
        )

    def __truediv__(self, other) -> "QuadExt":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "QuadExt":
        return self._coerce(other) * self.inverse()

    def sign(self) -> int:
        u, v = self.rational, self.coefficient
        if v == 0:
            return (u > 0) - (u < 0)
        if u == 0:
            return 1 if v > 0 else -1
        if u > 0 and v > 0:
            return 1
        if u < 0 and v < 0:
            return -1
        # Opposite signs: compare squares on the dominant side.
        if u > 0:  # v < 0: positive iff u^2 > v^2 r
            return 1 if u * u > v * v * self.radicand else -1
        return 1 if u * u < v * v * self.radicand else -1

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - self._coerce(other)).sign() >= 0

    def to_decimal(self, digits: int = 30) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = digits + 15
            value = Decimal(self.rational.numerator) / Decimal(
                self.rational.denominator
            )
            if self.radicand:
                root = Decimal(self.radicand).sqrt()
                value += (
                    Decimal(self.coefficient.numerator)
                    / Decimal(self.coefficient.denominator)
                    * root
                )
            ctx.prec = digits
            return +value

    def __float__(self) -> float:
        return float(self.to_decimal(25))

    def as_dict(self, digits: int = 30) -> dict:
        return {
            "rational": str(self.rational),
            "coefficient": str(self.coefficient),
            "radicand": self.radicand,
            "decimal": str(self.to_decimal(digits)),
        }

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.rational)
        return f"{self.rational} + {self.coefficient}*sqrt({self.radicand})"


#: Strict lower bound for the enumerator's constant: (3 + sqrt(6))/3.
MINIMUM_CONSTANT = QuadExt.make(1, Fraction(1, 3), 6)


# -- 1-jet threshold -------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeTriple:
    """Degrees of the three curves, ordered ``d1 >= d2 >= d3 >= 1``."""

    d1: int
    d2: int
    d3: int

    def __post_init__(self):
        if not (self.d1 >= self.d2 >= self.d3 >= 1):
            raise ValueError("degrees must satisfy d1 >= d2 >= d3 >= 1")

    @classmethod
    def of(cls, *degrees: int) -> "DegreeTriple":
        if len(degrees) != 3:
            raise ValueError("exactly three degrees are required")
        d1, d2, d3 = sorted(degrees, reverse=True)
        return cls(d1, d2, d3)

    @property
    def total(self) -> int:
        return self.d1 + self.d2 + self.d3

    @property
    def pair_sum(self) -> int:
        return self.d1 * self.d2 + self.d2 * self.d3 + self.d3 * self.d1


@dataclass(frozen=True)
class OneJetThresholds:
    """Both roots of the 1-jet positivity quadratic plus derived data.

    ``delta1 <= delta2`` are the roots of ``phi``; ``threshold_constant`` is
    ``1 / ((d - 3) * delta1)``, the break-even multiplier (absent when
    ``delta1 = 0``).  ``hypothesis_ok`` records whether the configuration
    satisfies ``d1 >= 3 and d3 >= 2``; ``negative_radicand`` flags a
    discriminant below zero (reported, never raised), in which case the
    roots are absent."""

    degrees: DegreeTriple
    radicand: int
    negative_radicand: bool
    hypothesis_ok: bool
    delta1: QuadExt | None
    delta2: QuadExt | None
    threshold_constant: QuadExt | None


def delta1(degrees: DegreeTriple) -> OneJetThresholds:
    """1-jet threshold data for three curves of the given degrees."""
    d = degrees.total
    if d == 3:
        raise DegenerateTotalDegree("total degree 3 collapses the quadratic")
    radicand = 9 * (d - 1) ** 2 - 12 * degrees.pair_sum
    hypothesis_ok = degrees.d1 >= 3 and degrees.d3 >= 2
    if radicand < 0:
        return OneJetThresholds(
            degrees=degrees,
            radicand=radicand,
            negative_radicand=True,
            hypothesis_ok=hypothesis_ok,
            delta1=None,
            delta2=None,
            threshold_constant=None,
        )
    spread = Fraction(1, 6 * (d - 3))
    half = Fraction(1, 2)
    root1 = QuadExt.make(half, -spread, radicand)
    root2 = QuadExt.make(half, spread, radicand)
    if d - 3 < 0:
        root1, root2 = root2, root1
    constant = None
    if root1.sign() != 0:
        constant = ((d - 3) * root1).inverse()
    return OneJetThresholds(
        degrees=degrees,
        radicand=radicand,
        negative_radicand=False,
        hypothesis_ok=hypothesis_ok,
        delta1=root1,
        delta2=root2,
        threshold_constant=constant,
    )


# -- 2-jet quadratic for three conics ---------------------------------------------------


def two_jet_phi(delta) -> Fraction:
    """The three-conic 2-jet characteristic quadratic ``54*d^2 - 48*d + 4``."""
    delta = Fraction(delta)
    return 54 * delta**2 - 48 * delta + 4


def two_jet_phi_roots() -> tuple[QuadExt, QuadExt]:
    """Exact roots ``(4 -+ sqrt(10)) / 9`` of :func:`two_jet_phi`."""
    lower = QuadExt.make(Fraction(4, 9), Fraction(-1, 9), 10)
    upper = QuadExt.make(Fraction(4, 9), Fraction(1, 9), 10)
    return lower, upper


@dataclass(frozen=True)
class TwoJetConstants:
    """Roots of the 2-jet quadratic and the two derived constants:
    three times the lower root, and its reciprocal ``1 / (3 * delta1)``."""

    lower_root: QuadExt
    upper_root: QuadExt
    tripled_lower_root: QuadExt
    reciprocal_constant: QuadExt


@cache
def two_jet_constants() -> TwoJetConstants:
    lower, upper = two_jet_phi_roots()
    tripled = 3 * lower
    return TwoJetConstants(
        lower_root=lower,
        upper_root=upper,
        tripled_lower_root=tripled,
        reciprocal_constant=tripled.inverse(),
    )


# -- tau roots --------------------------------------------------------------------------


def tau_roots(m: int, t: int) -> tuple[QuadExt, QuadExt]:
    """Roots ``tau1 < tau2`` of ``m*tau^2 - 3*(4m - t)*tau + 12*(m - t)``."""
    if m < 1:
        raise ValueError("weight m must be at least 1")
    if t < 0:
        raise ValueError("twist t must be nonnegative")
    radicand = 9 * (4 * m - t) ** 2 - 48 * m * (m - t)
    center = Fraction(3 * (4 * m - t), 2 * m)
    spread = Fraction(1, 2 * m)
    return (
        QuadExt.make(center, -spread, radicand),
        QuadExt.make(center, spread, radicand),
    )


def two_over_tau1(m: int, t: int) -> QuadExt:
    """The constant ``2 / tau1``; requires ``t < m`` so that ``tau1 > 0``."""
    if not t < m:
        raise ValueError("2/tau1 needs t < m, where tau1 is positive")
    tau1, _ = tau_roots(m, t)
    return 2 * tau1.inverse()


# -- intersection ring of the two-step jet tower ----------------------------------------

# Tower classes are exact MultiPolys in five variables (u1, u2, h, c1, c2):
# the tautological classes ``u1, u2``, the hyperplane class ``h`` and the
# formal bundle classes ``c1, c2``, of codimension 1, 1, 1, 1, 2.
_WEIGHTS = (1, 1, 1, 1, 2)

U1, U2, H, C1, C2 = (MultiPoly.variable(5, i) for i in range(5))

#: Fiber relation on the first bundle level: u1^2 = -c1*u1 - c2.
_U1_SQUARE = -(C1 * U1) - C2
#: Fiber relation on the second level: u2^2 = -(c1 + u1)*u2 - (2*c2 + c1*u1).
_U2_SQUARE = -((C1 + U1) * U2) - (C2.scale(2) + C1 * U1)


def codimensions(element: MultiPoly) -> set[int]:
    """The weighted codimensions of the terms of a tower class."""
    return {sum(e * w for e, w in zip(key, _WEIGHTS)) for key in element.terms}


def tower_reduce(element: MultiPoly) -> MultiPoly:
    """Normal form with every term's ``u1``- and ``u2``-exponent at most 1.

    The two fiber relations are the only rewrite rules; the ``u1`` one fires
    first when a term violates both bounds.  The normal form does not depend
    on that order (the rewriting is confluent), which the tests check with a
    reducer of their own that fires the ``u2`` rule first."""
    pending = dict(element.terms)
    settled: dict[tuple[int, ...], Fraction] = {}
    while pending:
        key, value = pending.popitem()
        if not value:
            continue
        if key[0] >= 2:
            slot, rule = 0, _U1_SQUARE
        elif key[1] >= 2:
            slot, rule = 1, _U2_SQUARE
        else:
            settled[key] = settled.get(key, 0) + value
            continue
        stripped = list(key)
        stripped[slot] -= 2
        for rkey, rvalue in rule.terms.items():
            shifted = tuple(a + b for a, b in zip(stripped, rkey))
            pending[shifted] = pending.get(shifted, 0) + value * rvalue
    return MultiPoly(5, settled)


#: Degree-2 base pairings in the three-conic specialization:
#: c1^2 = 9, c2 = 9, c1*h = -3, h^2 = 1.
THREE_CONIC_PAIRINGS = {
    (2, 0): Fraction(9),
    (0, 1): Fraction(9),
    (1, 0): Fraction(-3),
    (0, 0): Fraction(1),
}


def tower_integral(
    element: MultiPoly, *, symbolic: bool = False
) -> Fraction | dict[tuple[int, int], Fraction]:
    """Pair a codimension-4 class against the fundamental class of the
    two-step tower over the plane.

    After normalization, a monomial pairs nonzero only when it is linear in
    both ``u1`` and ``u2`` and its base part has codimension 2.  The base
    pairing is determined by the four numbers ``c1^2, c2, c1*h, h^2``;
    ``symbolic=True`` keeps them formal and returns the coefficient of each
    as a dict keyed by ``(c1-exponent, c2-exponent)`` (the ``h``-exponent is
    forced), which is how the split-independence question is settled without
    assuming the specialization."""
    reduced = tower_reduce(element)
    degrees = codimensions(reduced)
    if degrees - {4}:
        raise DegreeMismatch(f"pairing needs pure codimension 4, found {sorted(degrees)}")
    symbols: dict[tuple[int, int], Fraction] = {}
    for (e_u1, e_u2, e_h, e_c1, e_c2), value in reduced.terms.items():
        if e_u1 != 1 or e_u2 != 1:
            continue  # fiber integration kills everything else
        base_key = (e_c1, e_c2)
        if e_c1 + 2 * e_c2 + e_h != 2:
            raise DegreeMismatch("base class of a u1*u2 term must have codimension 2")
        symbols[base_key] = symbols.get(base_key, Fraction(0)) + value
    symbols = {key: value for key, value in symbols.items() if value}
    if symbolic:
        return symbols
    total = Fraction(0)
    for (e_c1, e_c2), value in symbols.items():
        total += value * THREE_CONIC_PAIRINGS[(e_c1, e_c2)]
    return total


def quartic_monomial_table() -> dict[str, Fraction]:
    """The five pure quartic pairings in the three-conic specialization,
    derived through the rewrite engine (not hard-coded)."""
    table = {}
    for i in range(5):
        element = (U1 ** (4 - i)) * (U2**i)
        table[f"u1^{4 - i}*u2^{i}"] = tower_integral(element)
    return table


@cache
def _cube_pairings() -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The pairings behind :func:`z_cube_intersection`, derived through the
    rewrite engine on first use.

    By the binomial theorem the coefficient of ``(-tau)^k`` in
    ``(2*u1 + u2 - tau*h)^3`` is ``C(3,k) * (2*u1 + u2)^(3-k) * h^k``.  Entry
    ``k`` of the result holds its pairings with ``u1``, ``u2`` and ``h``, as
    integer numerators over the common denominator returned first."""
    base = U1.scale(2) + U2
    pairings = [
        [
            tower_integral((base ** (3 - k) * H**k * line).scale(comb(3, k)))
            for line in (U1, U2, H)
        ]
        for k in range(4)
    ]
    denominator = lcm(*(value.denominator for row in pairings for value in row))
    return denominator, tuple(
        tuple(int(value * denominator) for value in row) for row in pairings
    )


def z_cube_intersection(m: int, t: int, tau, b1: int, b2: int) -> Fraction:
    """Evaluate ``(2*u1 + u2 - tau*h)^3 * (b1*u1 + b2*u2 - t*h)`` on the
    tower, in the three-conic specialization.

    The value is the cubic ``sum_k (b1*A_k + b2*B_k - t*H_k) * (-tau)^k`` in
    ``tau``, whose coefficient pairings ``A_k, B_k, H_k`` come from
    :func:`_cube_pairings`; each call evaluates it in integers on the
    numerator and denominator of ``tau``.  The result is independent of the
    split ``(b1, b2)`` and equals
    ``3 * (m*tau^2 - 3*(4m - t)*tau + 12*(m - t))``."""
    if b1 < 0 or b2 < 0:
        raise ValueError("bundle weights must be nonnegative")
    if b1 + b2 != m:
        raise SplitMismatch(f"split {b1}+{b2} does not sum to the weight {m}")
    tau = Fraction(tau)
    p, q = tau.numerator, tau.denominator
    denominator, rows = _cube_pairings()
    numerator = sum(
        (b1 * a + b2 * b - t * h) * (-p) ** k * q ** (3 - k)
        for k, (a, b, h) in enumerate(rows)
    )
    return Fraction(numerator, denominator * q**3)


def split_independence_report(m: int, t: int, tau) -> dict:
    """Evaluate the degree-4 product symbolically for every split and report
    whether the answer depends on the split when the four base pairings are
    kept formal."""
    tau = Fraction(tau)
    cube = (U1.scale(2) + U2 - H.scale(tau)) ** 3
    outcomes = []
    for b1 in range(m + 1):
        line = U1.scale(b1) + U2.scale(m - b1) - H.scale(t)
        outcomes.append(tower_integral(cube * line, symbolic=True))
    independent = all(outcome == outcomes[0] for outcome in outcomes)
    return {
        "m": m,
        "t": t,
        "tau": str(tau),
        "independent_for_general_pairings": independent,
        "symbolic_values": [
            {f"c1^{k1}*c2^{k2}": str(v) for (k1, k2), v in sorted(out.items())}
            for out in outcomes
        ],
    }


# -- exceptional-pair enumerator ---------------------------------------------------------


def vanishing_slope(c) -> Fraction:
    """The twist-to-weight slope ``g(c) = 2*(3c^2 - 6c + 1) / (3c*(2c - 1))``
    below which the tower argument already certifies vanishing."""
    c = Fraction(c)
    return 2 * (3 * c**2 - 6 * c + 1) / (3 * c * (2 * c - 1))


def exceptional_pairs(c, m_max: int) -> list[tuple[int, int]]:
    """For each weight ``3 <= m <= m_max``, the minimal twist ``t >= 1``
    with ``g(c)*m <= t < m/c + 7``, when such a twist exists.

    These are the pairs not already covered by either analytic regime (the
    slope bound is strict on its side; the affine cutoff is non-strict on
    its side), so each listed pair needs an explicit certificate.

    The guard and the slope are exact rationals, computed once per call;
    the loop over the weights runs in integers.  With ``g(c) = n/d`` and
    ``c = a/b`` in lowest terms (``b, d > 0``), the twist is
    ``t = max(1, ceil(n*m/d))``, a floor division since ``d > 0``.  The
    cutoff ``t < m/c + 7`` reads ``t - 7 < m*b/a``, and multiplying it by
    ``a`` gives ``(t - 7)*a < m*b`` with the same direction and the same
    strictness, because the guard makes ``a`` positive."""
    c = Fraction(c)
    if not MINIMUM_CONSTANT < c:
        raise ConstantTooSmall(f"constant must exceed (3 + sqrt(6))/3, got {c}")
    slope = vanishing_slope(c)
    n, d = slope.numerator, slope.denominator
    a, b = c.numerator, c.denominator
    pairs: list[tuple[int, int]] = []
    for m in range(3, m_max + 1):
        t = max(1, -(-n * m // d))  # ceil(g(c)*m)
        if (t - 7) * a < m * b:  # t < m/c + 7
            pairs.append((m, t))
    return pairs


# -- aggregated report -------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    """Exact threshold data plus the decimal renderings used for display."""

    one_jet: OneJetThresholds | None
    two_jet: TwoJetConstants
    tau: tuple[int, int, QuadExt, QuadExt] | None

    def as_dict(self, digits: int = 30) -> dict:
        def render(value: QuadExt | None):
            return None if value is None else value.as_dict(digits)

        out: dict = {
            "two_jet": {
                "phi_at_zero": str(two_jet_phi(0)),
                "lower_root": render(self.two_jet.lower_root),
                "upper_root": render(self.two_jet.upper_root),
                "tripled_lower_root": render(self.two_jet.tripled_lower_root),
                "reciprocal_constant": render(self.two_jet.reciprocal_constant),
            }
        }
        if self.one_jet is not None:
            entry = self.one_jet
            out["one_jet"] = {
                "degrees": [entry.degrees.d1, entry.degrees.d2, entry.degrees.d3],
                "radicand": entry.radicand,
                "negative_radicand": entry.negative_radicand,
                "hypothesis_ok": entry.hypothesis_ok,
                "delta1": render(entry.delta1),
                "delta2": render(entry.delta2),
                "threshold_constant": render(entry.threshold_constant),
            }
        if self.tau is not None:
            m, t, tau1, tau2 = self.tau
            out["tau"] = {
                "m": m,
                "t": t,
                "tau1": render(tau1),
                "tau2": render(tau2),
            }
        return out


def build_threshold_report(
    degrees: Iterable[int] | None = None,
    m: int | None = None,
    t: int | None = None,
) -> ThresholdReport:
    one_jet = None
    if degrees is not None:
        one_jet = delta1(DegreeTriple.of(*degrees))
    tau = None
    if m is not None and t is not None:
        tau1, tau2 = tau_roots(m, t)
        tau = (m, t, tau1, tau2)
    return ThresholdReport(one_jet=one_jet, two_jet=two_jet_constants(), tau=tau)
