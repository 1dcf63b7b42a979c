"""Logarithmic 2-jet frame expansion and divisibility obstruction rows.

Pipeline on one affine chart with coordinates ``(u, v)`` and dehomogenized
conics ``a, b, c``:

1.  First- and second-order log-derivative numerators (:func:`log_jet_forms`):
    with ``a' = a_u*u1 + a_v*v1`` and
    ``a'' = a_u*u2 + a_v*v2 + a_uu*u1^2 + 2*a_uv*u1*v1 + a_vv*v1^2``,

    * ``alpha  = a'*c - c'*a``                 (denominator ``a*c``),
    * ``gamma_a = (a''*a - a'^2)*c^2 - (c''*c - c'^2)*a^2``  (denominator ``a^2*c^2``),

    and ``beta``/``gamma_b`` with ``b`` in place of ``a``.
2.  The 2-jet Wronskian numerator (:func:`wronskian_form`)
    ``L~ = alpha*gamma_b*a - gamma_a*beta*b`` over ``a^2*b^2*c^3``.  It is
    linear in ``(u2, v2)`` and depends on them only through
    ``W = u1*v2 - v1*u2``; eliminating ``(u2, v2)`` in favor of ``W`` (one
    exact division by ``u1``) gives the reduced five-variable form on
    ``(u, v, u1, v1, W)``.  The ``W``-coefficient equals ``a*b*c^2 * D``
    (``D`` the chart determinant), which ties the jet frame to the chart
    geometry and is asserted in the tests.
3.  Ansatz bookkeeping (:class:`AnsatzSpace`): one unknown per
    ``(stratum w, split k, degree-d_w monomial)`` with ``d_w = 3*(m-2w) - t``;
    stratum ``w`` contributes iff ``d_w >= 0`` (for ``t > 3m`` no stratum
    survives and the problem is vacuous).
4.  Cleared-numerator expansion (:func:`expand_ansatz`): multiplying the
    twisted ansatz by ``(u*v*a*b*c)^m`` turns the ``(w, k)`` summand into the
    polynomial block
    ``B_{w,k} = alpha^(m-3w-k) * beta^k * L~_red^w * a^(w+k) * b^(m-2w-k) * (u*v)^(2w)``
    (the ``c`` power cancels exactly).  With ``n = m - 3w``, ``X = alpha*b``
    and ``Y = beta*a`` the block factors exactly as
    ``B_{w,k} = C_w * X^(n-k) * Y^k`` with
    ``C_w = L~_red^w * (a*b)^w * (u*v)^(2w) = (L~_red * a*b * (u*v)^2)^w``,
    because the ``a`` exponent splits as ``w + k`` and the ``b`` exponent as
    ``w + (n-k)``.  Every block is therefore a product of three powers built
    once per chart, and no polynomial division is needed.  Each block is stored
    as its jet-slot decomposition ``{(i, j, k): S(u, v)}`` over the monomials
    ``u1^i v1^j W^k`` (``i + j + 3k = m`` always — the expansion is
    weighted-homogeneous).
5.  Obstruction rows (:func:`obstruction_rows`): a global section's cleared
    numerator must be divisible by ``u^m * v^m`` (times factors of ``a, b, c``,
    which are units for this question since a smooth conic contains no
    coordinate line).  Every ``(u, v)``-coefficient of the numerator with
    ``u``-degree < m or ``v``-degree < m is therefore a linear form in the
    unknowns that must vanish; those linear forms, reduced mod p and
    normalized, are the rows of the certification system.

Soundness direction used downstream: a nonzero complex solution would give a
nonzero rational one, hence a primitive integer one, hence a nonzero mod-p
solution of every row subset.  Nullity 0 of the assembled system therefore
certifies that no nonzero section exists.  Rows are only ever *necessary*
conditions, so nothing needs to be argued about their completeness for the
certificate to be valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, NamedTuple

from .conics import CHART_AXES, ChartData
from .polynomials import MultiPoly, exact_div

# Variable layout of the frame stage: (u, v, u1, v1, u2, v2).
_U, _V, _U1, _V1, _U2, _V2 = range(6)
#: Variable names of the reduced five-variable jet ring.
REDUCED_VARIABLES = ("u", "v", "u1", "v1", "W")


class ResidualSecondDerivative(Exception):
    """Raised when eliminating the second-order jet variables leaves a
    residual — an implementation fault, never a property of legal input."""


# -- frame construction ---------------------------------------------------------------


@dataclass(frozen=True)
class LogJetForms:
    """Numerators of the chart's log-derivative 1- and 2-jets, as polynomials
    in ``(u, v, u1, v1, u2, v2)``.  Denominator exponents over ``(a, b, c)``
    are recorded, never expanded."""

    alpha: MultiPoly
    beta: MultiPoly
    gamma_a: MultiPoly
    gamma_b: MultiPoly

    #: denominator exponents over (a, b, c)
    alpha_denominator = (1, 0, 1)
    beta_denominator = (0, 1, 1)
    gamma_a_denominator = (2, 0, 2)
    gamma_b_denominator = (0, 2, 2)


def _first_derivative(f_u: MultiPoly, f_v: MultiPoly) -> MultiPoly:
    u1 = MultiPoly.variable(6, _U1, f_u.modulus)
    v1 = MultiPoly.variable(6, _V1, f_u.modulus)
    return f_u.embed(6, (_U, _V)) * u1 + f_v.embed(6, (_U, _V)) * v1


def _second_derivative(
    f_u: MultiPoly,
    f_v: MultiPoly,
    f_uu: MultiPoly,
    f_uv: MultiPoly,
    f_vv: MultiPoly,
) -> MultiPoly:
    modulus = f_u.modulus
    u1 = MultiPoly.variable(6, _U1, modulus)
    v1 = MultiPoly.variable(6, _V1, modulus)
    u2 = MultiPoly.variable(6, _U2, modulus)
    v2 = MultiPoly.variable(6, _V2, modulus)
    lift = lambda p: p.embed(6, (_U, _V))  # noqa: E731 - tiny local alias
    return (
        lift(f_u) * u2
        + lift(f_v) * v2
        + lift(f_uu) * u1 * u1
        + lift(f_uv) * u1 * v1 * 2
        + lift(f_vv) * v1 * v1
    )


def log_jet_forms(data: ChartData) -> LogJetForms:
    """First- and second-order numerators of ``d log(a/c)`` and ``d log(b/c)``."""
    lift = lambda p: p.embed(6, (_U, _V))  # noqa: E731
    a, b, c = (lift(q) for q in (data.a, data.b, data.c))
    a1 = _first_derivative(data.a_u, data.a_v)
    b1 = _first_derivative(data.b_u, data.b_v)
    c1 = _first_derivative(data.c_u, data.c_v)
    a2 = _second_derivative(data.a_u, data.a_v, data.a_uu, data.a_uv, data.a_vv)
    b2 = _second_derivative(data.b_u, data.b_v, data.b_uu, data.b_uv, data.b_vv)
    c2 = _second_derivative(data.c_u, data.c_v, data.c_uu, data.c_uv, data.c_vv)
    alpha = a1 * c - c1 * a
    beta = b1 * c - c1 * b
    gamma_a = (a2 * a - a1 * a1) * c * c - (c2 * c - c1 * c1) * a * a
    gamma_b = (b2 * b - b1 * b1) * c * c - (c2 * c - c1 * c1) * b * b
    return LogJetForms(alpha=alpha, beta=beta, gamma_a=gamma_a, gamma_b=gamma_b)


@dataclass(frozen=True)
class WronskianForm:
    """The 2-jet Wronskian numerator over ``a^2*b^2*c^3``.

    ``tilde`` lives in ``(u, v, u1, v1, u2, v2)``; ``reduced`` is the
    equivalent five-variable form on ``(u, v, u1, v1, W)`` after the
    second-order variables are eliminated through ``W = u1*v2 - v1*u2``;
    ``w_coefficient`` is the bivariate coefficient of ``W`` (equal to
    ``a*b*c^2 * D``)."""

    tilde: MultiPoly
    reduced: MultiPoly
    w_coefficient: MultiPoly

    #: denominator exponents over (a, b, c)
    denominator = (2, 2, 3)


def _drop_second_order(poly: MultiPoly) -> MultiPoly:
    """Project a six-variable polynomial without ``u2, v2`` dependence down to
    ``(u, v, u1, v1)``."""
    if poly.degree_in(_U2) > 0 or poly.degree_in(_V2) > 0:
        raise ResidualSecondDerivative(
            "unexpected second-order jet variable in a first-order form"
        )
    grouped = poly.coefficient_map((_U2, _V2))
    return grouped.get((0, 0), MultiPoly.zero(4, poly.modulus))


def wronskian_form(data: ChartData) -> WronskianForm:
    """Build the Wronskian numerator and eliminate ``(u2, v2)`` through ``W``."""
    forms = log_jet_forms(data)
    lift = lambda p: p.embed(6, (_U, _V))  # noqa: E731
    a, b = lift(data.a), lift(data.b)
    tilde = forms.alpha * forms.gamma_b * a - forms.gamma_a * forms.beta * b
    parts = tilde.coefficient_map((_U2, _V2))
    for pattern in parts:
        if sum(pattern) > 1:
            raise ResidualSecondDerivative(
                f"Wronskian numerator is not linear in (u2, v2): {pattern}"
            )
    modulus = tilde.modulus
    zero4 = MultiPoly.zero(4, modulus)
    lam0 = parts.get((0, 0), zero4)
    lam_u2 = parts.get((1, 0), zero4)
    lam_v2 = parts.get((0, 1), zero4)
    # Structural identity: the (u2, v2)-part is a multiple of u1*v2 - v1*u2.
    u1_4 = MultiPoly.variable(4, 2, modulus)
    v1_4 = MultiPoly.variable(4, 3, modulus)
    if not (lam_u2 * u1_4 + lam_v2 * v1_4).is_zero:
        raise ResidualSecondDerivative(
            "second-order dependence is not a pure rotation-invariant term"
        )
    w_coeff4 = exact_div(lam_v2, u1_4)  # divisibility is structural
    w_var = MultiPoly.variable(5, 4, modulus)
    reduced = lam0.embed(5, (0, 1, 2, 3)) + w_coeff4.embed(5, (0, 1, 2, 3)) * w_var
    grouped = w_coeff4.coefficient_map((2, 3))
    w_coeff2 = grouped.get((0, 0), MultiPoly.zero(2, modulus))
    if set(grouped) - {(0, 0)}:
        raise ResidualSecondDerivative("W-coefficient should be jet-free")
    return WronskianForm(tilde=tilde, reduced=reduced, w_coefficient=w_coeff2)


# -- ansatz bookkeeping -----------------------------------------------------------------


@dataclass(frozen=True, order=True)
class AnsatzIndex:
    """One unknown of the twisted 2-jet ansatz: the coefficient of the
    degree-``d_w`` monomial ``Z0^e0 * Z1^e1 * Z2^e2`` in stratum ``w``
    (Wronskian power) and split ``k`` (second log-derivative power)."""

    stratum: int
    split: int
    exponents: tuple[int, int, int]


@dataclass(frozen=True)
class AnsatzSpace:
    """The full unknown space for weight ``m`` and twist ``t``."""

    m: int
    t: int
    strata: tuple[tuple[int, int], ...]  # (w, d_w) with d_w >= 0
    columns: tuple[AnsatzIndex, ...]
    index: dict[AnsatzIndex, int] = field(repr=False, hash=False, compare=False)

    @classmethod
    def build(cls, m: int, t: int) -> "AnsatzSpace":
        if m < 1:
            raise ValueError("jet weight m must be at least 1")
        if t < 0:
            raise ValueError("twist t must be nonnegative")
        strata = []
        columns: list[AnsatzIndex] = []
        for w in range(m // 3 + 1):
            degree = 3 * (m - 2 * w) - t
            if degree < 0:
                continue
            strata.append((w, degree))
            for split in range(m - 3 * w + 1):
                for e0 in range(degree + 1):
                    for e1 in range(degree - e0 + 1):
                        columns.append(
                            AnsatzIndex(w, split, (e0, e1, degree - e0 - e1))
                        )
        index = {col: pos for pos, col in enumerate(columns)}
        return cls(m=m, t=t, strata=tuple(strata), columns=tuple(columns), index=index)

    @property
    def n_vars(self) -> int:
        return len(self.columns)

    @property
    def is_vacuous(self) -> bool:
        return not self.strata

    def stratum_monomials(self, degree: int) -> list[tuple[int, int, int]]:
        return [
            (e0, e1, degree - e0 - e1)
            for e0 in range(degree + 1)
            for e1 in range(degree - e0 + 1)
        ]

    def counting_formula(self) -> int:
        """Closed-form unknown count (cross-checked against enumeration)."""
        total = 0
        for w in range(self.m // 3 + 1):
            degree = 3 * (self.m - 2 * w) - self.t
            if degree >= 0:
                total += (self.m - 3 * w + 1) * comb(degree + 2, 2)
        return total


def chart_monomial_shift(chart: int, exponents: tuple[int, int, int]) -> tuple[int, int]:
    """Dehomogenized ``(u, v)``-exponents of a coordinate monomial on a chart."""
    axis_u, axis_v = CHART_AXES[chart]
    return (exponents[axis_u], exponents[axis_v])


# -- cleared-numerator expansion -----------------------------------------------------


@dataclass(frozen=True)
class JetExpansion:
    """Cleared-numerator basis blocks of the ansatz on one chart.

    ``blocks[(w, k)]`` maps each jet slot ``(i, j, kk)`` (the monomial
    ``u1^i * v1^j * W^kk``, ``i + j + 3kk = m``) to the bivariate polynomial
    multiplying it inside the block ``B_{w,k}``.  The expansion is linear in
    the unknowns by construction: the coefficient of the unknown
    ``(w, k, e)`` in the cleared numerator's slot ``(i, j, kk)`` is the
    ``(u, v)``-shift of ``blocks[(w, k)][(i, j, kk)]`` by the chart monomial
    of ``e``.  ``denominators[(w, k)]`` records the pre-clearing denominator
    exponents over ``(a, b, c, u*v)``."""

    chart: int
    space: AnsatzSpace
    modulus: int | None
    second_order: str
    blocks: dict[tuple[int, int], dict[tuple[int, int, int], MultiPoly]]
    denominators: dict[tuple[int, int], tuple[int, int, int, int]]

    def slots(self) -> list[tuple[int, int, int]]:
        m = self.space.m
        return [
            (i, m - i - 3 * k, k)
            for k in range(m // 3 + 1)
            for i in range(m - 3 * k + 1)
        ]

    def materialize_numerator(self, slot: tuple[int, int, int]) -> MultiPoly:
        """The cleared numerator's jet-slot coefficient as a polynomial in
        ``(u, v, unknown_0, ..., unknown_{n-1})`` — degree exactly one in each
        unknown that appears.  Intended for small instances and tests."""
        n = self.space.n_vars
        total = MultiPoly.zero(2 + n, self.modulus)
        for (w, k), slot_map in self.blocks.items():
            poly = slot_map.get(slot)
            if poly is None or poly.is_zero:
                continue
            degree = dict(self.space.strata)[w]
            for exps in self.space.stratum_monomials(degree):
                col = self.space.index[AnsatzIndex(w, k, exps)]
                eu, ev = chart_monomial_shift(self.chart, exps)
                terms = {}
                for (su, sv), coeff in poly.terms.items():
                    key = [0] * (2 + n)
                    key[0] = su + eu
                    key[1] = sv + ev
                    key[2 + col] = 1
                    terms[tuple(key)] = coeff
                total = total + MultiPoly(2 + n, terms, self.modulus)
        return total


def _powers(base: MultiPoly, top: int) -> list[MultiPoly]:
    out = [MultiPoly.constant(base.arity, 1, base.modulus)]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


def _full_block(
    w: int,
    k: int,
    m: int,
    forms: LogJetForms,
    tilde: MultiPoly,
    a2: MultiPoly,
    b2: MultiPoly,
    uv2: MultiPoly,
) -> MultiPoly:
    """Block B_{w,k} computed without the shortcut: keep the full
    ``(u2, v2)`` dependence of the Wronskian power, then eliminate both
    second-order variables jointly through ``W`` and certify that nothing
    residual survives."""
    modulus = tilde.modulus
    # Work in (u, v, u1, v1, u2, v2, W).
    lift6 = lambda p: p.embed(7, (0, 1, 2, 3, 4, 5))  # noqa: E731
    lift2 = lambda p: p.embed(7, (0, 1))  # noqa: E731
    product = lift6(forms.alpha ** (m - 3 * w - k) * forms.beta**k * tilde**w)
    product = product * lift2(
        (a2**(w + k)) * (b2**(m - 2 * w - k)) * (uv2**(2 * w))
    )
    # Substitute v2 = (W + u2*v1)/u1, cleared by u1^w.
    by_v2 = product.coefficient_map((5,))
    u1 = MultiPoly.variable(7, 2, modulus)
    v1 = MultiPoly.variable(7, 3, modulus)
    u2 = MultiPoly.variable(7, 4, modulus)
    w_var = MultiPoly.variable(7, 6, modulus)
    replaced = MultiPoly.zero(7, modulus)
    for (d,), coeff in by_v2.items():
        if d > w:
            raise ResidualSecondDerivative("v2-degree exceeds the stratum power")
        replaced = replaced + coeff.embed(
            7, (0, 1, 2, 3, 4, 6)
        ) * (w_var + u2 * v1) ** d * u1 ** (w - d)
    if replaced.degree_in(4) > 0:
        raise ResidualSecondDerivative(
            "second-order variable survived the Wronskian elimination"
        )
    collapsed = replaced.coefficient_map((4, 5)).get(
        (0, 0), MultiPoly.zero(5, modulus)
    )
    return exact_div(collapsed, MultiPoly.variable(5, 2, modulus) ** w)


def expand_ansatz(
    data: ChartData,
    space: AnsatzSpace,
    *,
    second_order: str = "reduced",
    parallel: bool = False,
) -> JetExpansion:
    """Expand every ansatz block on one chart into jet-slot form.

    ``second_order="reduced"`` (default) eliminates ``(u2, v2)`` once, inside
    :func:`wronskian_form`, and builds each block as the exact product
    ``B_{w,k} = C_w * X^(n-k) * Y^k`` (``n = m - 3w``, ``X = alpha*b``,
    ``Y = beta*a``, ``C_w = L~_red^w * (a*b)^w * (u*v)^(2w)``).  The powers of
    ``X``, ``Y`` and ``C_1`` are computed once per chart and shared by all
    strata, so the expansion performs multiplications only, never a
    division.
    ``"full"`` re-derives every stratum power with the second-order
    variables kept and eliminates them per block — the expensive cross-check
    path, intended for small ``m``.

    ``parallel`` is ignored.  The expansion is always serial; the keyword is
    kept only because the benchmark's traced replay (``perfbench/traced.py``)
    still passes it."""
    if second_order not in ("reduced", "full"):
        raise ValueError("second_order must be 'reduced' or 'full'")
    m = space.m
    modulus = data.a.modulus
    a2, b2 = data.a, data.b
    uv2 = MultiPoly.variable(2, 0, modulus) * MultiPoly.variable(2, 1, modulus)
    forms = log_jet_forms(data)
    wf = wronskian_form(data)
    alpha5 = _drop_second_order(forms.alpha).embed(5, (0, 1, 2, 3))
    beta5 = _drop_second_order(forms.beta).embed(5, (0, 1, 2, 3))
    max_w = max((w for w, _ in space.strata), default=0)
    lift = lambda p: p.embed(5, (0, 1))  # noqa: E731
    x_pows = _powers(alpha5 * lift(b2), m)
    y_pows = _powers(beta5 * lift(a2), m)
    c_pows = _powers(wf.reduced * lift(a2 * b2 * uv2 * uv2), max_w)

    blocks: dict[tuple[int, int], dict[tuple[int, int, int], MultiPoly]] = {}
    denominators: dict[tuple[int, int], tuple[int, int, int, int]] = {}
    for w, _ in space.strata:
        for k in range(m - 3 * w + 1):
            if second_order == "full":
                poly = _full_block(w, k, m, forms, wf.tilde, a2, b2, uv2)
            else:
                poly = c_pows[w] * x_pows[m - 3 * w - k] * y_pows[k]
            slot_map = poly.coefficient_map((2, 3, 4))
            for (i, j, kk) in slot_map:
                if i + j + 3 * kk != m:
                    raise ResidualSecondDerivative(
                        f"jet slot {(i, j, kk)} breaks weighted homogeneity"
                    )
            blocks[(w, k)] = slot_map
            denominators[(w, k)] = (m - w - k, k + 2 * w, m, m - 2 * w)
    return JetExpansion(
        chart=data.chart,
        space=space,
        modulus=modulus,
        second_order=second_order,
        blocks=blocks,
        denominators=denominators,
    )


# -- obstruction rows -----------------------------------------------------------------


class ObstructionRow(NamedTuple):
    """One necessary linear condition: the stated ``(u, v)``-monomial
    coefficient of the stated jet slot of the cleared numerator, as a
    normalized GF(p) linear form over the unknown columns."""

    chart: int
    slot: tuple[int, int, int]
    monomial: tuple[int, int]
    entries: tuple[tuple[int, int], ...]  # (column, coefficient), ascending


def _row_sort_key(row: ObstructionRow):
    i, j = row.monomial
    return (row.chart, row.slot, (i + j, i, j))


def obstruction_rows(
    expansion: JetExpansion, prime: int, *, parallel: bool = False
) -> list[ObstructionRow]:
    """All divisibility obstruction rows of one chart's expansion.

    Rows are the coefficients, over the unknowns, of every cleared-numerator
    ``(u, v)``-monomial with ``u``-degree < m or ``v``-degree < m; they are
    reduced mod ``prime``, normalized so the lowest-column coefficient is 1,
    and ordered by ``(chart, slot, monomial)``.

    ``parallel`` is ignored, for the same reason as in
    :func:`expand_ansatz`."""
    if expansion.modulus is not None and expansion.modulus != prime:
        raise ValueError(
            f"expansion was built mod {expansion.modulus}, rows requested mod {prime}"
        )
    m = expansion.space.m
    space = expansion.space
    chart = expansion.chart
    degrees = dict(space.strata)

    # Only terms that can land below the divisibility bound after a
    # monomial shift ever reach a row.
    by_slot: dict[tuple[int, int, int], dict[tuple[int, int], dict[int, int]]] = {}
    for (w, k), slot_map in sorted(expansion.blocks.items()):
        for slot, poly in sorted(slot_map.items()):
            strip = [
                (su, sv, coeff)
                for (su, sv), coeff in poly.terms.items()
                if su < m or sv < m
            ]
            if not strip:
                continue
            rows = by_slot.setdefault(slot, {})
            for exps in space.stratum_monomials(degrees[w]):
                col = space.index[AnsatzIndex(w, k, exps)]
                eu, ev = chart_monomial_shift(chart, exps)
                bound_u = m - eu
                bound_v = m - ev
                for su, sv, coeff in strip:
                    if su < bound_u or sv < bound_v:
                        bucket = rows.setdefault((su + eu, sv + ev), {})
                        bucket[col] = bucket.get(col, 0) + coeff

    out: list[ObstructionRow] = []
    for slot, by_monomial in by_slot.items():
        for monomial, bucket in by_monomial.items():
            entries = []
            for col in sorted(bucket):
                coeff = bucket[col] % prime
                if coeff:
                    entries.append((col, coeff))
            if not entries:
                continue
            lead_inverse = pow(entries[0][1], prime - 2, prime)
            normalized = tuple(
                (col, coeff * lead_inverse % prime) for col, coeff in entries
            )
            out.append(ObstructionRow(chart, slot, monomial, normalized))
    out.sort(key=_row_sort_key)
    return out


# -- reference dimensions and distinguished vectors -----------------------------------


def case_m3_dim_counts() -> dict[str, int]:
    """Reference dimension counts for the weight-3, twist-1 instance:
    the unknown coefficient space, the target space of four ``v``-divisible
    bivariate polynomials of degree at most 24, and its subspace of elements
    divisible by the cube of the chart determinant.

    The headline comparison is ``186 + 480 = 666 < 1200``: the image of the
    coefficient space plus the divisible subspace cannot fill the target."""
    coefficient_space = comb(2 + 2, 2) + 4 * comb(8 + 2, 2)
    target_space = 4 * comb(24 - 1 + 2, 2)
    divisible_subspace = 4 * comb(14 + 2, 2)
    return {
        "coefficient_space": coefficient_space,
        "target_space": target_space,
        "divisible_subspace": divisible_subspace,
    }


def wronskian_solution_vector(space: AnsatzSpace) -> dict[int, int]:
    """The explicit global-section vector available at weight 3, twist 0:
    the pure Wronskian stratum with the symmetric cubic monomial.

    Every obstruction row vanishes on it (on every chart): the block
    ``B_{1,0}`` times ``Z0*Z1*Z2``'s chart shift is divisible by
    ``u^3 * v^3`` by construction."""
    if space.m != 3 or space.t != 0:
        raise ValueError("the distinguished Wronskian vector lives at m=3, t=0")
    target = AnsatzIndex(1, 0, (1, 1, 1))
    return {space.index[target]: 1}


def twist_lowering_embedding(
    source: AnsatzSpace, target: AnsatzSpace, vector: dict[int, int]
) -> dict[int, int]:
    """Push a solution at twist ``t`` to twist ``t - 1`` by multiplying every
    coefficient polynomial by the fixed linear form ``Z0``.

    Sections map to sections, so the image of a nullspace vector must satisfy
    the lower-twist system — the monotonicity check used in the tests."""
    if source.m != target.m or source.t != target.t + 1:
        raise ValueError("embedding expects equal weight and twist lowered by one")
    out: dict[int, int] = {}
    for col, value in vector.items():
        idx = source.columns[col]
        e0, e1, e2 = idx.exponents
        image = AnsatzIndex(idx.stratum, idx.split, (e0 + 1, e1, e2))
        out[target.index[image]] = value
    return out
