"""Logarithmic 2-jet frame expansion and divisibility obstruction rows.

Pipeline on one affine chart with coordinates ``(u, v)`` and dehomogenized
conics ``a, b, c``:

1.  First- and second-order log-derivative numerators: with
    ``a' = a_u*u1 + a_v*v1`` and ``a'' = a° + a_uu*u1^2 +
    2*a_uv*u1*v1 + a_vv*v1^2``, where ``a° = a_u*u2 + a_v*v2``,

    * ``alpha  = a'*c - c'*a``                 (denominator ``a*c``),
    * ``gamma_a = (a''*a - a'^2)*c^2 - (c''*c - c'^2)*a^2``  (denominator ``a^2*c^2``),

    and ``beta``/``gamma_b`` with ``b`` in place of ``a``.  Only ``alpha``,
    ``beta`` and the 2-jet numerators at ``u2 = v2 = 0`` are built, inside
    :func:`block_factors`, which takes every partial of ``a, b, c`` once;
    none of them leaves that function.
2.  The 2-jet Wronskian numerator
    ``L~ = alpha*gamma_b*a - gamma_a*beta*b`` over ``a^2*b^2*c^3``.  The
    ``(u2, v2)``-part of ``gamma_a`` is ``a*c*(a°*c - c°*a)``, so that of
    ``L~`` is
    ``a*b*c*[alpha*(b°*c - c°*b) - beta*(a°*c - c°*a)]
    = a*b*c^2 * det[[a, b, c], [a', b', c'], [a°, b°, c°]] = a*b*c^2 * D * W``,
    where ``W = u1*v2 - v1*u2`` and ``D`` is the chart determinant
    ``det [[a, b, c], [a_u, b_u, c_u], [a_v, b_v, c_v]]``: the
    determinant is bilinear in its last two rows, which are
    ``u1*grad_u + v1*grad_v`` and ``u2*grad_u + v2*grad_v``.  So ``L~``
    sees the second-order jet only through ``W``, for any three conics, and
    its reduced form on ``(u, v, u1, v1, W)`` is the closed form
    ``L~_red = L~|(u2=v2=0) + a*b*c^2 * D * W``.  No frame polynomial
    carries ``u2`` or ``v2``; the tests derive ``L~`` in six variables and
    eliminate them through ``W`` on their own, as the reference.  Degree-2
    Euler relations give the chart identity
    ``Z_i * J = sign_i * 2 * (homogenized D)`` with ``J`` the Jacobian cubic
    (:func:`jetcert.conics.jacobian_cubic`) and signs ``(+, -, +)`` for
    charts ``(0, 1, 2)``; it is asserted in the tests.
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
    ``w + (n-k)``.  Every block is therefore a product of powers of the three
    factors ``X``, ``Y`` and ``C_1`` that :func:`block_factors` builds once
    per chart, and no polynomial division is needed.  Each block is stored
    as its jet-slot decomposition ``{(i, j, k): S(u, v)}`` over the monomials
    ``u1^i v1^j W^k`` (``i + j + 3k = m`` always, by construction: ``X``
    and ``Y`` have jet weight 1 and ``C_1`` weight 3, ``W`` counting 3),
    and modulo ``u^m * v^m``: only the terms with
    ``u``-degree < m or ``v``-degree < m are kept.  That is exact for the
    rows of step 5, which read nothing else.  Multiplication never lowers an
    exponent, so a factor term with both degrees at least ``m`` feeds only
    product terms with both degrees at least ``m``; the factors, every power
    and every partial product are therefore cut back as they are formed,
    which keeps about a third of the terms.  From the three factors to the
    slot split, a polynomial is a map from a packed int key (one field per
    variable, ``u`` highest) to its coefficient: products add keys, the cut
    reads each key's ``u`` and ``v`` fields, and keys become exponent tuples
    only when a block is split into its slots.
5.  Obstruction rows (:func:`obstruction_rows`): a global section's cleared
    numerator must be divisible by ``u^m * v^m`` (times factors of ``a, b, c``,
    which are units for this question since a smooth conic contains no
    coordinate line).  Every ``(u, v)``-coefficient of the numerator with
    ``u``-degree < m or ``v``-degree < m is therefore a linear form in the
    unknowns that must vanish; those linear forms, reduced mod p and
    normalized, are the rows of the certification system.  A chart monomial
    shift only raises degrees, so each such coefficient comes from block
    terms that step 4 kept.  The rows are built one jet slot at a time and
    emitted in the canonical order: slots ascending, monomials by
    ``(u+v, u, v)``.  A row is its entry tuple (:data:`Row`) and nothing
    else; the rows of a chart share one ``(column, coefficient)`` tuple per
    distinct pair.

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
from typing import Iterator

from .conics import CHART_AXES, ChartData
from .polynomials import MultiPoly, _pack, _packed_product

# Variable layout of the frame stage: (u, v, u1, v1, W).
_U1, _V1, _W = 2, 3, 4


# -- frame construction ---------------------------------------------------------------


def _lift(poly: MultiPoly) -> MultiPoly:
    """A chart polynomial in ``(u, v)`` as a polynomial of the frame stage."""
    return poly.embed(5, (0, 1))


def block_factors(data: ChartData) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """The chart's three block factors ``X = alpha*b``, ``Y = beta*a`` and
    ``C_1 = L~_red * a*b * (u*v)^2`` on ``(u, v, u1, v1, W)``.

    This is the one place that differentiates the chart's conics: each
    partial is taken once, and ``alpha``, ``beta``, the 2-jet numerators at
    ``u2 = v2 = 0`` and the chart determinant ``D`` are built from them
    (module docstring, steps 1 and 2)."""
    modulus = data.a.modulus
    u1 = MultiPoly.variable(5, _U1, modulus)
    v1 = MultiPoly.variable(5, _V1, modulus)
    frame, grads = [], []
    for f in (data.a, data.b, data.c):
        f_u, f_v = f.deriv(0), f.deriv(1)
        grads.append((f_u, f_v))
        first = _lift(f_u) * u1 + _lift(f_v) * v1
        # f'' without its part f_u*u2 + f_v*v2.
        second = (
            _lift(f_u.deriv(0)) * u1 * u1
            + _lift(f_u.deriv(1)) * u1 * v1 * 2
            + _lift(f_v.deriv(1)) * v1 * v1
        )
        frame.append((_lift(f), first, second))
    (a, a1, a2), (b, b1, b2), (c, c1, c2) = frame
    (a_u, a_v), (b_u, b_v), (c_u, c_v) = grads
    det = (
        data.a * (b_u * c_v - c_u * b_v)
        - data.b * (a_u * c_v - c_u * a_v)
        + data.c * (a_u * b_v - b_u * a_v)
    )
    alpha = a1 * c - c1 * a
    beta = b1 * c - c1 * b
    gamma_a = (a2 * a - a1 * a1) * c * c - (c2 * c - c1 * c1) * a * a
    gamma_b = (b2 * b - b1 * b1) * c * c - (c2 * c - c1 * c1) * b * b
    w_coefficient = data.a * data.b * data.c * data.c * det
    reduced = (
        alpha * gamma_b * a
        - gamma_a * beta * b
        + _lift(w_coefficient) * MultiPoly.variable(5, _W, modulus)
    )
    uv = MultiPoly.variable(2, 0, modulus) * MultiPoly.variable(2, 1, modulus)
    return alpha * b, beta * a, reduced * _lift(data.a * data.b * uv * uv)


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
    multiplying it inside the block ``B_{w,k}``, modulo ``u^m * v^m``: terms
    with ``u``-degree and ``v``-degree both at least ``m`` are dropped, since
    no obstruction row reads them, and a slot with no remaining term is
    absent.  The expansion is linear in
    the unknowns by construction: the coefficient of the unknown
    ``(w, k, e)`` in the cleared numerator's slot ``(i, j, kk)`` is the
    ``(u, v)``-shift of ``blocks[(w, k)][(i, j, kk)]`` by the chart monomial
    of ``e``.  Before clearing, the summand ``(w, k)`` has the denominator
    ``a^(m-w-k) * b^(k+2w) * c^m * (u*v)^(m-2w)``; multiplying the twisted
    ansatz by ``(u*v*a*b*c)^m`` turns it into ``B_{w,k}``."""

    chart: int
    space: AnsatzSpace
    modulus: int | None
    blocks: dict[tuple[int, int], dict[tuple[int, int, int], MultiPoly]]


def expand_ansatz(
    data: ChartData, space: AnsatzSpace, *, parallel: bool = False
) -> JetExpansion:
    """Expand every ansatz block on one chart into jet-slot form.

    The three factors come from :func:`block_factors`, and each block is
    the exact product
    ``B_{w,k} = C_w * X^(n-k) * Y^k`` (``n = m - 3w``, ``X = alpha*b``,
    ``Y = beta*a``, ``C_w = L~_red^w * (a*b)^w * (u*v)^(2w)``).  The three
    factors are packed once, in fields that hold ``deg(X)*m + deg(Y)*m +
    deg(C_1)*max_w`` (``deg`` the largest exponent); their powers, shared by
    all strata, and the blocks are products of packed maps, never a
    division, kept modulo ``u^m * v^m`` (module docstring, step 4).  The
    tests recompute every block from the six-variable ``L~`` as a reference.

    ``parallel`` is ignored.  The expansion is always serial; the keyword is
    kept only because the benchmark's traced replay (``perfbench/traced.py``)
    still passes it."""
    m = space.m
    modulus = data.a.modulus
    max_w = max((w for w, _ in space.strata), default=0)
    factors = block_factors(data)
    powers = (m, m, max_w)
    width = sum(max(map(max, f.terms), default=0) * n
                for f, n in zip(factors, powers)).bit_length()
    mask, low = (1 << width) - 1, (1 << 3 * width) - 1
    u_shift, v_shift = 4 * width, 3 * width
    u_floor = m << u_shift  # the least key of u-degree m

    def times(f: dict[int, int], g: dict[int, int]) -> dict[int, int]:
        return {k: c for k, c in _packed_product(f, g, modulus).items()
                if k < u_floor or k >> v_shift & mask < m}

    x_pows, y_pows, c_pows = pows = ([{0: 1}], [{0: 1}], [{0: 1}])
    for factor, n, out in zip(factors, powers, pows):
        base = {_pack(e, width): c for e, c in factor.terms.items()
                if e[0] < m or e[1] < m}
        for _ in range(n):
            out.append(times(out[-1], base))

    blocks: dict[tuple[int, int], dict[tuple[int, int, int], MultiPoly]] = {}
    for w, _ in space.strata:
        for k in range(m - 3 * w + 1):
            block = times(times(c_pows[w], x_pows[m - 3 * w - k]), y_pows[k])
            slots: dict[int, dict[tuple[int, int], int]] = {}  # by (u1, v1, W)
            for key, c in block.items():
                slots.setdefault(key & low, {})[key >> u_shift, key >> v_shift & mask] = c
            blocks[(w, k)] = {
                (slot >> 2 * width, slot >> width & mask, slot & mask):
                    MultiPoly._make(2, terms, modulus)
                for slot, terms in slots.items()
            }
    return JetExpansion(chart=data.chart, space=space, modulus=modulus, blocks=blocks)


# -- obstruction rows -----------------------------------------------------------------


Row = tuple[tuple[int, int], ...]
"""One necessary linear condition: the GF(p) linear form of one
``(u, v)``-monomial coefficient of one jet slot of the cleared numerator, as
``(column, coefficient)`` entries with the columns ascending, every
coefficient a nonzero canonical residue and the first one 1."""


def obstruction_rows(
    expansion: JetExpansion, prime: int, *, parallel: bool = False
) -> Iterator[Row]:
    """The divisibility obstruction rows of one chart's expansion, built one
    jet slot at a time and yielded in the canonical order: slots ascending,
    then monomials by ``(u+v, u, v)``.

    A row is the coefficient, over the unknowns, of a cleared-numerator
    ``(u, v)``-monomial with ``u``-degree < m or ``v``-degree < m, reduced
    mod ``prime`` and normalized so its lowest-column coefficient is 1; a
    monomial whose coefficient vanishes mod ``prime`` yields no row.  The
    rows of a chart share their ``(column, coefficient)`` tuples: one per
    distinct pair.  A ``prime`` other than the expansion's raises here, at
    the call.

    ``parallel`` is ignored, for the same reason as in
    :func:`expand_ansatz`."""
    if expansion.modulus is not None and expansion.modulus != prime:
        raise ValueError(
            f"expansion was built mod {expansion.modulus}, rows requested mod {prime}"
        )
    return _slot_rows(expansion, prime)


def _slot_rows(expansion: JetExpansion, prime: int) -> Iterator[Row]:
    space = expansion.space
    m, chart = space.m, expansion.chart

    # A (u, v)-monomial is packed into one int of three fields, u + v
    # highest, then u, then v: ascending keys are the canonical monomial
    # order, and packed keys add field by field.  The u and v fields hold
    # the largest block exponent plus the largest shift.
    top = max((max(map(max, poly.terms)) for slot_map in expansion.blocks.values()
               for poly in slot_map.values()), default=0)
    width = (top + max((d for _, d in space.strata), default=0)).bit_length()
    pack = lambda u, v: (u + v) << 2 * width | u << width | v  # noqa: E731

    # A chart's rows hold at most n_vars * (p - 1) distinct (column,
    # coefficient) pairs, at small p far fewer than their nonzeros.  Each
    # pair's tuple is built once, on first use, and shared by every row
    # that holds it; the table is keyed by the int col * prime + coeff.
    pairs: dict[int, tuple[int, int]] = {}

    # (w, k) -> the block's unknowns: their columns, the divisibility bounds
    # left after their chart shifts, and those shifts packed.
    shifts: dict[tuple[int, int], list] = {}
    for col, unknown in enumerate(space.columns):
        eu, ev = chart_monomial_shift(chart, unknown.exponents)
        shifts.setdefault((unknown.stratum, unknown.split), []).append(
            (col, m - eu, m - ev, pack(eu, ev))
        )
    # slot -> the blocks' polynomials in it, each with its block's unknowns.
    by_slot: dict[tuple[int, int, int], list] = {}
    for block, slot_map in expansion.blocks.items():
        for slot, poly in slot_map.items():
            by_slot.setdefault(slot, []).append((poly, shifts[block]))

    for slot in sorted(by_slot):
        # packed monomial -> column -> coefficient, for this slot only.  A
        # column meets each monomial of a slot at most once, so nothing is
        # summed, and a coefficient reduced once per term stays canonical.
        buckets: dict[int, dict[int, int]] = {}
        for poly, shifts in by_slot[slot]:
            strip = [(su, sv, pack(su, sv), r)
                     for (su, sv), c in poly.terms.items() if (r := c % prime)]
            for col, bound_u, bound_v, shift in shifts:
                for su, sv, key, coeff in strip:
                    if su < bound_u or sv < bound_v:
                        bucket = buckets.get(at := key + shift)
                        if bucket is None:
                            buckets[at] = {col: coeff}
                        else:
                            bucket[col] = coeff
        for _, bucket in sorted(buckets.items()):
            cols = sorted(bucket)
            inverse = pow(bucket[cols[0]], prime - 2, prime)
            row = []
            for col in cols:
                pair = col * prime + bucket[col] * inverse % prime
                row.append(pairs.get(pair) or pairs.setdefault(pair, divmod(pair, prime)))
            yield tuple(row)


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
