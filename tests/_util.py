"""Shared helpers for the test suite (seeded-random generators, tiny oracles,
and the six-variable reference for the jet frame)."""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

from jetcert.conics import ChartData
from jetcert.jets import AnsatzSpace, JetExpansion, chart_monomial_shift
from jetcert.linsys import IoFailure, LinearSystem, read_sms, write_sms
from jetcert.polynomials import MultiPoly


def random_poly(
    rng: random.Random,
    arity: int,
    max_degree: int = 4,
    n_terms: int = 6,
    modulus: int | None = None,
    coeff_low: int = -9,
    coeff_high: int = 9,
) -> MultiPoly:
    """A random sparse polynomial; zero coefficients are allowed to collide away."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(arity))
        coeff = rng.randint(coeff_low, coeff_high)
        terms[exps] = terms.get(exps, 0) + coeff
    return MultiPoly(arity, terms, modulus)


def reduce_mod(f: MultiPoly, p: int) -> MultiPoly:
    """The image of an integer polynomial under ZZ -> GF(p)."""
    return MultiPoly(f.arity, f.terms, p)


def evaluate(poly: MultiPoly, values):
    """``poly`` at a point whose coordinates multiply with its coefficients
    and with each other: ints, Fractions, complex numbers, or polynomials
    such as the jets of a curve."""
    total = 0
    for exps, coeff in poly.terms.items():
        term = coeff
        for value, e in zip(values, exps, strict=True):
            term = term * value**e
        total = total + term
    return total


def coefficient_map(
    poly: MultiPoly, variables: tuple[int, ...]
) -> dict[tuple[int, ...], MultiPoly]:
    """Group the terms of ``poly`` by their exponents in ``variables``: a map
    from each exponent pattern on ``variables`` to the polynomial (in the
    remaining variables, original order) multiplying it."""
    if len(set(variables)) != len(variables):
        raise ValueError("variables must be distinct")
    keep = [i for i in range(poly.arity) if i not in variables]
    out: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, coeff in poly.terms.items():
        pattern = tuple(exps[i] for i in variables)
        out.setdefault(pattern, {})[tuple(exps[i] for i in keep)] = coeff
    return {
        pattern: MultiPoly(len(keep), terms, poly.modulus)
        for pattern, terms in out.items()
    }


def sms_text(system: LinearSystem, directory: Path) -> str:
    """The SMS text of ``system``, written by ``write_sms`` into
    ``directory`` and read back byte for byte."""
    path = directory / "system.sms"
    write_sms(system, str(path))
    return path.read_bytes().decode("ascii")


def sms_system(data: str | bytes, directory: Path, prime: int) -> LinearSystem:
    """The system ``read_sms`` parses from ``data``, written byte for byte
    (text as UTF-8) into ``directory``: the mirror of :func:`sms_text`."""
    path = directory / "input.sms"
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return read_sms(str(path), prime)


def reference_import_sms(text: str, prime: int) -> LinearSystem:
    """The whole-text SMS parser that ``read_sms`` replaced, kept as the
    oracle for its accept/reject behaviour and messages."""
    lines = text.splitlines()
    if not lines:
        raise IoFailure("empty SMS input")
    header = lines[0].split()
    if not (
        lines[0].isascii()
        and len(header) == 3
        and header[2] == "M"
        and all(t.isdigit() and (t == "0" or t[0] != "0") for t in header[:2])
    ):
        raise IoFailure(f"malformed SMS header: {lines[0]!r}")
    n_rows, n_cols = int(header[0]), int(header[1])
    entries: dict[int, list[tuple[int, int]]] = {}
    terminated = False
    for line in lines[1:]:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise IoFailure(f"malformed SMS triple: {line!r}")
        rt, ct, vt = parts
        if not (line.isascii() and rt.isdigit() and ct.isdigit() and vt.isdigit()):
            raise IoFailure(f"malformed SMS triple: {line!r}")
        if "0" in (rt[0], ct[0], vt[0]):
            # Only the terminator holds a zero, and no number a leading one.
            if parts != ["0", "0", "0"]:
                raise IoFailure(f"malformed SMS triple: {line!r}")
            terminated = True
            break
        r = int(rt)
        c = int(ct)
        value = int(vt)
        if r > n_rows or c > n_cols:
            raise IoFailure(f"SMS entry out of range: {line!r}")
        if value >= prime:
            raise IoFailure(f"SMS value not a canonical nonzero residue: {line!r}")
        entries.setdefault(r, []).append((c - 1, value))
    if not terminated:
        raise IoFailure("missing SMS terminator line")
    rows = []
    for r in range(1, n_rows + 1):
        row = sorted(entries.get(r, []))
        if len({c for c, _ in row}) != len(row):
            raise IoFailure(f"duplicate column in SMS row {r}")
        rows.append(tuple(row))
    return LinearSystem(prime=prime, n_vars=n_cols, rows=tuple(rows))


def tower_reduce_u2_first(element: MultiPoly) -> MultiPoly:
    """The tower normal form, rewriting ``u2^2`` before ``u1^2`` wherever a
    term allows both, by the two fiber relations
    ``u1^2 = -c1*u1 - c2`` and ``u2^2 = -(c1 + u1)*u2 - (2*c2 + c1*u1)``
    on the classes ``(u1, u2, h, c1, c2)``."""
    u1, u2, c1, c2 = (MultiPoly.variable(5, i) for i in (0, 1, 3, 4))
    squares = {1: -(c1 + u1) * u2 - (c2 * 2 + c1 * u1), 0: -(c1 * u1) - c2}
    out = MultiPoly.zero(5)
    for key, value in element.terms.items():
        slot = next((s for s in (1, 0) if key[s] >= 2), None)
        if slot is None:
            out = out + MultiPoly(5, {key: value})
            continue
        lowered = list(key)
        lowered[slot] -= 2
        rest = MultiPoly(5, {tuple(lowered): value}) * squares[slot]
        out = out + tower_reduce_u2_first(rest)
    return out


# -- the six-variable reference for the jet frame ---------------------------------
#
# Built from ``ChartData`` and ``MultiPoly`` alone, in the variables
# (u, v, u1, v1, u2, v2): the whole log-jet numerators, the Wronskian
# numerator L~ with its full (u2, v2) dependence, and the elimination of
# (u2, v2) through W = u1*v2 - v1*u2.  It shares no code with
# ``jetcert.jets`` and is much slower than the certifier's closed form.


class NonDivisible(Exception):
    """Raised by :func:`exact_div` when the division leaves a remainder.

    The offending remainder is attached as ``remainder`` for diagnostics.
    """

    def __init__(self, message: str, remainder: MultiPoly | None = None):
        super().__init__(message)
        self.remainder = remainder


def exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient ``f / g`` by a single-term divisor ``g``; raises
    :class:`NonDivisible` with the remainder attached when ``g`` does not
    divide ``f``, and :class:`ValueError` when ``g`` has more than one term.

    Each term of ``f`` is divided on its own.  Over GF(p) coefficients divide
    freely; over ZZ a coefficient that is not an exact multiple sends the term
    to the remainder, as does a term the monomial of ``g`` does not divide.
    """
    f._check_compatible(g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g.terms) != 1:
        raise ValueError("exact_div divides by a single-term divisor only")
    p = f.modulus
    ((g_exps, g_coeff),) = g.terms.items()
    if p is not None:
        g_inv = pow(g_coeff, p - 2, p)
    quotient: dict[tuple[int, ...], int] = {}
    remainder: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        diff = tuple(a - b for a, b in zip(exps, g_exps))
        if min(diff, default=0) < 0:
            remainder[exps] = coeff
        elif p is not None:
            quotient[diff] = coeff * g_inv % p
        else:
            q, rem = divmod(coeff, g_coeff)
            if rem:
                remainder[exps] = coeff
            else:
                quotient[diff] = q
    if remainder:
        rem_poly = MultiPoly(f.arity, remainder, p)
        raise NonDivisible("polynomial division left a remainder", rem_poly)
    return MultiPoly(f.arity, quotient, p)


def degree_in(poly: MultiPoly, var: int) -> int:
    """The largest exponent of variable ``var`` (-1 for the zero polynomial)."""
    return max((e[var] for e in poly.terms), default=-1)


class ReferenceForms(NamedTuple):
    """The whole log-jet numerators on ``(u, v, u1, v1, u2, v2)``."""

    alpha: MultiPoly
    beta: MultiPoly
    gamma_a: MultiPoly
    gamma_b: MultiPoly


def reference_forms(data: ChartData) -> ReferenceForms:
    """``alpha = a'c - c'a`` and ``gamma_a = (a''a - a'^2)c^2 - (c''c - c'^2)a^2``,
    with ``beta``, ``gamma_b`` likewise, where ``f' = f_u*u1 + f_v*v1`` and
    ``f'' = f_u*u2 + f_v*v2 + f_uu*u1^2 + 2*f_uv*u1*v1 + f_vv*v1^2``."""
    modulus = data.a.modulus
    u1, v1, u2, v2 = (MultiPoly.variable(6, i, modulus) for i in (2, 3, 4, 5))
    lift = lambda p: p.embed(6, (0, 1))  # noqa: E731
    jets = []
    for f in (data.a, data.b, data.c):
        f_u, f_v = f.deriv(0), f.deriv(1)
        first = lift(f_u) * u1 + lift(f_v) * v1
        second = (
            lift(f_u) * u2 + lift(f_v) * v2
            + lift(f_u.deriv(0)) * u1 * u1
            + lift(f_u.deriv(1)) * u1 * v1 * 2
            + lift(f_v.deriv(1)) * v1 * v1
        )
        jets.append((lift(f), first, second))
    (a, a1, a2), (b, b1, b2), (c, c1, c2) = jets
    return ReferenceForms(
        alpha=a1 * c - c1 * a,
        beta=b1 * c - c1 * b,
        gamma_a=(a2 * a - a1 * a1) * c * c - (c2 * c - c1 * c1) * a * a,
        gamma_b=(b2 * b - b1 * b1) * c * c - (c2 * c - c1 * c1) * b * b,
    )


def chart_determinant(data: ChartData) -> MultiPoly:
    """``D = det [[a, b, c], [a_u, b_u, c_u], [a_v, b_v, c_v]]`` on the chart,
    by the Leibniz formula over the six permutations of the columns."""
    rows = [
        (data.a, data.b, data.c),
        tuple(f.deriv(0) for f in (data.a, data.b, data.c)),
        tuple(f.deriv(1) for f in (data.a, data.b, data.c)),
    ]
    total = MultiPoly.zero(2, data.a.modulus)
    for perm, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        term = rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
        total = total + term.scale(sign)
    return total


def reference_tilde(data: ChartData) -> MultiPoly:
    """``L~ = alpha*gamma_b*a - gamma_a*beta*b`` on ``(u, v, u1, v1, u2, v2)``."""
    forms = reference_forms(data)
    a, b = (q.embed(6, (0, 1)) for q in (data.a, data.b))
    return forms.alpha * forms.gamma_b * a - forms.gamma_a * forms.beta * b


def reference_reduced(data: ChartData) -> MultiPoly:
    """``L~`` with ``(u2, v2)`` eliminated through ``W``, on
    ``(u, v, u1, v1, W)``: ``L~`` must be linear in ``(u2, v2)``, with a
    ``(u2, v2)``-part that ``u1*v2 - v1*u2`` divides exactly."""
    tilde = reference_tilde(data)
    modulus = tilde.modulus
    parts = coefficient_map(tilde, (4, 5))
    if any(sum(pattern) > 1 for pattern in parts):
        raise AssertionError(f"L~ is not linear in (u2, v2): {sorted(parts)}")
    zero4 = MultiPoly.zero(4, modulus)
    lam_u2 = parts.get((1, 0), zero4)
    lam_v2 = parts.get((0, 1), zero4)
    u1, v1 = MultiPoly.variable(4, 2, modulus), MultiPoly.variable(4, 3, modulus)
    if not (lam_u2 * u1 + lam_v2 * v1).is_zero:
        raise AssertionError("the (u2, v2)-part of L~ is not a multiple of W")
    w_coefficient = exact_div(lam_v2, u1)
    lift = lambda p: p.embed(5, (0, 1, 2, 3))  # noqa: E731
    w_var = MultiPoly.variable(5, 4, modulus)
    return lift(parts.get((0, 0), zero4)) + lift(w_coefficient) * w_var


def full_block(
    data: ChartData, m: int, w: int, k: int
) -> dict[tuple[int, int, int], MultiPoly]:
    """Block ``B_{w,k}`` in the jet-slot form of ``JetExpansion.blocks``,
    with nothing cut modulo ``u^m * v^m``.

    The Wronskian power keeps its full ``(u2, v2)`` dependence; both
    second-order variables are then eliminated jointly through ``W`` and
    nothing residual may survive."""
    forms = reference_forms(data)
    modulus = data.a.modulus
    uv = MultiPoly.variable(2, 0, modulus) * MultiPoly.variable(2, 1, modulus)
    # Work in (u, v, u1, v1, u2, v2, W).
    lift6 = lambda p: p.embed(7, (0, 1, 2, 3, 4, 5))  # noqa: E731
    lift2 = lambda p: p.embed(7, (0, 1))  # noqa: E731
    product = lift6(
        forms.alpha ** (m - 3 * w - k) * forms.beta**k * reference_tilde(data) ** w
    )
    product = product * lift2(
        (data.a ** (w + k)) * (data.b ** (m - 2 * w - k)) * (uv ** (2 * w))
    )
    # Substitute v2 = (W + u2*v1)/u1, cleared by u1^w.
    by_v2 = coefficient_map(product, (5,))
    u1 = MultiPoly.variable(7, 2, modulus)
    v1 = MultiPoly.variable(7, 3, modulus)
    u2 = MultiPoly.variable(7, 4, modulus)
    w_var = MultiPoly.variable(7, 6, modulus)
    replaced = MultiPoly.zero(7, modulus)
    for (d,), coeff in by_v2.items():
        if d > w:
            raise AssertionError("v2-degree exceeds the stratum power")
        replaced = replaced + coeff.embed(
            7, (0, 1, 2, 3, 4, 6)
        ) * (w_var + u2 * v1) ** d * u1 ** (w - d)
    if degree_in(replaced, 4) > 0:
        raise AssertionError("u2 survived the Wronskian elimination")
    collapsed = coefficient_map(replaced, (4, 5)).get(
        (0, 0), MultiPoly.zero(5, modulus)
    )
    block = exact_div(collapsed, MultiPoly.variable(5, 2, modulus) ** w)
    return coefficient_map(block, (2, 3, 4))


def reference_blocks(data: ChartData, space: AnsatzSpace) -> dict:
    """Every ansatz block on one chart, each derived on its own by
    :func:`full_block`, keyed like ``JetExpansion.blocks``."""
    m = space.m
    return {
        (w, k): full_block(data, m, w, k)
        for w, _ in space.strata
        for k in range(m - 3 * w + 1)
    }


def reduce_blocks(blocks: dict, m: int) -> dict:
    """A block map modulo ``u^m * v^m``, as ``JetExpansion.blocks`` stores it:
    every term with ``u``-degree and ``v``-degree both at least ``m`` is
    dropped, and so is every slot left without a term."""
    out = {}
    for key, slot_map in blocks.items():
        out[key] = {}
        for slot, poly in slot_map.items():
            kept = {e: c for e, c in poly.terms.items() if e[0] < m or e[1] < m}
            if kept:
                out[key][slot] = MultiPoly(poly.arity, kept, poly.modulus)
    return out


def reference_rows(expansion: JetExpansion, prime: int) -> list:
    """The obstruction rows of one chart from their definition, the plain way.

    For every jet slot and every ``(u, v)`` with ``u < m`` or ``v < m``, each
    unknown's coefficient is read off its block, shifted by the unknown's
    chart monomial.  The linear forms are sorted by
    ``(slot, u + v, u, v)``, reduced mod ``prime``, zero forms dropped, and
    each scaled to 1 at its lowest column."""
    space = expansion.space
    m = space.m
    forms: dict[tuple, dict[int, int]] = {}
    for col, unknown in enumerate(space.columns):
        shift_u, shift_v = chart_monomial_shift(expansion.chart, unknown.exponents)
        block = expansion.blocks[(unknown.stratum, unknown.split)]
        for slot, poly in block.items():
            for (u, v), coeff in poly.terms.items():
                u, v = u + shift_u, v + shift_v
                if u < m or v < m:
                    form = forms.setdefault((slot, u + v, u, v), {})
                    form[col] = form.get(col, 0) + coeff
    rows = []
    for key in sorted(forms):
        entries = sorted(
            (col, coeff % prime) for col, coeff in forms[key].items() if coeff % prime
        )
        if entries:
            inverse = pow(entries[0][1], -1, prime)
            rows.append(tuple((col, coeff * inverse % prime) for col, coeff in entries))
    return rows


def tuple_product(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """``f * g`` the plain way: exponent tuples added entry by entry."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return MultiPoly(f.arity, out, f.modulus)


def backsubstitute_per_free_column(pivot_log, n_vars: int, p: int) -> list[dict]:
    """The nullspace basis the plain way: for each free column in turn, one
    back-substitution through the whole pivot log of
    :func:`jetcert.gflinalg._eliminate`."""
    pivot_cols = {col for col, _, _ in pivot_log}
    basis = []
    for free in (c for c in range(n_vars) if c not in pivot_cols):
        vector = {free: 1}
        for col, _, row in reversed(pivot_log):
            acc = 0
            for c, coeff in row.items():
                if c != col and c in vector:
                    acc = (acc + coeff * vector[c]) % p
            if acc:
                vector[col] = (-acc) % p
        basis.append(vector)
    return basis


def annihilated_by_every_row(system, vector: dict[int, int]) -> bool:
    """Brute force: every row of the system, whatever its support, sums to
    zero mod p against ``vector``."""
    p = system.prime
    return all(
        sum(coeff * vector.get(col, 0) for col, coeff in row) % p == 0
        for row in system.rows
    )


def random_nonzero_poly(
    rng: random.Random,
    arity: int,
    max_degree: int = 4,
    n_terms: int = 6,
    modulus: int | None = None,
) -> MultiPoly:
    while True:
        poly = random_poly(rng, arity, max_degree, n_terms, modulus)
        if not poly.is_zero:
            return poly
