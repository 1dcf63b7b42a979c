"""Shared helpers for the test suite (seeded-random generators, tiny oracles)."""

from __future__ import annotations

import random

from jetcert.conics import ChartData
from jetcert.jets import AnsatzSpace, full_block
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


def reference_blocks(data: ChartData, space: AnsatzSpace) -> dict:
    """Every ansatz block on one chart, each derived on its own by
    :func:`jetcert.jets.full_block`, keyed like ``JetExpansion.blocks``."""
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
