"""Tests for the exact sparse GF(p) elimination engine.

The load-bearing check is sparse-vs-dense agreement on seeded random
systems: the sparse Markowitz-pivoting engine and the textbook dense
elimination are independent code paths that must report identical rank
and nullity, and every emitted nullspace vector must annihilate every row.
"""

from __future__ import annotations

import random

import pytest

from jetcert.conics import PRESET_TRIPLES
from jetcert.gflinalg import (
    DENSE_LIMIT,
    dense_rank_nullity,
    in_row_span,
    is_prime,
    nullspace_basis,
    rank_nullity,
    verify_solution,
)
from jetcert.linsys import LinearSystem, assemble

FERMAT = PRESET_TRIPLES["fermat"]


def test_is_prime_reference_values():
    primes = [2, 3, 5, 7, 11, 13, 31, 97, 2**31 - 1, 2**61 - 1]
    composites = [0, 1, 4, 9, 91, 561, 1373653, 25326001, 3215031751, 2**61 + 1]
    for p in primes:
        assert is_prime(p)
    for n in composites:
        assert not is_prime(n)


def _random_system(rng, n_vars, n_rows, prime):
    rows = []
    for _ in range(n_rows):
        cols = sorted(rng.sample(range(n_vars), rng.randint(1, min(6, n_vars))))
        rows.append(tuple((c, rng.randint(1, prime - 1)) for c in cols))
    return LinearSystem(prime=prime, n_vars=n_vars, rows=tuple(rows))


def test_identity_like_system():
    system = LinearSystem(prime=5, n_vars=4, rows=tuple(((i, 3),) for i in range(4)))
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == (4, 0)


def test_empty_system_full_nullspace():
    system = LinearSystem(prime=5, n_vars=3, rows=())
    result = nullspace_basis(system)
    assert (result.rank, result.nullity) == (0, 3)
    assert result.basis == ({0: 1}, {1: 1}, {2: 1})
    for vector in result.basis:
        assert verify_solution(system, vector)


def test_sparse_matches_dense_oracle_randomized():
    rng = random.Random(1729)
    for _ in range(40):
        prime = rng.choice([5, 7, 11])
        n_vars = rng.randint(1, 60)
        n_rows = rng.randint(0, 90)
        system = _random_system(rng, n_vars, n_rows, prime)
        sparse = nullspace_basis(system)
        dense = dense_rank_nullity(system)
        assert (sparse.rank, sparse.nullity) == dense
        assert len(sparse.basis) == sparse.nullity
        for vector in sparse.basis:
            assert vector and verify_solution(system, vector)
        if sparse.basis:
            # The emitted basis must be linearly independent.
            rows = tuple(
                tuple(sorted(vec.items())) for vec in sparse.basis
            )
            stacked = LinearSystem(prime=prime, n_vars=n_vars, rows=rows)
            assert dense_rank_nullity(stacked)[0] == sparse.nullity


def test_planted_solution_is_found():
    rng = random.Random(20260816)
    prime = 5
    n_vars = 30
    solution = {c: rng.randint(1, prime - 1) for c in rng.sample(range(n_vars), 12)}
    pivot_col = min(solution)
    rows = []
    for _ in range(60):
        cols = sorted(rng.sample([c for c in range(n_vars) if c != pivot_col], 5))
        row = {c: rng.randint(1, prime - 1) for c in cols}
        acc = sum(v * solution.get(c, 0) for c, v in row.items()) % prime
        # Fix up the row to be orthogonal to the planted vector.
        balance = (-acc) * pow(solution[pivot_col], prime - 2, prime) % prime
        if balance:
            row[pivot_col] = balance
        rows.append(tuple(sorted(row.items())))
    system = LinearSystem(prime=prime, n_vars=n_vars, rows=tuple(rows))
    assert verify_solution(system, solution)
    result = nullspace_basis(system)
    assert result.nullity >= 1
    assert in_row_span(system, result.basis, solution)


def test_elimination_is_deterministic_and_worker_invariant():
    rng = random.Random(99)
    system = _random_system(rng, 80, 120, 5)
    first = nullspace_basis(system)
    second = nullspace_basis(system)
    assert first == second
    assert rank_nullity(system).pivots == first.pivots


def test_verify_solution_validates_input():
    system = LinearSystem(prime=5, n_vars=2, rows=(((0, 1), (1, 1)),))
    assert verify_solution(system, {0: 1, 1: 4})
    assert not verify_solution(system, {0: 1, 1: 1})
    assert verify_solution(system, {0: 5, 1: 10})  # reduces to the zero vector
    with pytest.raises(ValueError):
        verify_solution(system, {7: 1})


def test_in_row_span_negative():
    system = LinearSystem(prime=5, n_vars=3, rows=())
    basis = ({0: 1},)
    assert in_row_span(system, basis, {0: 3})
    assert not in_row_span(system, basis, {1: 1})
    assert in_row_span(system, basis, {})  # zero vector is always in the span


def test_dense_oracle_guard():
    system = LinearSystem(prime=5, n_vars=DENSE_LIMIT + 1, rows=())
    with pytest.raises(ValueError):
        dense_rank_nullity(system)


def test_rejects_composite_modulus():
    system = LinearSystem(prime=6, n_vars=1, rows=())
    with pytest.raises(ValueError):
        rank_nullity(system)


def test_alternate_prime_certifies_small_instance():
    """The certificate is not tied to the default prime."""
    system = assemble(FERMAT, 3, 3, 7)
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == (113, 0)
