"""Tests for the exact sparse GF(p) elimination engine.

The load-bearing check is sparse-vs-dense agreement on seeded random
systems: the sparse online elimination and the textbook dense elimination
are independent code paths that must report identical rank and nullity,
and every emitted nullspace vector must annihilate every row.  The pivot
log that the sparse engine, its reduction and its back-substitution share
is checked directly, and so is the rule that skips a row proved to lie in
the span of the pivot rows.  The one-pass back-substitution and the
solution check that visits only the rows meeting a vector's support are
compared with plain reference versions.
"""

from __future__ import annotations

import random

import pytest

from jetcert.conics import PRESET_TRIPLES
from jetcert.gflinalg import (
    DENSE_LIMIT,
    _eliminate,
    dense_rank_nullity,
    in_row_span,
    is_prime,
    nullspace_basis,
    rank_nullity,
    verify_solution,
)
from jetcert.linsys import LinearSystem, assemble

from _util import annihilated_by_every_row, backsubstitute_per_free_column

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


def _oracle_systems():
    """The seeded random systems of the sparse-vs-dense comparison."""
    rng = random.Random(1729)
    for _ in range(40):
        prime = rng.choice([5, 7, 11])
        n_vars = rng.randint(1, 60)
        n_rows = rng.randint(0, 90)
        yield _random_system(rng, n_vars, n_rows, prime)


def test_sparse_matches_dense_oracle_randomized():
    for system in _oracle_systems():
        prime, n_vars = system.prime, system.n_vars
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


# is_prime is exact only below 2^64: the composite
# 318665857834031151167461 = 399165290221 * 798330580441 passes all twelve
# of its bases, so no modulus from 2^64 up is accepted, prime or not.
@pytest.mark.parametrize(
    "prime", [318665857834031151167461, 2**89 - 1], ids=["composite", "mersenne-89"]
)
def test_rejects_modulus_at_or_above_two_to_the_64(prime):
    system = LinearSystem(prime=prime, n_vars=1, rows=(((0, 1),),))
    for run in (rank_nullity, nullspace_basis, dense_rank_nullity):
        with pytest.raises(ValueError, match="below 2\\^64"):
            run(system)


def test_alternate_prime_certifies_small_instance():
    """The certificate is not tied to the default prime."""
    system = assemble(FERMAT, 3, 3, 7)
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == (113, 0)


# -- online elimination ----------------------------------------------------------------


def test_late_dense_row_completes_the_rank():
    """The only row that carries column 5 is the densest, so it is read
    last: the redundant rows before it must not stop the elimination."""
    rows = [((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),),
            ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (3, 1)),
            tuple((c, 1) for c in range(6))]
    system = LinearSystem(prime=5, n_vars=6, rows=tuple(rows))
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == (6, 0)
    assert result.rows_admitted == 6
    assert (5, 8) in result.pivots


def test_row_that_touches_no_free_column_can_complete_the_rank():
    """Row 3 touches only pivot columns, yet its residue carries the free
    column 1; reducing it against the log must keep that residue."""
    rows = (((0, 1), (1, 1)), ((0, 2), (1, 2)), ((2, 1),), ((0, 1), (2, 1)))
    system = LinearSystem(prime=5, n_vars=3, rows=rows)
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == (3, 0)
    assert result.rows_admitted == 4


def test_deferred_row_reaches_the_free_column_through_two_pivot_rows():
    """Row 3 touches only the pivot columns 0 and 3, so it is deferred.  The
    frozen row of column 0 names pivot column 1, whose frozen row names the
    free column 2: only this path through two pivot rows shows that row 3
    has a nonzero residue, and a check one level deep would skip it."""
    rows = (((3, 1),), ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (3, 1)))
    system = LinearSystem(prime=5, n_vars=4, rows=rows)
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == dense_rank_nullity(system) == (4, 0)
    assert result.rows_admitted == 4
    assert (2, 3) in result.pivots


def _pivot_rows_span_every_row(system, result):
    """The dense oracle's check that the rows named by ``pivots`` span every
    row of the system, which makes the rank, the nullity and the basis those
    of the whole system, however many rows were skipped."""
    witness = tuple(system.rows[rid] for _, rid in result.pivots)
    stacked = LinearSystem(
        prime=system.prime, n_vars=system.n_vars, rows=witness + system.rows
    )
    alone = LinearSystem(prime=system.prime, n_vars=system.n_vars, rows=witness)
    return dense_rank_nullity(alone)[0] == dense_rank_nullity(stacked)[0] == result.rank


def _planted_kernel_system(rng, n_vars, n_rows, prime, pairs):
    """Random rows with equal coefficients on both columns of each planted
    pair ``(a, b)``, so that every ``e_a - e_b`` lies in the kernel."""
    cols = rng.sample(range(n_vars), 2 * pairs)
    twins = list(zip(cols[::2], cols[1::2]))
    rows = []
    for _ in range(n_rows):
        picked = rng.sample(range(n_vars), rng.randint(1, min(6, n_vars)))
        row = {c: rng.randint(1, prime - 1) for c in picked}
        for a, b in twins:
            if a in row or b in row:
                row[a] = row[b] = row.get(a, row.get(b))
        rows.append(tuple(sorted(row.items())))
    return LinearSystem(prime=prime, n_vars=n_vars, rows=tuple(rows))


def _mixed_systems(prime):
    """Seeded over- and under-determined systems, every third one with a
    planted kernel."""
    rng = random.Random(6000 + prime)
    for trial in range(60):
        n_vars = rng.randint(6, 50)
        n_rows = rng.choice([rng.randint(0, n_vars), rng.randint(n_vars + 1, 4 * n_vars)])
        if trial % 3 == 2:
            yield _planted_kernel_system(rng, n_vars, n_rows, prime, rng.randint(1, 3))
        else:
            yield _random_system(rng, n_vars, n_rows, prime)


@pytest.mark.parametrize("prime", [5, 7])
def test_staged_admission_matches_dense_oracle(prime):
    """Over- and under-determined, full-rank and deficient systems: the rank
    is the dense oracle's, and at a nonzero nullity the pivot rows span
    every row."""
    shapes = set()
    for system in _mixed_systems(prime):
        result = rank_nullity(system)
        assert (result.rank, result.nullity) == dense_rank_nullity(system)
        assert result.rows_admitted <= system.n_rows
        if result.nullity:
            assert _pivot_rows_span_every_row(system, result)
        shapes.add((system.n_rows > system.n_vars, result.nullity == 0))
    # An under-determined system is always deficient; a square one may not be.
    assert {(True, True), (True, False), (False, False)} <= shapes


def test_fermat_4_3_certifies_from_a_row_subset():
    system = assemble(FERMAT, 4, 3, 5)
    result = rank_nullity(system)
    assert (result.rank, result.nullity) == dense_rank_nullity(system) == (295, 0)
    assert result.rows_admitted == 323 < system.n_rows == 633


@pytest.mark.parametrize("which", ["fermat-3-0", "planted"])
def test_basis_is_annihilated_by_every_row(which):
    """Back-substitution through the pivot log of a deficient system gives
    vectors that every row of the system annihilates, not only the pivot
    rows."""
    if which == "fermat-3-0":
        system = assemble(FERMAT, 3, 0, 5)
    else:
        system = _planted_kernel_system(random.Random(41), 40, 160, 5, 2)
    result = nullspace_basis(system)
    assert result.nullity > 0
    assert _pivot_rows_span_every_row(system, result)
    assert len(result.basis) == result.nullity
    for vector in result.basis:
        assert annihilated_by_every_row(system, vector)


def _named_systems(which):
    """``fermat-m-t`` (one assembled system), ``oracle`` or ``mixed-p``."""
    kind, *args = which.split("-")
    if kind == "fermat":
        return [assemble(FERMAT, int(args[0]), int(args[1]), 5)]
    if kind == "oracle":
        return _oracle_systems()
    return _mixed_systems(int(args[0]))


@pytest.mark.parametrize("which", ["fermat-4-3", "fermat-3-0", "oracle", "mixed-5", "mixed-7"])
def test_pivot_log_invariant(which):
    """What the one-pass reduction and back-substitution rely on: every
    frozen row has 1 at its pivot column and no entry in an earlier pivot
    column.  The rows named by ``pivots`` are independent, so at full rank
    they alone have full rank: the witness of the certificate."""
    for system in _named_systems(which):
        pivot_log, _ = _eliminate(system)
        earlier: set[int] = set()
        for col, _, row in pivot_log:
            assert row[col] == 1
            assert earlier.isdisjoint(row)
            earlier.add(col)
        result = rank_nullity(system)
        assert result.pivots == tuple((col, rid) for col, rid, _ in pivot_log)
        rids = [rid for _, rid in result.pivots]
        assert len(set(rids)) == len(rids)
        witness = LinearSystem(
            prime=system.prime,
            n_vars=system.n_vars,
            rows=tuple(system.rows[rid] for rid in rids),
        )
        assert dense_rank_nullity(witness)[0] == result.rank


@pytest.mark.parametrize(
    "which", ["fermat-3-0", "fermat-4-0", "fermat-5-0", "oracle", "mixed-5", "mixed-7"]
)
def test_backsubstitution_matches_per_column_reference(which):
    """The one reverse pass gives, on the same pivot log, the vectors of one
    back-substitution per free column: same keys, values and key order."""
    for system in _named_systems(which):
        pivot_log, _ = _eliminate(system)
        expected = backsubstitute_per_free_column(pivot_log, system.n_vars, system.prime)
        basis = nullspace_basis(system).basis
        assert [list(v.items()) for v in basis] == [list(v.items()) for v in expected]


@pytest.mark.parametrize("which", ["oracle", "mixed-5", "mixed-7"])
def test_verify_solution_matches_all_rows_check(which):
    """Visiting only the rows that meet the support gives the verdict of
    checking every row: on annihilating vectors, random vectors, a support
    that meets no row and a vector that is zero mod p."""
    rng = random.Random(4242)
    verdicts = set()
    untouched_seen = False
    for system in _named_systems(which):
        p, n = system.prime, system.n_vars
        basis = nullspace_basis(system).basis
        candidates = list(basis)
        candidates.append({c: rng.randint(1, 3 * p) for c in range(n) if rng.random() < 0.5})
        candidates.append({c: p * rng.randint(1, 3) for c in range(n)})
        if len(basis) > 1:
            candidates.append({c: (basis[0].get(c, 0) + 2 * basis[1].get(c, 0)) % p
                               for c in set(basis[0]) | set(basis[1])})
        untouched = [c for c, rids in enumerate(system.column_rows) if not rids]
        if untouched:
            untouched_seen = True
            candidates.append({c: rng.randint(1, p - 1) for c in untouched})
        for vector in candidates:
            verdict = verify_solution(system, vector)
            assert verdict == annihilated_by_every_row(system, vector)
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert untouched_seen
