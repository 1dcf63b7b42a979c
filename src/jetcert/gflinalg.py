"""Exact sparse linear algebra over GF(p).

The core routine runs fraction-free Gaussian elimination on a sparse
row/column-indexed representation with a Markowitz-flavoured pivot rule:
the pivot column is the active column with the fewest active rows (ties
broken by column index), and within it the row with the fewest entries
(ties broken by row index).  The rule is fully deterministic, so rank,
nullity and the emitted nullspace basis are reproducible bit-for-bit.

Everything is exact arithmetic in the prime field; there is no rounding
and therefore no tolerance anywhere in this module.  A dense textbook
elimination is provided as an independent oracle for small systems.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .linsys import LinearSystem


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in small:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class EliminationResult:
    prime: int
    n_vars: int
    rank: int
    nullity: int
    pivots: tuple[tuple[int, int], ...]
    basis: tuple[dict[int, int], ...] | None = None


def _check_system(system: LinearSystem) -> None:
    if not is_prime(system.prime):
        raise ValueError(f"modulus {system.prime} is not prime")


def _active_rows(system: LinearSystem) -> tuple[list[dict[int, int]], dict[int, set[int]]]:
    rows: list[dict[int, int]] = []
    columns: dict[int, set[int]] = {}
    for r, row in enumerate(system.rows):
        entries = {col: coeff % system.prime for col, coeff in row}
        entries = {col: coeff for col, coeff in entries.items() if coeff}
        rows.append(entries)
        for col in entries:
            columns.setdefault(col, set()).add(r)
    return rows, columns


def _eliminate(system: LinearSystem) -> list[tuple[int, int, dict[int, int]]]:
    """Forward elimination; returns the pivot log, one entry per rank.

    Each log entry is ``(col, row_index, frozen_row)`` where ``frozen_row``
    is the pivot row at the moment it was used, normalized to pivot 1 and
    already clear of all earlier pivot columns.
    """
    p = system.prime
    rows, columns = _active_rows(system)
    heap: list[tuple[int, int]] = [(len(rids), col) for col, rids in columns.items()]
    heapq.heapify(heap)
    pivot_log: list[tuple[int, int, dict[int, int]]] = []
    while heap:
        count, col = heapq.heappop(heap)
        rids = columns.get(col)
        if not rids:
            continue
        if count != len(rids):
            heapq.heappush(heap, (len(rids), col))
            continue
        pivot_row_id = min(rids, key=lambda r: (len(rows[r]), r))
        pivot = rows[pivot_row_id]
        inv = pow(pivot[col], p - 2, p)
        if inv != 1:
            for c in pivot:
                pivot[c] = pivot[c] * inv % p
        # Retire the pivot row from the active indices.
        for c in pivot:
            columns[c].discard(pivot_row_id)
        targets = sorted(rids - {pivot_row_id})
        rids.clear()
        touched: set[int] = set()
        for rid in targets:
            row = rows[rid]
            factor = row[col]
            for c, pc in pivot.items():
                val = (row.get(c, 0) - factor * pc) % p
                if val:
                    if c not in row:
                        columns.setdefault(c, set()).add(rid)
                        touched.add(c)
                    row[c] = val
                elif c in row:
                    del row[c]
                    columns[c].discard(rid)
                    touched.add(c)
        # Push the new counts only once every target is reduced.
        for c in touched:
            if columns.get(c):
                heapq.heappush(heap, (len(columns[c]), c))
        pivot_log.append((col, pivot_row_id, pivot))
        rows[pivot_row_id] = {}
    return pivot_log


def rank_nullity(system: LinearSystem) -> EliminationResult:
    """Rank and nullity of the system over GF(p)."""
    _check_system(system)
    pivot_log = _eliminate(system)
    rank = len(pivot_log)
    return EliminationResult(
        prime=system.prime,
        n_vars=system.n_vars,
        rank=rank,
        nullity=system.n_vars - rank,
        pivots=tuple((col, rid) for col, rid, _ in pivot_log),
    )


def nullspace_basis(system: LinearSystem, *, workers: int = 0) -> EliminationResult:
    """Rank, nullity and an explicit nullspace basis.

    One basis vector per free column, with a 1 in that column; pivot
    coordinates are recovered by back-substitution through the pivot log
    in reverse order (each frozen pivot row is clear of earlier pivot
    columns, so a single reverse pass suffices).

    ``workers`` is ignored: elimination is always serial.  The keyword is
    kept only because the benchmark's traced replay
    (``perfbench/traced.py``) still passes it.
    """
    _check_system(system)
    p = system.prime
    pivot_log = _eliminate(system)
    rank = len(pivot_log)
    pivot_cols = {col for col, _, _ in pivot_log}
    free_cols = [c for c in range(system.n_vars) if c not in pivot_cols]
    basis: list[dict[int, int]] = []
    for free in free_cols:
        vector: dict[int, int] = {free: 1}
        for col, _, row in reversed(pivot_log):
            acc = 0
            for c, coeff in row.items():
                if c != col and c in vector:
                    acc = (acc + coeff * vector[c]) % p
            if acc:
                vector[col] = (-acc) % p
        basis.append(vector)
    result = EliminationResult(
        prime=p,
        n_vars=system.n_vars,
        rank=rank,
        nullity=system.n_vars - rank,
        pivots=tuple((col, rid) for col, rid, _ in pivot_log),
        basis=tuple(basis),
    )
    assert result.nullity == len(basis)
    return result


def verify_solution(system: LinearSystem, vector: dict[int, int]) -> bool:
    """Exact check that every row annihilates the vector mod p."""
    p = system.prime
    reduced = {c: v % p for c, v in vector.items() if v % p}
    if any(not 0 <= c < system.n_vars for c in reduced):
        raise ValueError("vector has coordinates outside the unknown range")
    for row in system.rows:
        acc = 0
        for col, coeff in row:
            if col in reduced:
                acc = (acc + coeff * reduced[col]) % p
        if acc:
            return False
    return True


DENSE_LIMIT = 500


def dense_rank_nullity(system: LinearSystem) -> tuple[int, int]:
    """Textbook dense Gaussian elimination; independent oracle.

    Guarded to small systems: the point is cross-validation, not speed.
    """
    _check_system(system)
    if system.n_vars > DENSE_LIMIT:
        raise ValueError(
            f"dense oracle is limited to {DENSE_LIMIT} columns, got {system.n_vars}"
        )
    p = system.prime
    matrix = []
    for row in system.rows:
        dense = [0] * system.n_vars
        for col, coeff in row:
            dense[col] = coeff % p
        matrix.append(dense)
    rank = 0
    for col in range(system.n_vars):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = pow(matrix[rank][col], p - 2, p)
        matrix[rank] = [v * inv % p for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    (v - factor * w) % p for v, w in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank, system.n_vars - rank


def in_row_span(system: LinearSystem, vectors: tuple[dict[int, int], ...],
                candidate: dict[int, int]) -> bool:
    """Whether ``candidate`` lies in the GF(p) span of ``vectors``."""
    p = system.prime
    base_rows = tuple(
        tuple(sorted((c, v % p) for c, v in vec.items() if v % p)) for vec in vectors
    )
    cand_row = tuple(sorted((c, v % p) for c, v in candidate.items() if v % p))
    base = LinearSystem(prime=p, n_vars=system.n_vars, rows=base_rows)
    extended = LinearSystem(prime=p, n_vars=system.n_vars, rows=base_rows + (cand_row,))
    return rank_nullity(base).rank == rank_nullity(extended).rank
