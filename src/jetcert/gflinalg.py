"""Exact sparse linear algebra over GF(p).

The core routine is online Gaussian elimination on sparse rows.  The rows
are read sparsest first (ties broken by row index); each is reduced against
the pivot log of the rows read before it, and a nonzero residue is
normalized to 1 at its lowest column and frozen as the next log entry.
Every frozen row is thus clear of all earlier pivot columns, so one pass in
log order reduces a row, and one reverse pass back-substitutes.  The order
is fully deterministic, so rank, nullity and the emitted nullspace basis
are reproducible bit-for-bit.

A row whose entries all sit in pivot columns is deferred until the other
rows were read, and is then reduced only if one of its columns leads,
through the frozen rows, to a free column (one that is not a pivot column).
Otherwise it is skipped, which is exact: reducing it could only bring in
pivot columns, each of which is cleared in turn, so its residue is zero and
it lies in the span of the log for good.

Elimination stops at rank ``n_vars``, because the obstruction systems carry
two to three times more rows than unknowns and reducing the surplus to zero
would be most of the work.  This is sound: any subset of the rows is a set
of necessary conditions, so full rank on a subset certifies the whole
system, and a rank below ``n_vars`` is only ever reported after every row
was reduced or proved to lie in the span.  The reported rank is therefore
always the rank of the full system, and at full rank the ``n_vars`` rows
that supplied the pivots have full rank on their own.

Everything is exact arithmetic in the prime field; there is no rounding
and therefore no tolerance anywhere in this module.  A dense textbook
elimination is provided as an independent oracle for small systems.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .jets import Row
from .linsys import LinearSystem

# One entry per rank: (pivot column, source row index, frozen pivot row).
PivotLog = list[tuple[int, int, dict[int, int]]]


#: :func:`is_prime` is exact below this bound, so no modulus at or above it
#: is accepted.
PRIME_BOUND = 1 << 64


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
    """Outcome of one elimination.

    ``rows_admitted`` counts the rows reduced before it stopped.  Whenever
    the nullity is above 0, every other row was skipped because it provably
    lies in the span of the pivot rows (see the module docstring)."""

    rank: int
    nullity: int
    pivots: tuple[tuple[int, int], ...]
    rows_admitted: int
    basis: tuple[dict[int, int], ...] | None = None


def _check_system(system: LinearSystem) -> None:
    if system.prime >= PRIME_BOUND:
        raise ValueError(f"modulus {system.prime} is not below 2^64")
    if not is_prime(system.prime):
        raise ValueError(f"modulus {system.prime} is not prime")


def _reduce(entries: Row, p: int, pivot_log: PivotLog,
            position: dict[int, int]) -> dict[int, int]:
    """The residue of one source row against the frozen pivot log.

    Pivots are applied in log order, driven by a heap of the log positions
    of the row's pivot columns.  A frozen row is clear of every earlier
    pivot column, so applying it brings in only later ones and one pass
    clears them all.
    """
    row = {}
    for col, coeff in entries:
        coeff %= p
        if coeff:
            row[col] = coeff
    heap = [position[c] for c in row if c in position]
    heapq.heapify(heap)
    while heap:
        col, _, pivot = pivot_log[heapq.heappop(heap)]
        factor = row.get(col)
        if factor is None:
            continue
        neg = p - factor
        for c, pc in pivot.items():
            old = row.get(c)
            if old is None:
                row[c] = neg * pc % p
                pos = position.get(c)
                if pos is not None:
                    heapq.heappush(heap, pos)
            else:
                val = (old + neg * pc) % p
                if val:
                    row[c] = val
                else:
                    del row[c]
    return row


def _reach(pivot_log: PivotLog, position: dict[int, int]) -> list[bool]:
    """Per log entry, whether reducing by it can bring in a free column.

    An entry reaches if its frozen row has a free column, or a pivot column
    whose entry reaches.  A frozen row names only the pivot columns of later
    entries, so one reverse pass is exact.
    """
    reach = [False] * len(pivot_log)
    for i in range(len(pivot_log) - 1, -1, -1):
        col, _, row = pivot_log[i]
        for c in row:
            if c != col:
                pos = position.get(c)
                if pos is None or reach[pos]:
                    reach[i] = True
                    break
    return reach


def _eliminate(system: LinearSystem) -> tuple[PivotLog, int]:
    """Forward elimination, one row at a time, sparsest first.

    Returns the pivot log, one entry per rank, and the number of rows
    reduced.  Each log entry is ``(col, row_index, frozen_row)`` where
    ``frozen_row`` is the row's residue against the log before it,
    normalized to 1 at its lowest column ``col``; it is therefore clear of
    all earlier pivot columns.  A row with no entry in a free column is
    deferred, in order, and after the first pass reduced only if one of its
    columns reaches (:func:`_reach`); a row that cannot reach is skipped.
    """
    p = system.prime
    n = system.n_vars
    source = system.rows
    order = sorted(range(len(source)), key=lambda r: (len(source[r]), r))
    pivot_log: PivotLog = []
    position: dict[int, int] = {}  # pivot column -> its index in the log

    def admit(rid: int) -> None:
        row = _reduce(source[rid], p, pivot_log, position)
        if not row:
            return
        col = min(row)
        inv = pow(row[col], p - 2, p)
        if inv != 1:
            for c in row:
                row[c] = row[c] * inv % p
        position[col] = len(pivot_log)
        pivot_log.append((col, rid, row))

    reduced = skipped = 0
    deferred: list[int] = []
    for rid in order:
        if len(pivot_log) == n:
            break
        if all(col in position for col, _ in source[rid]):
            deferred.append(rid)
            continue
        reduced += 1
        admit(rid)
    reach: list[bool] = []
    for rid in deferred:
        if len(pivot_log) == n:
            break
        if len(reach) != len(pivot_log):  # a new pivot makes the flags stale
            reach = _reach(pivot_log, position)
        if not any(reach[position[col]] for col, _ in source[rid]):
            skipped += 1
            continue
        reduced += 1
        admit(rid)
    # Soundness: the rank is that of the whole system only if it is full or
    # every row was reduced or skipped.  Raised, not asserted, so that ``-O``
    # keeps it.
    if len(pivot_log) != n and reduced + skipped != len(source):
        raise AssertionError("elimination stopped short of full rank with rows left")
    return pivot_log, reduced


def _result(system: LinearSystem, pivot_log: PivotLog, reduced: int,
            basis: tuple[dict[int, int], ...] | None = None) -> EliminationResult:
    rank = len(pivot_log)
    return EliminationResult(
        rank=rank,
        nullity=system.n_vars - rank,
        pivots=tuple((col, rid) for col, rid, _ in pivot_log),
        rows_admitted=reduced,
        basis=basis,
    )


def rank_nullity(system: LinearSystem) -> EliminationResult:
    """Rank and nullity of the system over GF(p).

    Elimination stops at full rank (see the module docstring): a full-rank
    system usually stops before all rows are read, and a deficient one
    reduces every row or proves that it lies in the span of the pivot rows,
    so the rank is that of the whole system either way.
    ``pivots`` lists ``(column, row index)`` pairs; the row indices point
    into ``system.rows`` and, at full rank, name ``n_vars`` rows that alone
    have full rank.
    """
    _check_system(system)
    return _result(system, *_eliminate(system))


def nullspace_basis(system: LinearSystem, *, workers: int = 0) -> EliminationResult:
    """Rank, nullity and an explicit nullspace basis.

    One basis vector per free column, with a 1 in that column; pivot
    coordinates are recovered by back-substitution through the pivot log
    in reverse order (each frozen pivot row is clear of earlier pivot
    columns, so a single reverse pass suffices).  The pass serves every
    free column at once: each column keeps the nonzero coordinates of the
    basis vectors in it, so the work follows the nonzeros produced, not
    nullity times log size.  A vector's keys are its free column, then its
    nonzero pivot columns in reverse log order.

    A nonzero nullity is reached only after every row was reduced, leaving
    a residue in the span of the pivot rows, or skipped because it lies in
    that span, so every basis vector is annihilated by every row of the
    system, not only by the pivot rows.

    ``workers`` is ignored: elimination is always serial.  The keyword is
    kept only because the benchmark's traced replay
    (``perfbench/traced.py``) still passes it.
    """
    _check_system(system)
    p = system.prime
    pivot_log, reduced = _eliminate(system)
    pivot_cols = {col for col, _, _ in pivot_log}
    free_cols = [c for c in range(system.n_vars) if c not in pivot_cols]
    # column -> {basis index: nonzero coordinate of that vector}
    values: dict[int, dict[int, int]] = {free: {k: 1} for k, free in enumerate(free_cols)}
    basis = [{free: 1} for free in free_cols]
    for col, _, row in reversed(pivot_log):
        acc: dict[int, int] = {}
        for c, coeff in row.items():
            if c != col:
                for k, v in values[c].items():
                    acc[k] = (acc.get(k, 0) + coeff * v) % p
        values[col] = coords = {k: p - a for k, a in acc.items() if a}
        for k, v in coords.items():
            basis[k][col] = v
    result = _result(system, pivot_log, reduced, tuple(basis))
    assert result.nullity == len(basis)
    return result


def verify_solution(system: LinearSystem, vector: dict[int, int]) -> bool:
    """Exact check that every row annihilates the vector mod p.

    Only a row that meets the vector's support can fail, so only those rows
    are visited, found through ``system.column_rows``."""
    p = system.prime
    reduced = {c: v % p for c, v in vector.items() if v % p}
    if any(not 0 <= c < system.n_vars for c in reduced):
        raise ValueError("vector has coordinates outside the unknown range")
    index = system.column_rows
    touched: set[int] = set()
    for c in reduced:
        touched.update(index[c])
    rows = system.rows
    for rid in touched:
        acc = 0
        for col, coeff in rows[rid]:
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
    """Whether ``candidate`` lies in the GF(p) span of ``vectors``: its
    residue against the pivot log of ``vectors`` is empty."""
    p = system.prime
    base_rows = tuple(
        tuple(sorted((c, v % p) for c, v in vec.items() if v % p)) for vec in vectors
    )
    base = LinearSystem(prime=p, n_vars=system.n_vars, rows=base_rows)
    _check_system(base)
    pivot_log, _ = _eliminate(base)
    position = {col: i for i, (col, _, _) in enumerate(pivot_log)}
    return not _reduce(candidate.items(), p, pivot_log, position)
