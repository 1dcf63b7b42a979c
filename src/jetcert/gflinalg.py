"""Exact sparse linear algebra over GF(p).

The core routine is online Gauss-Jordan elimination on sparse rows.  The
rows are read sparsest first (ties broken by row index).  The pivot rows
are kept fully reduced: each holds 1 at its pivot column and otherwise
entries in free columns (those that are not pivot columns) only.  So a
row's residue is one pass over its own entries, each entry in a pivot
column replaced by its multiple of that pivot row.  A nonzero residue is
normalized to 1 at its lowest column, which is then cleared from every
stored row that holds it.  The residue of a row against a set of pivot
rows is unique, whatever form the rows are kept in, so the pivot columns,
rank and nullspace basis are those an echelon elimination in the same read
order finds.  The order is fully deterministic, so rank, nullity and the
emitted basis are reproducible bit-for-bit.  Its worst case is a chain of
rows ``x_i + x_(i+1)``, where each new pivot is cleared from every stored
row; the obstruction systems' pivot rows stay short.

A row whose entries all sit in pivot columns is deferred until the other
rows were read, and is then reduced only if one of those pivot rows has an
entry in a free column.  Otherwise it is skipped, which is exact: each of
its entries is then cancelled by a unit pivot row, so its residue is zero
and it lies in the span of the pivot rows for good.

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

from dataclasses import dataclass
from typing import Iterable

from .jets import Row
from .linsys import LinearSystem

# Pivot column -> the pivot row without its 1: its entries in free columns.
PivotRows = dict[int, dict[int, int]]


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

    ``rows_admitted`` counts the rows reduced before it stopped, a residue
    of zero included.  Whenever the nullity is above 0, every other row was
    skipped because all the pivot rows it meets are unit rows, so it lies
    in their span (see the module docstring)."""

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


def _check_coordinates(system: LinearSystem, vector: dict[int, int]) -> None:
    if any(not 0 <= c < system.n_vars for c in vector):
        raise ValueError("vector has coordinates outside the unknown range")


def _residue(entries: Iterable[tuple[int, int]], p: int,
             tails: PivotRows) -> dict[int, int]:
    """The residue of one row against the pivot rows, in one pass over its
    own entries: an entry in a pivot column is replaced by its multiple of
    that pivot row's tail, which holds free columns only."""
    row: dict[int, int] = {}
    get = row.get
    for col, coeff in entries:
        tail = tails.get(col)
        if tail is None:
            row[col] = (get(col, 0) + coeff) % p
        else:
            for c, v in tail.items():
                row[c] = (get(c, 0) - coeff * v) % p
    return {c: v for c, v in row.items() if v}


def _eliminate(system: LinearSystem) -> tuple[list[tuple[int, int]], PivotRows, int]:
    """Gauss-Jordan elimination, one row at a time, sparsest first.

    Returns the pivots as ``(column, row index)`` pairs in the order they
    were found, the pivot rows (pivot column -> tail) and the number of
    rows reduced.  A nonzero residue is normalized to 1 at its lowest
    column ``col``, and ``col`` is then cleared from every stored tail that
    holds it, found through ``holders`` (free column -> the tails that held
    it; an entry may since have cancelled).  A row with no entry in a free
    column is deferred, in order, and after the first pass reduced only if
    one of its pivot rows has a nonempty tail; otherwise it is skipped.
    """
    p = system.prime
    n = system.n_vars
    source = system.rows
    order = sorted(range(len(source)), key=lambda r: (len(source[r]), r))
    pivots: list[tuple[int, int]] = []
    tails: PivotRows = {}
    holders: dict[int, list[dict[int, int]]] = {}

    def admit(rid: int) -> None:
        row = _residue(source[rid], p, tails)
        if not row:
            return
        col = min(row)
        inv = pow(row.pop(col), p - 2, p)
        if inv != 1:
            for c in row:
                row[c] = row[c] * inv % p
        for c in row:
            holders.setdefault(c, []).append(row)
        for tail in holders.pop(col, ()):
            factor = tail.pop(col, None)
            if factor is None:
                continue
            for c, v in row.items():
                old = tail.get(c)
                if old is None:
                    tail[c] = -factor * v % p
                    holders[c].append(tail)
                else:
                    val = (old - factor * v) % p
                    if val:
                        tail[c] = val
                    else:
                        del tail[c]
        tails[col] = row
        pivots.append((col, rid))

    reduced = skipped = 0
    deferred: list[int] = []
    for rid in order:
        if len(pivots) == n:
            break
        if all(col in tails for col, _ in source[rid]):
            deferred.append(rid)
            continue
        reduced += 1
        admit(rid)
    for rid in deferred:
        if len(pivots) == n:
            break
        if not any(tails[col] for col, _ in source[rid]):
            skipped += 1
            continue
        reduced += 1
        admit(rid)
    # Soundness: the rank is that of the whole system only if it is full or
    # every row was reduced or skipped.  Raised, not asserted, so that ``-O``
    # keeps it.
    if len(pivots) != n and reduced + skipped != len(source):
        raise AssertionError("elimination stopped short of full rank with rows left")
    return pivots, tails, reduced


def _result(system: LinearSystem, pivots: list[tuple[int, int]], reduced: int,
            basis: tuple[dict[int, int], ...] | None = None) -> EliminationResult:
    rank = len(pivots)
    return EliminationResult(
        rank=rank,
        nullity=system.n_vars - rank,
        pivots=tuple(pivots),
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
    pivots, _, reduced = _eliminate(system)
    return _result(system, pivots, reduced)


def nullspace_basis(system: LinearSystem, *, workers: int = 0) -> EliminationResult:
    """Rank, nullity and an explicit nullspace basis.

    One basis vector per free column, with a 1 in that column; the pivot
    rows are fully reduced, so the vector's coordinate at a pivot column is
    minus that pivot row's entry in the free column, read straight off the
    rows.  A vector's keys are its free column, then its nonzero pivot
    columns in reverse pivot order.

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
    pivots, tails, reduced = _eliminate(system)
    basis = {c: {c: 1} for c in range(system.n_vars) if c not in tails}
    for col, _ in reversed(pivots):
        for c, v in tails[col].items():
            basis[c][col] = p - v
    return _result(system, pivots, reduced, tuple(basis.values()))


def verify_solution(system: LinearSystem, vector: dict[int, int]) -> bool:
    """Exact check that every row annihilates the vector mod p.

    Only a row that meets the vector's support can fail, so only those rows
    are visited, found through ``system.column_rows``."""
    p = system.prime
    _check_coordinates(system, vector)
    reduced = {c: v % p for c, v in vector.items() if v % p}
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
    residue against the pivot rows of ``vectors`` is empty.  Like
    :func:`verify_solution`, it refuses a key outside ``0..n_vars-1``."""
    p = system.prime
    for vector in (*vectors, candidate):
        _check_coordinates(system, vector)
    base_rows = tuple(
        tuple(sorted((c, v % p) for c, v in vec.items() if v % p)) for vec in vectors
    )
    base = LinearSystem(prime=p, n_vars=system.n_vars, rows=base_rows)
    _check_system(base)
    _, tails, _ = _eliminate(base)
    return not _residue(candidate.items(), p, tails)
