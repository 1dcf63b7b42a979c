"""Deterministic assembly of the GF(p) obstruction system and SMS export.

The set of obstruction rows is the union over the selected charts; rows are
sorted by their provenance ``(chart, jet slot, monomial)`` and deduplicated by
normalized content (first occurrence wins), so the result is independent of
chart processing order.

The export format is the plain-text sparse matrix market dialect used by
exact linear-algebra toolkits: a header ``"<nrows> <ncols> M"``, one 1-based
``"row col value"`` triple per nonzero, and a ``"0 0 0"`` terminator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .conics import ConicTriple, chart_data
from .jets import (
    AnsatzSpace,
    ObstructionRow,
    expand_ansatz,
    obstruction_rows,
    row_sort_key,
)


class IoFailure(Exception):
    """Raised when SMS text cannot be parsed or written faithfully."""


Row = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LinearSystem:
    """A normalized GF(p) linear system with optional provenance.

    Equality compares the mathematical content (prime, shape, rows) only;
    provenance and the unknown-space handle are carried for reporting."""

    prime: int
    n_vars: int
    rows: tuple[Row, ...]
    n_rows_raw: int = field(default=0, compare=False)
    provenance: tuple | None = field(default=None, compare=False)
    space: AnsatzSpace | None = field(default=None, compare=False)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @cached_property
    def column_rows(self) -> list[list[int]]:
        """For each column, the ids of the rows with an entry in it.

        Built on first use and kept; not a dataclass field, so equality,
        hash and repr ignore it."""
        index: list[list[int]] = [[] for _ in range(self.n_vars)]
        for rid, row in enumerate(self.rows):
            for col, _ in row:
                index[col].append(rid)
        return index


def merge_rows(
    chart_rows: list[ObstructionRow], prime: int, n_vars: int, space: AnsatzSpace | None
) -> LinearSystem:
    """Sort, deduplicate and freeze obstruction rows into a system."""
    ordered = sorted(chart_rows, key=row_sort_key)
    seen: set[Row] = set()
    rows: list[Row] = []
    provenance: list[tuple] = []
    for row in ordered:
        if row.entries in seen:
            continue
        seen.add(row.entries)
        rows.append(row.entries)
        provenance.append((row.chart, row.slot, row.monomial))
    return LinearSystem(
        prime=prime,
        n_vars=n_vars,
        rows=tuple(rows),
        n_rows_raw=len(chart_rows),
        provenance=tuple(provenance),
        space=space,
    )


def assemble(
    triple: ConicTriple,
    m: int,
    t: int,
    prime: int,
    charts: tuple[int, ...] = (0, 2),
) -> LinearSystem:
    """Build the full obstruction system for a configuration.

    ``charts`` may be any nonempty subset of ``(0, 1, 2)``; covering
    conclusions (for the certification verdict) need at least two."""
    if not charts:
        raise ValueError("at least one chart is required")
    if len(set(charts)) != len(charts):
        raise ValueError("charts must be distinct")
    space = AnsatzSpace.build(m, t)
    all_rows: list[ObstructionRow] = []
    for chart in sorted(charts):
        data = chart_data(triple, chart, modulus=prime)
        expansion = expand_ansatz(data, space)
        all_rows.extend(obstruction_rows(expansion, prime))
    return merge_rows(all_rows, prime, space.n_vars, space)


class _ValueText(dict):
    """``value -> "value\\n"``, each string built on first use."""

    def __missing__(self, value: int) -> str:
        text = self[value] = f"{value}\n"
        return text


def _sms_chunks(system: LinearSystem) -> Iterator[str]:
    """The SMS text in pieces: the header, one chunk per nonempty row and
    the terminator.  Every line ends in a newline."""
    yield f"{system.n_rows} {system.n_vars} M\n"
    cols = [f" {col} " for col in range(1, system.n_vars + 1)]
    values = _ValueText()
    for r, row in enumerate(system.rows, start=1):
        if row:
            prefix = str(r)
            yield prefix + prefix.join([cols[col] + values[coeff] for col, coeff in row])
    yield "0 0 0\n"


def export_sms(system: LinearSystem) -> str:
    """Serialize to SMS text (byte-reproducible for equal systems)."""
    return "".join(_sms_chunks(system))


def sms_checksum(system: LinearSystem) -> str:
    """SHA-256 of the SMS serialization (the report's integrity anchor),
    hashed chunk by chunk without building the whole text."""
    digest = hashlib.sha256()
    for chunk in _sms_chunks(system):
        digest.update(chunk.encode("ascii"))
    return digest.hexdigest()


def import_sms(text: str, prime: int) -> LinearSystem:
    """Parse SMS text back into a system (content only, no provenance).

    Every header and triple token must be ASCII decimal digits, so signs,
    underscores and non-ASCII digits are rejected instead of read as
    numbers that would not re-export to the same bytes."""
    lines = text.splitlines()
    if not lines:
        raise IoFailure("empty SMS input")
    header = lines[0].split()
    if len(header) != 3 or header[2] != "M":
        raise IoFailure(f"malformed SMS header: {lines[0]!r}")
    dims = header[:2]
    if not (lines[0].isascii() and all(t.removeprefix("-").isdigit() for t in dims)):
        raise IoFailure(f"malformed SMS header: {lines[0]!r}")
    if any(t.startswith("-") for t in dims):
        raise IoFailure("negative dimensions in SMS header")
    n_rows, n_cols = int(dims[0]), int(dims[1])
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
        r = int(rt)
        c = int(ct)
        value = int(vt)
        if r == 0 and c == 0 and value == 0:
            terminated = True
            break
        if not (1 <= r <= n_rows and 1 <= c <= n_cols):
            raise IoFailure(f"SMS entry out of range: {line!r}")
        if not (1 <= value < prime):
            raise IoFailure(f"SMS value not a canonical nonzero residue: {line!r}")
        entries.setdefault(r, []).append((c - 1, value))
    if not terminated:
        raise IoFailure("missing SMS terminator line")
    rows: list[Row] = []
    for r in range(1, n_rows + 1):
        row = sorted(entries.get(r, []))
        if len({c for c, _ in row}) != len(row):
            raise IoFailure(f"duplicate column in SMS row {r}")
        rows.append(tuple(row))
    return LinearSystem(prime=prime, n_vars=n_cols, rows=tuple(rows))


def write_sms(system: LinearSystem, path: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.writelines(_sms_chunks(system))
    except OSError as exc:
        raise IoFailure(f"cannot write SMS file {path!r}: {exc}") from exc


def read_sms(path: str, prime: int) -> LinearSystem:
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailure(f"cannot read SMS file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"SMS file {path!r} is not ASCII text: {exc}") from exc
    return import_sms(text, prime)
