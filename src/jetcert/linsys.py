"""Deterministic assembly of the GF(p) obstruction system and SMS export.

The rows are the union over the selected charts.  Each chart's rows arrive
in the canonical order of :func:`jetcert.jets.obstruction_rows`, the charts
ascending, and are deduplicated by content in arrival order (the first
occurrence keeps its position), so the result is independent of chart
order.  A row is its entry tuple (:data:`jetcert.jets.Row`) throughout.

The export format is the plain-text sparse matrix market dialect used by
exact linear-algebra toolkits: a header ``"<nrows> <ncols> M"``, one 1-based
``"row col value"`` triple per nonzero, and a ``"0 0 0"`` terminator.  Both
directions stream: :func:`write_sms` hashes the chunks it writes, and
:func:`read_sms` parses one line at a time into rows that share one
``(column, coefficient)`` tuple per distinct pair, as assembled rows do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, TextIO

from .conics import ConicTriple, chart_data
from .jets import AnsatzSpace, Row, expand_ansatz, obstruction_rows


class IoFailure(Exception):
    """Raised when SMS text cannot be parsed or written faithfully."""


@dataclass(frozen=True)
class LinearSystem:
    """A normalized GF(p) linear system.

    Equality compares the mathematical content (prime, shape, rows) only;
    the raw row count and the unknown-space handle are carried for
    reporting."""

    prime: int
    n_vars: int
    rows: tuple[Row, ...]
    n_rows_raw: int = field(default=0, compare=False)
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
    rows: Iterable[Row], prime: int, n_vars: int, space: AnsatzSpace | None
) -> LinearSystem:
    """Freeze obstruction rows, given in canonical order, into a system.

    The rows are read once and counted in ``n_rows_raw`` as they arrive; a
    row equal to an earlier one is dropped, so the first occurrence keeps
    its position.  Each row is hashed once."""
    first: dict[Row, None] = {}
    n_rows_raw = 0
    for row in rows:
        n_rows_raw += 1
        first.setdefault(row)
    return LinearSystem(
        prime=prime, n_vars=n_vars, rows=tuple(first), n_rows_raw=n_rows_raw, space=space
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
    # Each chart is expanded only once the previous one's rows are read,
    # so one expansion is alive at a time.
    rows = chain.from_iterable(
        obstruction_rows(
            expand_ansatz(chart_data(triple, chart, modulus=prime), space), prime
        )
        for chart in sorted(charts)
    )
    return merge_rows(rows, prime, space.n_vars, space)


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


def sms_checksum(system: LinearSystem) -> str:
    """SHA-256 of the SMS serialization (the report's integrity anchor),
    hashed chunk by chunk without building the whole text."""
    digest = hashlib.sha256()
    for chunk in _sms_chunks(system):
        digest.update(chunk.encode("ascii"))
    return digest.hexdigest()


def write_sms(system: LinearSystem, path: str) -> str:
    """Write the SMS serialization to ``path`` chunk by chunk and return the
    SHA-256 of the bytes written, equal to :func:`sms_checksum`, so an
    export needs no second pass over the system."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as handle:
            for chunk in _sms_chunks(system):
                data = chunk.encode("ascii")
                digest.update(data)
                handle.write(data)
    except OSError as exc:
        raise IoFailure(f"cannot write SMS file {path!r}: {exc}") from exc
    return digest.hexdigest()


def _lines(handle: TextIO) -> Iterator[str]:
    r"""The lines of ``handle`` one at a time, split as ``str.splitlines``
    splits the whole text: the file object ends a line at ``\n``, ``\r``
    or ``\r\n``, and ``splitlines`` also at ``\v``, ``\f`` and
    ``\x1c``-``\x1e`` inside it."""
    for physical in handle:
        yield from physical.splitlines()


def _parse_sms(handle: TextIO, prime: int) -> LinearSystem:
    """The system in the open SMS file ``handle``; see :func:`read_sms`."""
    lines = _lines(handle)
    first = next(lines, None)
    if first is None:
        raise IoFailure("empty SMS input")
    header = first.split()
    if not (
        len(header) == 3
        and header[2] == "M"
        and all(t.isdigit() and (t == "0" or t[0] != "0") for t in header[:2])
    ):
        raise IoFailure(f"malformed SMS header: {first!r}")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError:  # past the interpreter's limit on digits for int()
        raise IoFailure(f"SMS header count too large: {first!r}") from None
    # One shared (column, coefficient) tuple per distinct pair, keyed
    # ``column * prime + coefficient``; each row lists its entries as read.
    pairs: dict[int, tuple[int, int]] = {}
    entries: dict[int, list[tuple[int, int]]] = {}
    row_token, row = "", []  # the last row token read, and its entries
    terminated = False
    try:
        for line in lines:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise IoFailure(f"malformed SMS triple: {line!r}")
            rt, ct, vt = parts
            if not (rt.isdigit() and ct.isdigit() and vt.isdigit()):
                raise IoFailure(f"malformed SMS triple: {line!r}")
            if "0" in (rt[0], ct[0], vt[0]):
                # Only the terminator holds a zero, and no number a leading one.
                if parts != ["0", "0", "0"]:
                    raise IoFailure(f"malformed SMS triple: {line!r}")
                terminated = True
                break
            if rt != row_token:
                # A row's triples usually arrive together: look it up once.
                r = int(rt)
                if r > n_rows:
                    raise IoFailure(f"SMS entry out of range: {line!r}")
                row = entries.get(r)
                if row is None:
                    row = entries[r] = []
                row_token = rt
            c = int(ct) - 1
            if c >= n_cols:
                raise IoFailure(f"SMS entry out of range: {line!r}")
            value = int(vt)
            if value >= prime:
                raise IoFailure(f"SMS value not a canonical nonzero residue: {line!r}")
            key = c * prime + value
            pair = pairs.get(key)
            if pair is None:
                pair = pairs[key] = (c, value)
            row.append(pair)
    except UnicodeDecodeError:
        raise
    except ValueError:
        # int() refuses a token past the interpreter's limit on digits
        # (4,300 by default).  Such a number is past every bound, so the
        # line fails as it would with no limit.
        try:
            int(rt), int(ct)
        except ValueError:
            raise IoFailure(f"SMS entry out of range: {line!r}") from None
        raise IoFailure(f"SMS value not a canonical nonzero residue: {line!r}") from None
    if not terminated:
        raise IoFailure("missing SMS terminator line")
    # Nothing after the terminator is parsed, but all of it is decoded, so
    # a non-ASCII byte anywhere in the file still fails.
    while handle.read(1 << 16):
        pass
    rows: list[Row] = []
    for r in range(1, n_rows + 1):
        row = entries.pop(r, [])
        row.sort()
        if len({c for c, _ in row}) != len(row):
            raise IoFailure(f"duplicate column in SMS row {r}")
        rows.append(tuple(row))
    return LinearSystem(prime=prime, n_vars=n_cols, rows=tuple(rows))


def read_sms(path: str, prime: int) -> LinearSystem:
    """Parse an SMS file back into a system (content only).

    The file is decoded as ASCII and read one line at a time, so neither
    its text nor a list of its lines is ever held.  Every header and
    triple token must be decimal digits without a leading zero, so signs,
    underscores and padded numbers are rejected instead of read as numbers
    that would not re-export to the same bytes.  A token too long for
    ``int()`` fails as :class:`IoFailure` too."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            return _parse_sms(handle, prime)
    except OSError as exc:
        raise IoFailure(f"cannot read SMS file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"SMS file {path!r} is not ASCII text: {exc}") from exc
