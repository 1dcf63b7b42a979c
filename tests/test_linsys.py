"""Tests for system assembly, deduplication and SMS serialization."""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

from jetcert.conics import PRESET_TRIPLES
from jetcert.jets import AnsatzSpace
from jetcert.linsys import (
    IoFailure,
    LinearSystem,
    assemble,
    merge_rows,
    read_sms,
    sms_checksum,
    write_sms,
)

from _util import reference_import_sms, sms_system, sms_text

FERMAT = PRESET_TRIPLES["fermat"]


def test_sms_single_entry_exact_bytes(tmp_path):
    system = LinearSystem(prime=5, n_vars=1, rows=(((0, 1),),))
    assert sms_text(system, tmp_path) == "1 1 M\n1 1 1\n0 0 0\n"


def test_sms_empty_system_exact_bytes(tmp_path):
    system = LinearSystem(prime=5, n_vars=0, rows=())
    assert sms_text(system, tmp_path) == "0 0 M\n0 0 0\n"


def test_sms_export_refuses_an_empty_row(tmp_path):
    # SMS has no triple for an empty row, and read_sms refuses a header
    # that counts rows the triples do not fill: no file may be written.
    system = LinearSystem(prime=5, n_vars=2, rows=(((0, 1),), (), ((1, 1),)))
    path = tmp_path / "system.sms"
    with pytest.raises(IoFailure, match="row 2 is empty"):
        write_sms(system, str(path))
    with pytest.raises(IoFailure, match="row 2 is empty"):
        sms_checksum(system)


def test_sms_round_trip_assembled_system(tmp_path):
    system = assemble(FERMAT, 3, 3, 5)
    text = sms_text(system, tmp_path)
    back = sms_system(text, tmp_path, 5)
    assert back == system
    assert sms_text(back, tmp_path) == text
    assert sms_checksum(back) == sms_checksum(system)


def test_sms_checksum_is_sha256_of_text(tmp_path):
    system = assemble(FERMAT, 3, 3, 5)
    expected = hashlib.sha256(sms_text(system, tmp_path).encode("ascii")).hexdigest()
    assert sms_checksum(system) == expected
    other = assemble(FERMAT, 3, 0, 5)
    assert sms_checksum(other) != expected


def test_sms_file_round_trip(tmp_path):
    system = assemble(FERMAT, 3, 3, 5)
    path = tmp_path / "system.sms"
    digest = write_sms(system, str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest() == sms_checksum(system)
    assert read_sms(str(path), 5) == system
    with pytest.raises(IoFailure):
        read_sms(str(tmp_path / "missing.sms"), 5)


def test_read_sms_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "system.sms"
    path.write_bytes(b"1 1 M\n1 1 \xff\n0 0 0\n")
    with pytest.raises(IoFailure, match="not ASCII"):
        read_sms(str(path), 5)


@pytest.mark.parametrize(
    "tail",
    [b"\n\xff\n", b"\n" + b"1 1 1\n" * 20000 + b"\xc3\xa9", b"\x0bjunk \x80\n"],
    ids=["next-line", "past-the-first-chunk", "same-line"],
)
def test_read_sms_decodes_past_the_terminator(tmp_path, tail):
    """The reader stops parsing at ``0 0 0`` but still decodes the rest of
    the file, so a non-ASCII byte anywhere fails."""
    with pytest.raises(IoFailure, match="not ASCII"):
        sms_system(b"1 1 M\n1 1 1\n0 0 0" + tail, tmp_path, 5)


def test_read_sms_never_validates_lines_after_the_terminator(tmp_path):
    expected = LinearSystem(prime=5, n_vars=1, rows=(((0, 1),),))
    for tail in ("\ngarbage\n1 1 1 1\n9 9 9\n", "\x0bjunk\n1 1\n", "\n\t\x1f\n-1 +1 01"):
        assert sms_system("1 1 M\n1 1 1\n0 0 0" + tail, tmp_path, 5) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "1 1 X\n1 1 1\n0 0 0\n",  # bad marker
        "one 1 M\n0 0 0\n",  # non-integer header
        "1 1 M\n1 1 1\n",  # missing terminator
        "1 1 M\n2 1 1\n0 0 0\n",  # row out of range
        "1 1 M\n1 2 1\n0 0 0\n",  # column out of range
        "1 1 M\n1 1 0\n0 0 0\n",  # zero value
        "1 1 M\n1 1 5\n0 0 0\n",  # value not a canonical residue mod 5
        "1 1 M\n1 1\n0 0 0\n",  # malformed triple
        "-1 1 M\n0 0 0\n",  # negative dimension
        "1 2 M\n1 1 1\n1 1 2\n0 0 0\n",  # duplicate column within a row
        "1 1 M\n+1 1 1\n0 0 0\n",  # signed row index
        "1 1 M\n1 1 1\n-0 +0 0_0\n",  # signed and underscored zeros, no terminator
        "1 2 M\n1 \u0662 1\n0 0 0\n",  # non-ASCII digit
        "+1 1 M\n1 1 1\n0 0 0\n",  # signed header
        "1 \u0661 M\n1 1 1\n0 0 0\n",  # non-ASCII digit in the header
        "1 1 M\n01 1 1\n0 0 0\n",  # leading zero in a triple
        "01 1 M\n1 1 1\n0 0 0\n",  # leading zero in the header
        "1 1 M\n1 1 1\n00 0 0\n",  # leading zeros in the terminator
    ],
)
def test_sms_import_rejects_malformed(text, tmp_path):
    with pytest.raises(IoFailure):
        sms_system(text, tmp_path, 5)


_LONG = "1" * 5000  # past the interpreter's default limit of 4,300 digits for int()


@pytest.mark.parametrize(
    "text, reason",
    [
        (f"{_LONG} 1 M\n0 0 0\n", "SMS header count too large"),
        (f"1 {_LONG} M\n0 0 0\n", "SMS header count too large"),
        (f"1 1 M\n{_LONG} 1 1\n0 0 0\n", "SMS entry out of range"),
        (f"1 1 M\n1 {_LONG} 1\n0 0 0\n", "SMS entry out of range"),
        (f"1 1 M\n1 1 {_LONG}\n0 0 0\n", "SMS value not a canonical nonzero residue"),
        (f"1 2 M\n1 1 1\n1 2 {_LONG}\n0 0 0\n",
         "SMS value not a canonical nonzero residue"),
    ],
    ids=["header-rows", "header-cols", "row", "column", "value", "value-same-row"],
)
def test_read_sms_refuses_tokens_past_the_digit_limit(text, reason, tmp_path):
    """A token longer than ``int()`` accepts fails as ``IoFailure``.  In a
    triple the reason is the one the whole-text parser gives with the limit
    lifted: such a number is past every bound."""
    with pytest.raises(IoFailure) as caught:
        sms_system(text, tmp_path, 5)
    message = str(caught.value)
    assert message.startswith(reason + ": ")
    if "header" not in reason:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(IoFailure) as oracle:
                reference_import_sms(text, 5)
        finally:
            sys.set_int_max_str_digits(limit)
        assert message == str(oracle.value)


@pytest.mark.parametrize(
    "text, empty_row",
    [
        ("300000 1 M\n0 0 0\n", 1),  # 18 bytes, no entry at all
        ("1000000000000 1 M\n1 1 1\n0 0 0\n", 2),
        ("3 1 M\n1 1 1\n3 1 1\n0 0 0\n", 2),  # row 2 skipped
        ("3 2 M\n2 1 1\n1 2 1\n2 2 1\n0 0 0\n", 3),  # rows out of order, row 3 empty
    ],
    ids=["short-file", "huge-header", "skipped-row", "last-row"],
)
def test_read_sms_refuses_rows_the_triples_do_not_fill(text, empty_row, tmp_path):
    """A header may count only rows that hold an entry: the reader fails
    after the terminator, naming the first empty row, before it builds any
    row, as the whole-text oracle does."""
    n_rows = text.split()[0]
    reason = f"SMS row {empty_row} has no entry, but the header counts {n_rows} rows"
    with pytest.raises(IoFailure) as caught:
        sms_system(text, tmp_path, 5)
    assert str(caught.value) == reason
    with pytest.raises(IoFailure) as oracle:
        reference_import_sms(text, 5)
    assert str(oracle.value) == reason


def test_read_back_shares_one_tuple_per_distinct_entry(tmp_path):
    """The (5,0) control read back holds at most one entry object per
    (column, nonzero coefficient) pair, and equals the assembled system."""
    system = assemble(FERMAT, 5, 0, 5)
    path = tmp_path / "system.sms"
    write_sms(system, str(path))
    back = read_sms(str(path), 5)
    assert back == system
    nonzeros = sum(len(row) for row in back.rows)
    distinct = len({id(entry) for row in back.rows for entry in row})
    assert distinct <= system.n_vars * (system.prime - 1) < nonzeros


# -- the streaming reader against the whole-text parser it replaced -----------------

_SPACES = (b"\t", b"\x1f", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b" ")
_NON_ASCII = (b"\xff", b"\x80", b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8")


def _mutate(rng: random.Random, lines: list[bytes], n_rows: int, n_cols: int) -> None:
    """Apply one line-level mutation in place.  ``lines`` holds the text's
    lines without their ends; the last is the terminator."""
    kind = rng.randrange(13)
    i = rng.randrange(len(lines))
    line = lines[i]
    cut = rng.randint(0, len(line))
    tokens = line.split(b" ")
    if kind == 0:  # a control or space byte inside a line
        lines[i] = line[:cut] + rng.choice(_SPACES) + line[cut:]
    elif kind == 1:  # ... or between lines
        lines.insert(i, rng.choice(_SPACES) * rng.randint(1, 2))
    elif kind == 2:  # a CRLF line end, or a CR one joining two lines
        if i + 1 < len(lines) and rng.random() < 0.5:
            lines[i : i + 2] = [line + b"\r" + lines[i + 1]]
        else:
            lines[i] = line + b"\r"
    elif kind == 3:  # a blank line
        lines.insert(i, rng.choice((b"", b"   ", b"\r")))
    elif kind == 4:  # a leading zero or a sign
        t = rng.randrange(len(tokens))
        tokens[t] = rng.choice((b"0", b"+", b"-", b"00")) + tokens[t]
        lines[i] = b" ".join(tokens)
    elif kind == 5:  # a short or a long triple
        lines[i] = b" ".join(tokens[:-1] if rng.random() < 0.5 else tokens + [b"1"])
    elif kind == 6:  # a row, column or value at or past its bound
        t = rng.randrange(3)
        bound = (n_rows, n_cols, 5)[t] + rng.choice((0, 1))
        if i and len(tokens) == 3:
            tokens[t] = str(bound).encode()
            lines[i] = b" ".join(tokens)
    elif kind == 7:  # text after the terminator
        lines.extend(rng.choice((b"garbage", b"1 1 1", b"0 0 0", b"-1 x", b"")) for _ in range(2))
    elif kind == 8:  # a non-ASCII byte, before or after the terminator
        if rng.random() < 0.5:
            lines.append(b"1 1 1")
            i = len(lines) - 1
        lines[i] = lines[i][:cut] + rng.choice(_NON_ASCII) + lines[i][cut:]
    elif kind == 9:  # two lines swapped: rows out of order
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 10:  # a repeated triple: a duplicate column
        lines.insert(i, line)
    elif kind == 11:  # a lost line, such as the header or the terminator
        del lines[i]
    else:  # blank lines longer than the reader's decode chunk
        lines[i:i] = [b""] * 10000


def _reference_read(path, prime: int) -> LinearSystem:
    """The reader this module had before it streamed: decode the whole
    file, then parse the text."""
    try:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"SMS file {str(path)!r} is not ASCII text: {exc}") from exc
    return reference_import_sms(text, prime)


def _outcome(read, *args):
    try:
        return read(*args)
    except IoFailure as exc:
        return exc


def test_read_sms_agrees_with_the_whole_text_parser(tmp_path):
    """Seeded line-level mutations of a small export: the streaming reader
    and the whole-text oracle accept the same files as equal systems, and
    reject the same files with the same message.  Only a file whose first
    fault is a parse fault before a non-ASCII byte may fail with the parse
    message where the oracle, decoding first, reports the byte."""
    system = assemble(FERMAT, 1, 0, 5)
    base = sms_text(system, tmp_path).encode("ascii").split(b"\n")[:-1]
    rng = random.Random(20261020)
    tally = {"accepted": 0, "rejected": 0, "parse-first": 0}
    for _ in range(600):
        lines = list(base)
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(rng, lines, system.n_rows, system.n_vars)
        data = b"\n".join(lines) + rng.choice((b"\n", b"", b"\r\n"))
        got = _outcome(sms_system, data, tmp_path, 5)
        expected = _outcome(_reference_read, tmp_path / "input.sms", 5)
        if isinstance(expected, LinearSystem):
            assert got == expected, data
            tally["accepted"] += 1
            continue
        assert isinstance(got, IoFailure), data
        tally["rejected"] += 1
        if "not ASCII" in str(got):
            assert "not ASCII" in str(expected), data
            continue
        if "not ASCII" in str(expected):
            # The reader stopped at a fault in the lines it decoded before
            # the first non-ASCII byte: the oracle finds it there too.
            head = data[: next(i for i, byte in enumerate(data) if byte > 0x7F)]
            expected = _outcome(reference_import_sms, head.decode("ascii"), 5)
            tally["parse-first"] += 1
        assert str(got) == str(expected), data
    # The corpus reaches every branch above, the message exception included.
    assert tally["accepted"] >= 100 and tally["rejected"] >= 300, tally
    assert tally["parse-first"] >= 1, tally


def test_assembly_is_chart_order_independent():
    forward = assemble(FERMAT, 3, 3, 5, charts=(0, 2))
    backward = assemble(FERMAT, 3, 3, 5, charts=(2, 0))
    assert forward == backward


def test_assembly_counts_and_provenance():
    system = assemble(FERMAT, 3, 3, 5)
    assert system.n_vars == 113
    assert system.n_rows_raw == 328
    assert system.n_rows == 245
    assert system.space is not None and system.space.n_vars == 113


def test_assembly_validates_charts():
    with pytest.raises(ValueError):
        assemble(FERMAT, 3, 3, 5, charts=())
    with pytest.raises(ValueError):
        assemble(FERMAT, 3, 3, 5, charts=(0, 0))


def test_merge_rows_deduplicates_keeping_first():
    row_a = ((0, 1), (2, 3))
    row_b = ((1, 1),)
    row_c = ((1, 1), (3, 2))
    # Each repeat is non-adjacent; the repeat of row_a is an equal copy.
    rows = [row_a, row_b, tuple(list(row_a)), row_c, row_b]
    system = merge_rows(rows, 5, 4, None)
    assert system.n_rows_raw == 5
    # Every row keeps the position of its first occurrence.
    assert system.rows == (row_a, row_b, row_c)
    assert system.rows[0] is row_a


def test_equality_ignores_bookkeeping_fields():
    base = LinearSystem(prime=5, n_vars=2, rows=(((0, 1),),))
    decorated = LinearSystem(
        prime=5,
        n_vars=2,
        rows=(((0, 1),),),
        n_rows_raw=99,
        space=AnsatzSpace.build(1, 3),
    )
    assert base == decorated
    indexed = LinearSystem(prime=5, n_vars=2, rows=(((0, 1),),))
    assert indexed.column_rows == [[0], []]
    assert indexed == base and hash(indexed) == hash(base) and repr(indexed) == repr(base)
    assert base != LinearSystem(prime=7, n_vars=2, rows=(((0, 1),),))
    assert base != LinearSystem(prime=5, n_vars=3, rows=(((0, 1),),))
