"""Tests for system assembly, deduplication and SMS serialization."""

from __future__ import annotations

import hashlib

import pytest

from jetcert.conics import PRESET_TRIPLES
from jetcert.jets import AnsatzSpace
from jetcert.linsys import (
    IoFailure,
    LinearSystem,
    assemble,
    import_sms,
    merge_rows,
    read_sms,
    sms_checksum,
    write_sms,
)

from _util import sms_text

FERMAT = PRESET_TRIPLES["fermat"]


def test_sms_single_entry_exact_bytes(tmp_path):
    system = LinearSystem(prime=5, n_vars=1, rows=(((0, 1),),))
    assert sms_text(system, tmp_path) == "1 1 M\n1 1 1\n0 0 0\n"


def test_sms_empty_system_exact_bytes(tmp_path):
    system = LinearSystem(prime=5, n_vars=0, rows=())
    assert sms_text(system, tmp_path) == "0 0 M\n0 0 0\n"


def test_sms_round_trip_assembled_system(tmp_path):
    system = assemble(FERMAT, 3, 3, 5)
    text = sms_text(system, tmp_path)
    back = import_sms(text, 5)
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
    write_sms(system, str(path))
    assert read_sms(str(path), 5) == system
    with pytest.raises(IoFailure):
        read_sms(str(tmp_path / "missing.sms"), 5)


def test_read_sms_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "system.sms"
    path.write_bytes(b"1 1 M\n1 1 \xff\n0 0 0\n")
    with pytest.raises(IoFailure, match="not ASCII"):
        read_sms(str(path), 5)


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
def test_sms_import_rejects_malformed(text):
    with pytest.raises(IoFailure):
        import_sms(text, 5)


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
