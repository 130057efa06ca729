"""Canonical encoding: frozen byte values and round-trip properties."""

import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pactsim.encoding import (
    ADDRESS_LEN,
    ARG_TYPES,
    HASH_LEN,
    Cursor,
    DecodeError,
    dec_args,
    digest,
    enc_args,
    enc_bytes,
    enc_fixed,
    enc_i64,
    enc_list,
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
    tagged_digest,
)

# Hand-assembled expected bytes.  If any of these change, every stored
# hash and signature in existing runs changes with them.
FROZEN = [
    (enc_u8(0), b"\x00"),
    (enc_u8(255), b"\xff"),
    (enc_u32(1), b"\x00\x00\x00\x01"),
    (enc_u32(0xDEADBEEF), b"\xde\xad\xbe\xef"),
    (enc_u64(5000), b"\x00\x00\x00\x00\x00\x00\x13\x88"),
    (enc_i64(-1), b"\xff" * 8),
    (enc_bytes(b"ab"), b"\x00\x00\x00\x02ab"),
    (enc_bytes(b""), b"\x00\x00\x00\x00"),
    (enc_str("hi"), b"\x00\x00\x00\x02hi"),
    (enc_str("é"), b"\x00\x00\x00\x02\xc3\xa9"),
    (enc_list([b"a", b"bc"]), b"\x00\x00\x00\x02abc"),
    (enc_list([]), b"\x00\x00\x00\x00"),
]


def test_frozen_encodings():
    for got, want in FROZEN:
        assert got == want


def test_range_checks():
    with pytest.raises(ValueError):
        enc_u8(256)
    with pytest.raises(ValueError):
        enc_u8(-1)
    with pytest.raises(ValueError):
        enc_u32(2**32)
    with pytest.raises(ValueError):
        enc_u64(-5)
    with pytest.raises(ValueError):
        enc_i64(2**63)
    with pytest.raises(ValueError):
        enc_fixed(b"abc", 4)


def test_digest_is_sha256():
    assert digest(b"abc") == hashlib.sha256(b"abc").digest()
    assert tagged_digest(b"PTX1", b"x") == hashlib.sha256(b"PTX1x").digest()
    with pytest.raises(ValueError):
        tagged_digest(b"toolong", b"x")


def test_cursor_reads_in_order():
    data = enc_u8(7) + enc_u32(8) + enc_u64(9) + enc_bytes(b"xy") + enc_str("z")
    cur = Cursor(data)
    assert cur.u8() == 7
    assert cur.u32() == 8
    assert cur.u64() == 9
    assert cur.bytes_() == b"xy"
    assert cur.str_() == "z"
    cur.finish()


def test_cursor_rejects_truncation_and_trailing():
    cur = Cursor(b"\x00\x00\x00\x05ab")
    with pytest.raises(DecodeError):
        cur.bytes_()
    cur = Cursor(b"\x01\x02")
    cur.u8()
    with pytest.raises(DecodeError):
        cur.finish()


def test_cursor_rejects_bad_utf8():
    with pytest.raises(DecodeError):
        Cursor(enc_bytes(b"\xff\xfe")).str_()


@given(st.integers(0, 2**64 - 1))
def test_u64_round_trip(value):
    assert Cursor(enc_u64(value)).u64() == value


@given(st.binary(max_size=200))
def test_bytes_round_trip(value):
    cur = Cursor(enc_bytes(value))
    assert cur.bytes_() == value
    cur.finish()


@given(st.lists(st.binary(min_size=1, max_size=8), max_size=10))
def test_list_is_prefix_free(items):
    encoded = enc_list(items)
    cur = Cursor(encoded)
    n = cur.u32()
    assert n == len(items)


ARG_VALUES = st.fixed_dictionaries(
    {
        "address": st.binary(min_size=ADDRESS_LEN, max_size=ADDRESS_LEN),
        "hash": st.binary(min_size=HASH_LEN, max_size=HASH_LEN),
        "u64": st.integers(0, 2**64 - 1),
        "str": st.text(max_size=40),
        "u8": st.integers(0, 255),
    }
)


@given(ARG_VALUES, st.permutations(sorted(ARG_TYPES)))
def test_args_round_trip(values, schema):
    vals = tuple(values[t] for t in schema)
    assert dec_args(schema, enc_args(schema, vals)) == vals


def test_docs_name_exactly_the_argument_types():
    text = (Path(__file__).resolve().parent.parent / "docs" / "encoding.md").read_text()
    sentence = text.split("Supported argument types:", 1)[1].split(".", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(ARG_TYPES)


def test_args_reject_trailing_bytes():
    blob = enc_args(("u8",), (3,)) + b"\x00"
    with pytest.raises(DecodeError):
        dec_args(("u8",), blob)


def test_args_length_mismatch():
    with pytest.raises(ValueError):
        enc_args(("u8", "u64"), (1,))


def test_args_refuse_a_type_no_operation_takes():
    with pytest.raises(ValueError, match="unknown arg type 'bool'"):
        enc_args(("bool",), (True,))
    with pytest.raises(ValueError, match="unknown arg type 'bool'"):
        dec_args(("bool",), b"\x01")
