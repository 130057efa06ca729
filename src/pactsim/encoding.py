"""Canonical binary encoding and digests.

Every hashed or signed structure in the system is first reduced to a
canonical byte string: fixed field order, big-endian length-prefixed
fields, no optional whitespace, no floats.  Two nodes that hold equal
values always produce equal bytes, which is what makes chain hashes,
signatures, and the cross-node determinism checks meaningful.

The exact grammar is documented in docs/encoding.md.  Digests are
SHA-256.  Each top-level preimage starts with a 4-byte type tag so that
encodings of different structures can never collide byte-for-byte.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Sequence

HASH_LEN = 32
ADDRESS_LEN = 20

# Preimage type tags (exactly 4 bytes each).
TAG_TX = b"PTX1"
TAG_BLOCK = b"PBK1"
TAG_MSG = b"PMS1"
TAG_SEAL = b"PSL1"
TAG_GROUP = b"PGR1"
TAG_STATE = b"PST1"
TAG_KEY = b"PKY1"


def enc_u8(value: int) -> bytes:
    if not 0 <= value < 256:
        raise ValueError(f"u8 out of range: {value}")
    return value.to_bytes(1, "big")


def enc_u32(value: int) -> bytes:
    if not 0 <= value < 2**32:
        raise ValueError(f"u32 out of range: {value}")
    return value.to_bytes(4, "big")


def enc_u64(value: int) -> bytes:
    if not 0 <= value < 2**64:
        raise ValueError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def enc_i64(value: int) -> bytes:
    """Signed 64-bit, two's complement.  No field of the wire format uses it."""
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"i64 out of range: {value}")
    return value.to_bytes(8, "big", signed=True)


def enc_bytes(value: bytes) -> bytes:
    """Length-prefixed (u32) byte string."""
    return enc_u32(len(value)) + value


def enc_str(value: str) -> bytes:
    return enc_bytes(value.encode("utf-8"))


def enc_fixed(value: bytes, length: int) -> bytes:
    """Raw fixed-length field; length is part of the schema, not the wire."""
    if len(value) != length:
        raise ValueError(f"expected {length} bytes, got {len(value)}")
    return value


def enc_list(items: Iterable[bytes]) -> bytes:
    parts = list(items)
    return enc_u32(len(parts)) + b"".join(parts)


def digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def tagged_digest(tag: bytes, payload: bytes) -> bytes:
    if len(tag) != 4:
        raise ValueError("type tag must be 4 bytes")
    return hashlib.sha256(tag + payload).digest()


class Cursor:
    """Sequential reader over a canonical byte string."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise DecodeError(f"truncated input: need {n} bytes at offset {self._pos}")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def bytes_(self) -> bytes:
        return self._take(self.u32())

    def str_(self) -> str:
        raw = self.bytes_()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 string field: {exc}") from None

    def fixed(self, length: int) -> bytes:
        return self._take(length)

    @property
    def pos(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes read from offset `start` up to here."""
        return self._data[start : self._pos]

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} trailing bytes")


class DecodeError(ValueError):
    """Input bytes do not parse under the canonical grammar."""


# ---------------------------------------------------------------------------
# Typed argument vectors (contract ABI encoding).
#
# Argument schemas are sequences of type names.  `ARG_TYPES` is the one list
# of them, the types contract operations take (docs/encoding.md lists them):
# each name's encoder and `Cursor` reader.  An encoder calls `enc_*` by global
# name, so a tracer that rebinds those functions still sees the call.
# ---------------------------------------------------------------------------

ARG_TYPES: dict[str, tuple[Callable[[Any], bytes], Callable[[Cursor], Any]]] = {
    "address": (lambda v: enc_fixed(v, ADDRESS_LEN), lambda cur: cur.fixed(ADDRESS_LEN)),
    "hash": (lambda v: enc_fixed(v, HASH_LEN), lambda cur: cur.fixed(HASH_LEN)),
    "u64": (lambda v: enc_u64(v), Cursor.u64),
    "str": (lambda v: enc_str(v), Cursor.str_),
    "u8": (lambda v: enc_u8(v), Cursor.u8),
}


def _arg_type(ty: str) -> tuple[Callable[[Any], bytes], Callable[[Cursor], Any]]:
    try:
        return ARG_TYPES[ty]
    except KeyError:
        raise ValueError(f"unknown arg type {ty!r}") from None


def enc_args(schema: Sequence[str], values: Sequence[object]) -> bytes:
    if len(schema) != len(values):
        raise ValueError(f"schema has {len(schema)} fields, got {len(values)} values")
    return b"".join(_arg_type(ty)[0](val) for ty, val in zip(schema, values))


def dec_args(schema: Sequence[str], data: bytes) -> tuple:
    cur = Cursor(data)
    out = tuple(_arg_type(ty)[1](cur) for ty in schema)
    cur.finish()
    return out
