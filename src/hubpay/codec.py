"""Canonical message encoding.

Every signable or replayable message is serialized as a 4-byte ASCII domain
tag followed by key-sorted minified JSON. Byte fields become lowercase hex
strings, amounts and ticks stay base-10 integers, and no other kind of
number is accepted. Two logically identical messages encode to identical
bytes on any implementation, which is what makes signatures and golden
vectors well defined.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .errors import EncodingError

# Domain tags, one per message kind.
TAG_PROPOSAL = b"PPL1"
TAG_PROMISE = b"PRM1"
TAG_SECRET = b"SEC1"
TAG_RECEIPT = b"RCT1"
TAG_CLOSING = b"CLS1"
TAG_PARAMS = b"CPR1"
TAG_EVENT = b"EVT1"
TAG_WIRE = b"MSG1"
# A batch of promises is signed over ``TAG_PROMISE_BATCH || root``: 36 raw
# bytes, not a canonical encoding, since every leaf already names its
# channel, sender and index.
TAG_PROMISE_BATCH = b"PRB1"

KNOWN_TAGS = {
    TAG_PROPOSAL,
    TAG_PROMISE,
    TAG_SECRET,
    TAG_RECEIPT,
    TAG_CLOSING,
    TAG_PARAMS,
    TAG_EVENT,
    TAG_WIRE,
}


def _hex_bytes(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    raise EncodingError(f"unsupported field type {type(value).__name__}")


def canonical_json(fields: Mapping[str, Any]) -> bytes:
    """Key-sorted minified JSON bytes for ``fields``; bytes become hex."""
    return json.dumps(fields, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=_hex_bytes).encode("ascii")


def _refuse_non_integer(text: str):
    raise EncodingError(f"non-integer number {text}")


# The protocol's numbers are integers: a fraction, exponent, NaN or
# Infinity is refused as it is parsed.
_DECODER = json.JSONDecoder(parse_float=_refuse_non_integer,
                            parse_constant=_refuse_non_integer)


def canonical_encode(tag: bytes, fields: Mapping[str, Any]) -> bytes:
    """Domain-tagged canonical bytes: ``tag || canonical_json(fields)``."""
    if tag not in KNOWN_TAGS:
        raise EncodingError(f"unknown domain tag {tag!r}")
    return tag + canonical_json(fields)


def canonical_decode(blob: bytes) -> tuple[bytes, dict]:
    """Split canonical bytes back into (tag, fields). Hex stays as str."""
    if len(blob) < 4:
        raise EncodingError("blob shorter than a domain tag")
    tag, body = blob[:4], blob[4:]
    if tag not in KNOWN_TAGS:
        raise EncodingError(f"unknown domain tag {tag!r}")
    try:
        fields = _DECODER.decode(body.decode("ascii"))
    except Exception as exc:
        raise EncodingError(f"bad canonical body: {exc}") from exc
    if not isinstance(fields, dict):
        raise EncodingError("canonical body must be a JSON object")
    return tag, fields
