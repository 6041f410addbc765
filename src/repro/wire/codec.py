"""The wire layer's payload codec: compact UTF-8 JSON behind one codec byte.

A wire message body is one flat payload dict (plain strings, numbers, lists,
and dicts — see :mod:`repro.wire.messages`); this module turns that dict into
bytes and back.  Encoded bytes start with one codec id byte, always
:data:`CODEC_JSON`.  Frames (:mod:`repro.net.frames`) and journal records
carry that byte, so journals written by earlier releases (which wrote the
same byte) still replay, and a body behind any other id is refused as
corrupt.  Encoding a value JSON cannot represent raises
:class:`WireEncodeError` rather than shipping a lossy approximation — the
wire schema is restricted to JSON-safe scalars by design (fingerprints must
agree across the wire).
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "WIRE_VERSION",
    "CODEC_JSON",
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "SchemaVersionError",
    "encode_payload",
    "decode_payload",
]

#: The current wire schema version.  Every message payload carries it as
#: ``"v"``; decoding rejects any other value (rolling upgrades within one
#: version instead rely on unknown-field tolerance).
WIRE_VERSION = 1

#: The codec id byte every encoded message starts with.
CODEC_JSON = 0
_CODEC_BYTE = bytes((CODEC_JSON,))

#: Always ``False``: JSON is the only codec (run reports still record this).
HAVE_MSGPACK = False


class WireError(Exception):
    """Base class for every wire-layer failure."""


class WireEncodeError(WireError):
    """A value cannot be represented in the wire schema (not JSON-safe)."""


class WireDecodeError(WireError):
    """Received bytes do not decode to a valid wire payload."""


class SchemaVersionError(WireDecodeError):
    """The peer speaks a different wire schema version."""


def encode_payload(payload: dict[str, Any]) -> bytes:
    """Encode one payload dict: the codec id byte, then the JSON body."""
    try:
        body = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as error:
        raise WireEncodeError(f"payload is not JSON-serializable: {error}") from error
    return _CODEC_BYTE + body.encode("utf-8")


def decode_payload(data: bytes) -> dict[str, Any]:
    """Decode :func:`encode_payload` bytes back into their payload dict."""
    if not data:
        raise WireDecodeError("empty wire message")
    if data[0] != CODEC_JSON:
        raise WireDecodeError(f"unknown codec id {data[0]}")
    try:
        payload = json.loads(data[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireDecodeError(f"invalid JSON body: {error}") from error
    if not isinstance(payload, dict):
        raise WireDecodeError(f"wire payload must be a dict, got {type(payload).__name__}")
    return payload
