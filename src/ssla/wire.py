"""Bit-exact document encoding for everything that crosses a boundary.

All messages, records, and config files are JSON documents of the shape
``{"type": ..., "version": "1", "body": {...}}``.  The canonical form,
which is what signatures cover and what evidence comparison uses, is UTF-8
JSON with lexicographically sorted keys and no insignificant whitespace.
Floats are rejected outright: nothing in the protocol needs them and their
text form is not portable enough to sign.

Signatures are computed over the canonical bytes of the document with the
body's ``signature`` field removed; the embedded signature dict is
``{"algorithm": ..., "value": <base64>}``.
"""

from __future__ import annotations

import base64
import json

from .errors import MalformedDocument, UnsupportedVersion
from .identity import Signature

WIRE_VERSION = "1"


def canonical_bytes(document) -> bytes:
    try:
        text = json.dumps(
            document, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        )
    except TypeError:
        _check_tree(document)  # names the value json could not encode
        raise
    # json has walked the tree by now, so it is finite and acyclic
    _check_tree(document)
    return text.encode("utf-8")


_LEAF_TYPES = frozenset({str, int, bool, type(None)})


def _check_tree(document) -> None:
    """Reject floats, non-string keys and every type JSON has no exact form for."""
    stack = [document]
    while stack:
        value = stack.pop()
        if type(value) in _LEAF_TYPES:
            continue
        if isinstance(value, dict):
            for key in value:
                if not isinstance(key, str):
                    raise MalformedDocument("document keys must be strings")
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
        elif isinstance(value, float):
            raise MalformedDocument("floats are not allowed in wire documents")
        elif not isinstance(value, (str, int, bool)):
            raise MalformedDocument(f"unsupported value type {type(value).__name__}")


def decode(data: bytes) -> dict:
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedDocument(f"not a UTF-8 JSON document: {exc}") from None
    require_envelope(document)
    return document


def require_envelope(document) -> None:
    if (
        not isinstance(document, dict)
        or not isinstance(document.get("type"), str)
        or "version" not in document
        or not isinstance(document.get("body"), dict)
    ):
        raise MalformedDocument("document needs 'type', 'version', and 'body'")
    if document["version"] != WIRE_VERSION:
        raise UnsupportedVersion(f"unknown wire version {document['version']!r}")


def make_document(doc_type: str, body: dict) -> dict:
    return {"type": doc_type, "version": WIRE_VERSION, "body": body}


def signing_bytes(document: dict) -> bytes:
    """Canonical bytes of the document with the body signature removed.

    Only the body is copied, and shallowly: embedded documents keep their
    own signatures, and the input is left unchanged.
    """
    body = document["body"].copy()
    body.pop("signature", None)
    return canonical_bytes({**document, "body": body})


def attach_signature(document: dict, signature: Signature) -> dict:
    document["body"]["signature"] = {
        "algorithm": signature.algorithm,
        "value": base64.b64encode(signature.value).decode("ascii"),
    }
    return document


def extract_signature(document: dict) -> Signature:
    sig = document["body"].get("signature")
    if (
        not isinstance(sig, dict)
        or not isinstance(sig.get("algorithm"), str)
        or not isinstance(sig.get("value"), str)
    ):
        raise MalformedDocument("missing or malformed signature field")
    try:
        value = base64.b64decode(sig["value"], validate=True)
    except Exception:
        raise MalformedDocument("signature value is not valid base64") from None
    return Signature(sig["algorithm"], value)


def dump_document(document: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_bytes(document))


def load_document(path) -> dict:
    with open(path, "rb") as fh:
        return decode(fh.read())
