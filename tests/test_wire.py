import copy
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ssla import wire
from ssla.errors import MalformedDocument, UnsupportedVersion
from ssla.identity import sign, verify


def test_canonical_bytes_sorted_and_compact():
    doc = {"b": 1, "a": {"y": [1, 2], "x": "é"}}
    assert wire.canonical_bytes(doc) == '{"a":{"x":"é","y":[1,2]},"b":1}'.encode("utf-8")


def test_canonical_bytes_stable():
    doc = wire.make_document("t", {"k": [1, "two", None, True]})
    assert wire.canonical_bytes(doc) == wire.canonical_bytes(doc)


def test_floats_rejected():
    with pytest.raises(MalformedDocument):
        wire.canonical_bytes({"x": 1.5})


def test_decode_encode_decode_idempotent():
    doc = wire.make_document("x", {"n": 3, "s": ["a", "b"], "flag": False, "none": None})
    once = wire.decode(wire.canonical_bytes(doc))
    twice = wire.decode(wire.canonical_bytes(once))
    assert once == twice == doc


def test_unknown_version_rejected():
    doc = {"type": "x", "version": "2", "body": {}}
    with pytest.raises(UnsupportedVersion):
        wire.require_envelope(doc)


def test_malformed_envelope_rejected():
    for bad in ({}, {"type": "x"}, {"type": 7, "version": "1", "body": {}},
                {"type": "x", "version": "1", "body": []}):
        with pytest.raises(MalformedDocument):
            wire.require_envelope(bad)
    with pytest.raises(MalformedDocument):
        wire.decode(b"\xff\xfe not json")


def test_signing_bytes_exclude_signature(user_key):
    doc = wire.make_document("t", {"a": 1})
    signature = sign(wire.signing_bytes(doc), user_key)
    wire.attach_signature(doc, signature)
    # attaching the signature must not change what gets signed
    assert wire.signing_bytes(doc) == wire.canonical_bytes(
        wire.make_document("t", {"a": 1})
    )
    assert verify(wire.signing_bytes(doc), wire.extract_signature(doc), user_key.public_key())


def test_signature_survives_transport_round_trips(user_key):
    doc = wire.make_document("t", {"payload": ["x", 1, None]})
    wire.attach_signature(doc, sign(wire.signing_bytes(doc), user_key))
    hopped = doc
    for _ in range(3):
        hopped = wire.decode(wire.canonical_bytes(hopped))
    assert verify(
        wire.signing_bytes(hopped), wire.extract_signature(hopped), user_key.public_key()
    )


def test_extract_signature_validates_shape():
    doc = wire.make_document("t", {"signature": {"algorithm": "a"}})
    with pytest.raises(MalformedDocument):
        wire.extract_signature(doc)
    doc = wire.make_document("t", {"signature": {"algorithm": "a", "value": "@@@"}})
    with pytest.raises(MalformedDocument):
        wire.extract_signature(doc)


def test_dump_and_load_document(tmp_path):
    doc = wire.make_document("t", {"v": 1})
    wire.dump_document(doc, tmp_path / "d.json")
    assert wire.load_document(tmp_path / "d.json") == doc
    raw = (tmp_path / "d.json").read_bytes()
    assert raw == wire.canonical_bytes(doc)


# --- properties over arbitrary trees ------------------------------------------

JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)
# each value wire documents cannot carry, with the message that names it
POISONS = (
    st.floats().map(lambda v: (v, "floats are not allowed in wire documents"))
    | st.dictionaries(
        st.integers() | st.none() | st.tuples(st.integers()), JSON_LEAVES, min_size=1
    ).map(lambda v: (v, "document keys must be strings"))
    | st.tuples(JSON_LEAVES).map(lambda v: (v, "unsupported value type tuple"))
    | st.sets(st.integers(), max_size=3).map(lambda v: (v, "unsupported value type set"))
    | st.binary().map(lambda v: (v, "unsupported value type bytes"))
)


@st.composite
def poisoned_trees(draw):
    """A valid tree with one poison value buried at a random depth."""
    tree, message = draw(POISONS)
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            siblings = draw(st.lists(JSON_TREES, max_size=3))
            siblings.insert(draw(st.integers(0, len(siblings))), tree)
            tree = siblings
        else:
            siblings = draw(st.dictionaries(st.text(), JSON_TREES, max_size=3))
            siblings[draw(st.text())] = tree
            tree = siblings
    return tree, message


@given(JSON_TREES)
def test_canonical_bytes_is_sorted_compact_json(tree):
    expected = json.dumps(tree, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert wire.canonical_bytes(tree) == expected.encode("utf-8")


@given(poisoned_trees())
def test_unencodable_values_rejected_at_any_depth(case):
    tree, message = case
    with pytest.raises(MalformedDocument) as raised:
        wire.canonical_bytes(tree)
    assert str(raised.value) == message


@given(
    st.text(),
    st.dictionaries(st.text(), JSON_TREES, max_size=4),
    st.dictionaries(st.text(), JSON_TREES, max_size=2),
    st.booleans(),
)
def test_signing_bytes_drop_only_the_body_signature(doc_type, body, embedded_body, signed):
    # an embedded document keeps its signature; only the outer one is dropped
    body["embedded"] = wire.make_document("inner", {**embedded_body, "signature": "inner"})
    if signed:
        body["signature"] = {"algorithm": "a", "value": "b"}
    doc = wire.make_document(doc_type, body)
    before = copy.deepcopy(doc)
    reference = copy.deepcopy(doc)
    reference["body"].pop("signature", None)
    assert wire.signing_bytes(doc) == wire.canonical_bytes(reference)
    assert doc == before
