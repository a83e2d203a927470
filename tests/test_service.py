import re
import threading
from pathlib import Path

from conftest import SCENARIO_SSLA, make_sp, make_user

from ssla import errors, wire
from ssla.cli import drive_negotiation
from ssla.expression import Dimension, ExpressionSet, SetRole, parse_expression
from ssla.hashcash import negotiation_id_from, HashcashStamp
from ssla.identity import verify
from ssla.protocol import PROPOSAL, Hooks, make_translation_request
from ssla.service import (
    CompositeService,
    HttpTransport,
    KbService,
    LoopbackTransport,
    NegotiationService,
    ERROR_STATUS,
    RemoteKnowledgeBase,
    serve_http,
)

FORMATS_MD = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def request_translation(transport, expressions, goal, nonce="ab" * 16):
    doc = make_translation_request(
        ExpressionSet.from_strings(SetRole.REQUIREMENT, expressions), goal, nonce
    )
    return transport.request("POST", "/translate", doc)


def test_kb_translate_endpoint(kb):
    transport = LoopbackTransport(KbService(kb))
    status, reply, _ = request_translation(transport, ["Risk.1.1.1"], Dimension.FUNCTION)
    assert status == 200
    assert reply["type"] == "translation.reply"
    assert reply["body"]["nonce"] == "ab" * 16
    (result,) = reply["body"]["results"]
    assert set(result["output"]) == {"Function.12.1.3", "Function.17", "Function.23.3"}
    assert result["error"] is None


def test_kb_endpoint_passthrough(kb):
    transport = LoopbackTransport(KbService(kb))
    status, reply, _ = request_translation(transport, ["Function.15"], Dimension.FUNCTION)
    (result,) = reply["body"]["results"]
    assert result["passthrough"] is True
    assert result["output"] == ["Function.15"]


def test_kb_endpoint_item_level_errors(kb):
    transport = LoopbackTransport(KbService(kb))
    status, reply, _ = request_translation(
        transport, ["Risk.77.77", "Risk.1.1.2"], Dimension.FUNCTION
    )
    assert status == 200  # item failure is not a transport failure
    first, second = reply["body"]["results"]
    assert first["error"] == "unknown_oid"
    assert second["error"] is None
    assert len(second["output"]) == 2


def test_kb_endpoint_malformed_request(kb):
    transport = LoopbackTransport(KbService(kb))
    status, reply, _ = transport.request(
        "POST", "/translate", wire.make_document("translation.request", {})
    )
    assert status == 400
    assert reply["body"]["code"] == "malformed_document"


def test_kb_endpoint_stateless(kb):
    transport = LoopbackTransport(KbService(kb))
    first = request_translation(transport, ["Target.1.1.2"], Dimension.TECHNIQUE)
    second = request_translation(transport, ["Target.1.1.2"], Dimension.TECHNIQUE)
    assert first == second


def test_kb_dictionary_endpoint(kb):
    transport = LoopbackTransport(KbService(kb))
    status, doc, _ = transport.request("GET", "/dictionaries/Risk")
    assert status == 200
    entries = {item["oid"]: item["label"] for item in doc["body"]["entries"]}
    assert entries["Risk.1.1.1"] == "network sniffing"
    status, doc, _ = transport.request("GET", "/dictionaries/Nope")
    assert status == 404


def test_kb_integrity_mode_signs_replies(kb, sp_key):
    transport = LoopbackTransport(KbService(kb, signing_key=sp_key))
    status, reply, _ = request_translation(transport, ["Risk.1.1.1"], Dimension.FUNCTION)
    assert verify(
        wire.signing_bytes(reply), wire.extract_signature(reply), sp_key.public_key()
    )


def test_negotiation_resource_created_with_stamp_derived_path(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    transport = LoopbackTransport(NegotiationService(sp))
    proposal = user.initiate(sp.identity.hex)
    status, reply, headers = transport.request("POST", "/negotiations", proposal)
    assert status == 201
    # recompute the id from the stamp with the independent hash rule
    stamp = HashcashStamp.parse(proposal["body"]["pow"])
    assert headers["Location"] == f"/negotiations/{negotiation_id_from(stamp)}"
    assert reply["type"] == PROPOSAL  # the scenario counter


def test_negotiation_unknown_resource(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key)
    transport = LoopbackTransport(NegotiationService(sp))
    proposal = user.initiate(sp.identity.hex)
    status, reply, _ = transport.request(
        "POST", "/negotiations/" + "0" * 64, proposal
    )
    assert status == 400
    assert reply["body"]["code"] == "malformed_document"
    # a consistent but unknown id is a 404 with the stable code
    import copy

    fake = copy.deepcopy(proposal)
    fake["body"]["round"] = 2
    status, reply, _ = transport.request(
        "POST", "/negotiations/" + proposal["body"]["negotiation_id"], fake
    )
    assert status in (403, 404)


def test_error_codes_are_stable(kb, user_key, sp_key):
    import copy

    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    transport = LoopbackTransport(NegotiationService(sp))
    proposal = user.initiate(sp.identity.hex)
    transport.request("POST", "/negotiations", proposal)
    status, reply, _ = transport.request("POST", "/negotiations", copy.deepcopy(proposal))
    assert status == 409
    assert reply["body"]["code"] == "replayed_nonce"
    tampered = copy.deepcopy(proposal)
    tampered["body"]["nonce"] = "11" * 16
    status, reply, _ = transport.request("POST", "/negotiations", tampered)
    assert status in (403, 409)
    assert reply["body"]["code"] in ("invalid_signature", "state_violation")


def test_full_scenario_over_loopback(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    transport = LoopbackTransport(NegotiationService(sp))
    outcome, _ = drive_negotiation(user, sp.identity.hex, transport)
    assert outcome == "agreed"
    nid = next(iter(user.records))
    assert user.records[nid]["body"]["agreed_entries"] == SCENARIO_SSLA
    assert wire.canonical_bytes(user.records[nid]) == wire.canonical_bytes(
        sp.records[nid]
    )


def test_full_scenario_over_real_http(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    service = CompositeService(KbService(kb), NegotiationService(sp))
    server = serve_http(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = f"http://127.0.0.1:{server.server_address[1]}"
        transport = HttpTransport(base)
        outcome, _ = drive_negotiation(user, sp.identity.hex, transport)
        assert outcome == "agreed"
        nid = next(iter(user.records))
        assert wire.canonical_bytes(user.records[nid]) == wire.canonical_bytes(
            sp.records[nid]
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_remote_kb_matches_local(kb):
    transport = LoopbackTransport(KbService(kb))
    remote = RemoteKnowledgeBase(transport, Hooks.deterministic(5))
    for text, goal in (
        ("Risk.1.1.1", Dimension.FUNCTION),
        ("Target.1.1.2", Dimension.TECHNIQUE),
        ("Technique.7.2", Dimension.FUNCTION),
        ("Function.15", Dimension.TECHNIQUE),
    ):
        expr = parse_expression(text)
        local = kb.translate(expr, goal)
        over_wire = remote.translate(expr, goal)
        assert over_wire.output == local.output
        assert over_wire.passthrough == local.passthrough
    assert remote.knows(parse_expression("Risk.1.1.1").operative)
    assert not remote.knows(parse_expression("Risk.77").operative)


def test_remote_kb_drives_a_full_negotiation(kb, user_key, sp_key):
    kb_transport = LoopbackTransport(KbService(kb))
    remote = RemoteKnowledgeBase(kb_transport, Hooks.deterministic(6))
    user = make_user(remote, user_key)
    sp = make_sp(remote, sp_key)
    transport = LoopbackTransport(NegotiationService(sp))
    outcome, _ = drive_negotiation(user, sp.identity.hex, transport)
    assert outcome == "agreed"


def test_unknown_route(kb):
    transport = LoopbackTransport(CompositeService(KbService(kb)))
    status, reply, _ = transport.request("GET", "/nowhere")
    assert status == 404
    assert reply["body"]["code"] == "not_found"


def test_error_registry_covers_every_service_code():
    section = FORMATS_MD.read_text(encoding="utf-8").split("## Error code registry")[1]
    registry = {
        code: int(status)
        for code, status in re.findall(r"^\| `(\w+)`\s*\| (\d+)\s*\|", section, re.M)
    }
    # "error" is the abstract base; "config" stays inside the CLI
    emitted = {
        cls.code
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.SslaError)
    } - {"error", "config"}
    assert emitted <= set(registry)
    for code, status in registry.items():
        assert ERROR_STATUS.get(code, 400) == status, code
