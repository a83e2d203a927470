import copy
import json

import ssla.audit
from ssla import wire
from ssla.audit import AuditVerdict, audit_record, compare_evidence
from conftest import run_scenario


def test_completed_run_audits_valid(scenario_run, user_key, sp_key):
    user_record, sp_record, _, _ = scenario_run
    report = audit_record(user_record, user_key.public_key(), sp_key.public_key())
    assert report.verdict is AuditVerdict.VALID
    assert not report.failures()
    assert report.agreed_entries == tuple(user_record["body"]["agreed_entries"])
    assert {report.initiator_hex, report.responder_hex} == {
        user_record["body"]["initiator"],
        user_record["body"]["responder"],
    }
    # which party signed last is the only fairness fact the evidence holds
    assert report.signed_last == user_record["body"]["confirmer"]


def test_other_partys_copy_audits_identically(scenario_run, user_key, sp_key):
    user_record, sp_record, _, _ = scenario_run
    mine = audit_record(user_record, user_key.public_key(), sp_key.public_key())
    theirs = audit_record(sp_record, user_key.public_key(), sp_key.public_key())
    assert mine == theirs


def test_compare_evidence(scenario_run, kb, user_key, sp_key):
    user_record, sp_record, _, _ = scenario_run
    assert compare_evidence(user_record, sp_record)
    assert compare_evidence(user_record, user_record)
    # a different negotiation yields different evidence
    _, _, user2, sp2 = run_scenario(kb, user_key, sp_key, user_seed=77, sp_seed=78)
    other = user2.records[next(iter(user2.records))]
    assert not compare_evidence(user_record, other)


def test_swapped_keys_detected(scenario_run, user_key, sp_key):
    user_record, _, _, _ = scenario_run
    report = audit_record(user_record, sp_key.public_key(), user_key.public_key())
    assert report.verdict is AuditVerdict.INVALID


def test_unrelated_key_detected(scenario_run, user_key, other_key):
    user_record, _, _, _ = scenario_run
    report = audit_record(user_record, user_key.public_key(), other_key.public_key())
    assert report.verdict is AuditVerdict.INVALID
    names = {c.name for c in report.failures()}
    assert "identity_binding" in names


def test_missing_key_names_unverifiable_signature(scenario_run, user_key):
    user_record, _, _, _ = scenario_run
    report = audit_record(user_record, user_key.public_key(), None)
    assert report.verdict is AuditVerdict.INVALID
    details = {c.name: c.detail for c in report.failures()}
    assert "confirmation_signature" in details or "proposal_signature" in details


def mutate_leaf(value):
    """A different value of the same JSON type."""
    if isinstance(value, str):
        if not value:
            return "x"
        head = value[0]
        swap = "0" if head != "0" else "1"
        return swap + value[1:]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return "tampered"
    raise TypeError(f"unexpected leaf {value!r}")


def leaf_paths(tree, prefix=()):
    if isinstance(tree, dict):
        for key, item in tree.items():
            yield from leaf_paths(item, prefix + (key,))
    elif isinstance(tree, list):
        for index, item in enumerate(tree):
            yield from leaf_paths(item, prefix + (index,))
    else:
        yield prefix, tree


def apply_mutation(record, path, new_value):
    mutated = copy.deepcopy(record)
    cursor = mutated
    for step in path[:-1]:
        cursor = cursor[step]
    cursor[path[-1]] = new_value
    return mutated


def test_every_field_mutation_flips_audit_to_invalid(scenario_run, user_key, sp_key):
    user_record, _, _, _ = scenario_run
    initiator = user_key.public_key()
    responder = sp_key.public_key()
    assert audit_record(user_record, initiator, responder).verdict is AuditVerdict.VALID
    paths = list(leaf_paths(user_record))
    assert len(paths) > 80  # the record is deep; make sure the walk saw it all
    flipped = 0
    for path, value in paths:
        mutated = apply_mutation(user_record, path, mutate_leaf(value))
        report = audit_record(mutated, initiator, responder)
        assert report.verdict is AuditVerdict.INVALID, f"mutation survived at {path}"
        flipped += 1
    assert flipped == len(paths)


def test_mutation_reports_match_their_json_round_trip(scenario_run, user_key, sp_key):
    # a round trip shares no objects, so any shortcut taken on object identity
    # or a memoized result must give the same checks, flags and details
    user_record, _, _, _ = scenario_run
    initiator = user_key.public_key()
    responder = sp_key.public_key()
    mutations = [user_record] + [
        apply_mutation(user_record, path, mutate_leaf(value))
        for path, value in leaf_paths(user_record)
    ]
    for record in mutations:
        # json.loads, not wire.decode: a mutated version must still be audited
        copied = json.loads(wire.canonical_bytes(record))
        assert audit_record(record, initiator, responder) == audit_record(
            copied, initiator, responder
        )


def test_each_transcript_message_verified_once(scenario_run, user_key, sp_key, monkeypatch):
    user_record, _, _, _ = scenario_run
    calls = []
    real_verify = ssla.audit.verify

    def counted(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(ssla.audit, "verify", counted)
    for record in (user_record, json.loads(wire.canonical_bytes(user_record))):
        calls.clear()
        report = audit_record(record, user_key.public_key(), sp_key.public_key())
        assert report.verdict is AuditVerdict.VALID
        assert len(calls) == len(record["body"]["transcript"]) == 3


def test_audit_needs_no_network_or_kb(scenario_run, user_key, sp_key, monkeypatch):
    # closing off sockets and the KB loader proves the audit runs offline
    import socket

    import ssla.translation as translation

    def refuse(*args, **kwargs):
        raise AssertionError("audit must not open sockets")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(translation, "load_knowledge_base", refuse)
    monkeypatch.setattr(translation, "load_seed_kb", refuse)
    user_record, sp_record, _, _ = scenario_run
    report = audit_record(user_record, user_key.public_key(), sp_key.public_key())
    assert report.verdict is AuditVerdict.VALID
    assert compare_evidence(user_record, sp_record)


def test_garbage_record_reports_structure_failure(user_key, sp_key):
    report = audit_record(
        wire.make_document("ssla.record", {"nonsense": True}),
        user_key.public_key(),
        sp_key.public_key(),
    )
    assert report.verdict is AuditVerdict.INVALID
    assert report.checked[0].name == "record_structure"
    assert not report.checked[0].passed
