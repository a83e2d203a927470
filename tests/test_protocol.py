import copy
import random
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SCENARIO_REQUIREMENTS,
    SCENARIO_SP_CAPS,
    SCENARIO_SSLA,
    TEST_POLICY,
    make_sp,
    make_user,
)

import ssla.expression
import ssla.identity
import ssla.protocol
from ssla import wire
from ssla.errors import (
    InvalidPow,
    InvalidSignature,
    MalformedDocument,
    MismatchedEmbedding,
    ReplayedNonce,
    StaleTimestamp,
    SslaError,
    StateViolation,
    UnknownNegotiation,
    UnknownOidError,
)
from ssla.hashcash import ExtensionPayload, PowPolicy, mint, negotiation_id_from
from ssla.identity import sign
from ssla.protocol import (
    CANCEL,
    CONFIRMATION,
    FIXED_INSTANT,
    PROPOSAL,
    Hooks,
    NegotiationParty,
    Phase,
    ProtocolPolicy,
    build_record,
)


def resign(doc, key):
    doc = copy.deepcopy(doc)
    doc["body"].pop("signature", None)
    return wire.attach_signature(doc, sign(wire.signing_bytes(doc), key))


def count_costly_calls(monkeypatch, kb):
    """Count every parse, KB lookup and RSA verification from here on."""
    calls = {"parse": 0, "kb": 0, "verify": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (ssla.protocol, ssla.expression):
        monkeypatch.setattr(module, "parse_expression", counted("parse", module.parse_expression))
    kb_class = type(kb)
    monkeypatch.setattr(kb_class, "require_known", counted("kb", kb_class.require_known))
    for module in (ssla.protocol, ssla.identity):
        monkeypatch.setattr(module, "verify", counted("verify", module.verify))
    return calls


def responder_snapshot(party):
    """Everything a rejected message must leave untouched."""
    return (
        {nid: (s.phase, s.round, len(s.history)) for nid, s in party.states.items()},
        dict(party.records),
        list(party.stamp_replays._seen.items()),
    )


def weak_stamp(resource_hex, initiator_hex, responder_hex):
    payload = ExtensionPayload(initiator_hex, responder_hex, "ab" * 16)
    return mint(resource_hex, payload, PowPolicy(required_bits=0), rng=random.Random(3),
                now=FIXED_INSTANT)


def test_initiate_builds_valid_round1(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    doc = user.initiate(sp.identity.hex)
    body = doc["body"]
    assert doc["type"] == PROPOSAL
    assert body["round"] == 1
    assert body["requirements"] == SCENARIO_REQUIREMENTS
    assert body["initiator"] == user.identity.hex
    assert body["responder"] == sp.identity.hex
    assert body["kb_uri"] == "kb://user-trusted"
    assert body["pow"] is not None
    assert user.states[body["negotiation_id"]].phase is Phase.PROPOSAL_SENT
    # reserialization is byte-stable
    assert wire.canonical_bytes(doc) == wire.canonical_bytes(
        wire.decode(wire.canonical_bytes(doc))
    )


def test_empty_requirements_are_a_valid_proposal(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=[])
    sp = make_sp(kb, sp_key)
    doc = user.initiate(sp.identity.hex)
    reply = sp.receive_proposal(doc)
    assert reply["type"] == CONFIRMATION
    assert sp.records[doc["body"]["negotiation_id"]]["body"]["agreed_entries"] == []


def test_concrete_proposal_is_confirmed_directly(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    reply = sp.receive_proposal(proposal)
    assert reply["type"] == CONFIRMATION
    assert reply["body"]["proposal"] == proposal
    assert sp.states[proposal["body"]["negotiation_id"]].phase is Phase.AGREED
    user.receive_confirmation(reply)
    assert user.states[proposal["body"]["negotiation_id"]].phase is Phase.AGREED


def test_scenario_counter_round(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    counter = sp.receive_proposal(proposal)
    assert counter["type"] == PROPOSAL
    assert counter["body"]["round"] == 2
    assert counter["body"]["negotiation_id"] == proposal["body"]["negotiation_id"]
    assert counter["body"]["requirements"] == SCENARIO_SSLA
    confirmation = user.receive_proposal(counter)
    assert confirmation["type"] == CONFIRMATION
    sp.receive_confirmation(confirmation)
    nid = proposal["body"]["negotiation_id"]
    assert user.states[nid].phase is Phase.AGREED
    assert sp.states[nid].phase is Phase.AGREED
    assert user.records[nid]["body"]["agreed_entries"] == SCENARIO_SSLA


def test_replayed_proposal_rejected(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    sp.receive_proposal(proposal)
    with pytest.raises(ReplayedNonce):
        sp.receive_proposal(copy.deepcopy(proposal))


def test_round1_stamp_reuse_across_negotiations_rejected(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    sp.receive_proposal(proposal)
    # fresh nonce, same stamp: the negotiation id collides with a known one
    forged = copy.deepcopy(proposal)
    forged["body"]["nonce"] = "ff" * 16
    forged = resign(forged, user_key)
    with pytest.raises(StateViolation):
        sp.receive_proposal(forged)


def test_tampered_signature_rejected(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    tampered = copy.deepcopy(proposal)
    tampered["body"]["requirements"] = ["Function.17"]
    with pytest.raises(InvalidSignature):
        sp.receive_proposal(tampered)
    assert not sp.states  # rejected without state change


def test_wrong_sender_key_rejected(kb, user_key, sp_key, other_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    from ssla.identity import public_key_to_wire

    forged = copy.deepcopy(proposal)
    forged["body"]["sender_key"] = public_key_to_wire(other_key.public_key())
    forged = resign(forged, other_key)
    with pytest.raises(InvalidSignature):
        sp.receive_proposal(forged)


def test_missing_pow_rejected(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    stripped = copy.deepcopy(proposal)
    stripped["body"]["pow"] = None
    stripped = resign(stripped, user_key)
    with pytest.raises(InvalidPow):
        sp.receive_proposal(stripped)


def test_low_difficulty_pow_rejected(kb, user_key, sp_key):
    lax = ProtocolPolicy(pow=PowPolicy(required_bits=0))
    user = make_user(kb, user_key, policy=lax)
    sp = make_sp(kb, sp_key)  # demands 8 bits
    proposal = user.initiate(sp.identity.hex)
    with pytest.raises(InvalidPow):
        sp.receive_proposal(proposal)


def test_pow_not_required_mode(kb, user_key, sp_key):
    relaxed = ProtocolPolicy(pow=PowPolicy(required_bits=8), pow_required=False)
    user = make_user(kb, user_key, policy=relaxed, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key, policy=relaxed)
    proposal = user.initiate(sp.identity.hex)
    # a zero-difficulty stamp still seeds the negotiation id
    assert proposal["body"]["pow"].split(":")[1] == "0"
    assert sp.receive_proposal(proposal)["type"] == CONFIRMATION


def test_non_string_pow_is_malformed(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = copy.deepcopy(user.initiate(sp.identity.hex))
    proposal["body"]["pow"] = 12345
    with pytest.raises(MalformedDocument):
        sp.receive_proposal(proposal)


def test_stale_timestamp_rejected(kb, user_key, sp_key):
    late = Hooks(rng=None, now=lambda: FIXED_INSTANT + timedelta(seconds=2000))
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    sp.hooks = late
    proposal = user.initiate(sp.identity.hex)
    with pytest.raises(StaleTimestamp):
        sp.receive_proposal(proposal)


def test_unknown_negotiation(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    counter = sp.receive_proposal(proposal)
    splice = copy.deepcopy(counter)
    splice["body"]["negotiation_id"] = "0" * 64
    splice = resign(splice, sp_key)
    with pytest.raises(UnknownNegotiation):
        user.receive_proposal(splice)


def test_stale_round_rejected(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    counter = sp.receive_proposal(proposal)
    replay = copy.deepcopy(counter)
    replay["body"]["round"] = 1
    replay["body"]["nonce"] = "ee" * 16
    replay = resign(replay, sp_key)
    with pytest.raises(StateViolation):
        user.receive_proposal(replay)


def test_unknown_oid_reported_not_processed(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=["Risk.1.1.1"], capabilities=[])
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    mutated = copy.deepcopy(proposal)
    mutated["body"]["requirements"] = ["Risk.88.88"]
    mutated = resign(mutated, user_key)
    with pytest.raises(UnknownOidError):
        sp.receive_proposal(mutated)
    assert not sp.states


def test_confirmation_embedding_must_match(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    confirmation = sp.receive_proposal(proposal)
    tampered = copy.deepcopy(confirmation)
    tampered["body"]["proposal"]["body"]["requirements"][0] = "Function.15"
    tampered = resign(tampered, sp_key)
    with pytest.raises(MismatchedEmbedding):
        user.receive_confirmation(tampered)
    assert user.states[proposal["body"]["negotiation_id"]].phase is Phase.PROPOSAL_SENT


def test_corrupted_confirmation_signature_yields_no_record(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    confirmation = sp.receive_proposal(proposal)
    nid = proposal["body"]["negotiation_id"]
    broken = copy.deepcopy(confirmation)
    broken["body"]["signature"]["value"] = "QUJD" + broken["body"]["signature"]["value"][4:]
    with pytest.raises(InvalidSignature):
        user.receive_confirmation(broken)
    assert nid not in user.records
    assert user.states[nid].phase is Phase.PROPOSAL_SENT


def test_confirmation_for_unknown_negotiation(kb, user_key, sp_key):
    user = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    confirmation = sp.receive_proposal(proposal)
    splice = copy.deepcopy(confirmation)
    splice["body"]["negotiation_id"] = "1" * 64
    splice["body"]["proposal"]["body"]["negotiation_id"] = "1" * 64
    splice = resign(splice, sp_key)
    with pytest.raises(UnknownNegotiation):
        user.receive_confirmation(splice)


def test_cancel_lifecycle(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    nid = proposal["body"]["negotiation_id"]
    cancel = user.cancel(nid, "changed my mind")
    assert cancel["type"] == CANCEL
    assert user.states[nid].phase is Phase.CANCELLED
    assert nid not in user.records
    with pytest.raises(StateViolation):
        user.cancel(nid, "again")
    # peer verifies and applies the cancel
    sp.receive_proposal(proposal)
    sp.receive_cancel(cancel)
    assert sp.states[nid].phase is Phase.CANCELLED


def test_sp_cancels_when_unsatisfiable(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key, capabilities=["Technique.3.1", "Technique.11.4", "Function.15"])
    proposal = user.initiate(sp.identity.hex)
    reply = sp.receive_proposal(proposal)
    assert reply["type"] == CANCEL
    assert reply["body"]["reason"] == "cannot_satisfy"
    assert reply["body"]["unsatisfiable"] == ["Function.17"]


def test_user_cancels_when_counter_does_not_cover(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    counter = sp.receive_proposal(proposal)
    gutted = copy.deepcopy(counter)
    gutted["body"]["requirements"] = ["Function.23.3:Technique.3.1"]
    gutted = resign(gutted, sp_key)
    reply = user.receive_proposal(gutted)
    assert reply["type"] == CANCEL
    assert reply["body"]["reason"] == "requirements_not_covered"


def test_one_open_negotiation_per_pair(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    user.initiate(sp.identity.hex)
    with pytest.raises(StateViolation):
        user.initiate(sp.identity.hex)


def test_round_numbers_strictly_increase(kb, user_key, sp_key):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    proposal = user.initiate(sp.identity.hex)
    counter = sp.receive_proposal(proposal)
    assert counter["body"]["round"] == proposal["body"]["round"] + 1


def test_evidence_symmetry(scenario_run):
    user_record, sp_record, user, sp = scenario_run
    assert wire.canonical_bytes(user_record) == wire.canonical_bytes(sp_record)


def test_record_requires_both_signatures(scenario_run, user_key, sp_key):
    from ssla.audit import AuditVerdict, audit_record

    user_record, _, _, _ = scenario_run
    for fiddle in ("confirmation", "proposal"):
        broken = copy.deepcopy(user_record)
        if fiddle == "confirmation":
            broken["body"]["confirmation"]["body"]["signature"]["value"] = "AAAA"
        else:
            broken["body"]["confirmation"]["body"]["proposal"]["body"]["signature"][
                "value"
            ] = "AAAA"
        report = audit_record(broken, user_key.public_key(), sp_key.public_key())
        assert report.verdict is AuditVerdict.INVALID


def test_malformed_documents_rejected(kb, sp_key):
    sp = make_sp(kb, sp_key)
    with pytest.raises(MalformedDocument):
        sp.receive({"type": "ssla.proposal", "version": "1"})
    with pytest.raises(MalformedDocument):
        sp.receive(wire.make_document("nonsense", {}))
    bad_round = wire.make_document(PROPOSAL, {"negotiation_id": "x", "sender_key": "k",
                                              "nonce": "n", "timestamp": "t", "round": 0,
                                              "requirements": [], "capabilities": [],
                                              "initiator": "a", "responder": "b"})
    with pytest.raises(MalformedDocument):
        sp.receive(bad_round)


def test_termination_under_forced_countering(kb, user_key, sp_key):
    # model check: whatever the strategies do, max_rounds bounds the exchange

    class StubbornParty(NegotiationParty):
        def _choose_action(self, state, body, entries, peer_caps):
            return "counter", body["requirements"]  # echo forever

    policy = ProtocolPolicy(pow=PowPolicy(required_bits=4), max_rounds=6)
    user = StubbornParty(
        private_key=user_key, kb=kb,
        requirements=make_user(kb, user_key).requirements,
        capabilities=make_user(kb, user_key).capabilities,
        policy=policy, hooks=Hooks.deterministic(31),
    )
    sp = StubbornParty(
        private_key=sp_key, kb=kb,
        requirements=make_sp(kb, sp_key).requirements,
        capabilities=make_sp(kb, sp_key).capabilities,
        policy=policy, provides_service=True, hooks=Hooks.deterministic(32),
    )
    doc = user.initiate(sp.identity.hex)
    nid = doc["body"]["negotiation_id"]
    proposals = 1
    parties = {True: sp, False: user}
    to_sp = True
    while doc["type"] == PROPOSAL:
        doc = parties[to_sp].receive_proposal(doc)
        if doc["type"] == PROPOSAL:
            proposals += 1
        to_sp = not to_sp
    assert doc["type"] == CANCEL
    assert doc["body"]["reason"] == "max_rounds_exceeded"
    assert proposals <= policy.max_rounds
    assert user.states[nid].phase is Phase.CANCELLED or sp.states[nid].phase is Phase.CANCELLED


def test_default_strategy_cancels_a_counter_past_max_rounds(kb, user_key, sp_key):
    # the scenario's vague round 1 draws a counter from the default strategy;
    # with max_rounds=1 that counter would be round 2, so the responder cancels
    user = make_user(kb, user_key)
    countering_sp = make_sp(kb, sp_key)
    assert countering_sp.receive_proposal(user.initiate(countering_sp.identity.hex))[
        "type"
    ] == PROPOSAL
    policy = ProtocolPolicy(pow=TEST_POLICY.pow, max_rounds=1)
    user = make_user(kb, user_key, policy=policy)
    sp = make_sp(kb, sp_key, policy=policy)
    doc = sp.receive_proposal(user.initiate(sp.identity.hex))
    assert doc["type"] == CANCEL
    assert doc["body"]["reason"] == "max_rounds_exceeded"
    assert sp.states[doc["body"]["negotiation_id"]].phase is Phase.CANCELLED


def test_termination_across_strategy_space(kb, user_key, sp_key):
    # exhaustive small strategy space: each side always accepts, always
    # counters, or always cancels on receipt
    class Scripted(NegotiationParty):
        strategy = "accept"

        def _choose_action(self, state, body, entries, peer_caps):
            if self.strategy == "accept":
                return "accept", None
            if self.strategy == "counter":
                return "counter", body["requirements"]
            return "cancel", ("scripted", ())

    policy = ProtocolPolicy(pow=PowPolicy(required_bits=2), max_rounds=5)
    for user_strategy in ("accept", "counter", "cancel"):
        for sp_strategy in ("accept", "counter", "cancel"):
            user = Scripted(
                private_key=user_key, kb=kb,
                requirements=make_user(kb, user_key).requirements,
                capabilities=make_user(kb, user_key).capabilities,
                policy=policy, hooks=Hooks.deterministic(41),
            )
            sp = Scripted(
                private_key=sp_key, kb=kb,
                requirements=make_sp(kb, sp_key).requirements,
                capabilities=make_sp(kb, sp_key).capabilities,
                policy=policy, provides_service=True, hooks=Hooks.deterministic(42),
            )
            user.strategy, sp.strategy = user_strategy, sp_strategy
            doc = user.initiate(sp.identity.hex)
            nid = doc["body"]["negotiation_id"]
            proposals = 1
            to_sp = True
            while doc is not None and doc["type"] == PROPOSAL:
                receiver = sp if to_sp else user
                doc = receiver.receive_proposal(doc)
                if doc is not None and doc["type"] == PROPOSAL:
                    proposals += 1
                to_sp = not to_sp
            if doc is not None and doc["type"] == CONFIRMATION:
                receiver = sp if to_sp else user
                receiver.receive_confirmation(doc)
            assert proposals <= policy.max_rounds
            for party in (user, sp):
                phase = party.states[nid].phase
                assert phase in (Phase.AGREED, Phase.CANCELLED, Phase.PROPOSAL_SENT,
                                 Phase.PROPOSAL_RECEIVED)
            # at least one side reached a terminal phase
            assert (
                user.states[nid].phase in (Phase.AGREED, Phase.CANCELLED)
                or sp.states[nid].phase in (Phase.AGREED, Phase.CANCELLED)
            )


def test_build_record_identical_from_both_histories(scenario_run):
    user_record, sp_record, user, sp = scenario_run
    nid = user_record["body"]["negotiation_id"]
    rebuilt_user = build_record(
        user.states[nid].history[-1], user.states[nid].history
    )
    rebuilt_sp = build_record(sp.states[nid].history[-1], sp.states[nid].history)
    assert wire.canonical_bytes(rebuilt_user) == wire.canonical_bytes(rebuilt_sp)


JUNK_ENTRIES = 20_000


@pytest.mark.parametrize("stamp_kind", ["garbage", "weak"])
def test_big_unpaid_first_contact_refused_before_any_parse_kb_or_rsa(
    kb, user_key, sp_key, monkeypatch, stamp_kind
):
    user = make_user(kb, user_key)
    sp = make_sp(kb, sp_key)
    junk = copy.deepcopy(user.initiate(sp.identity.hex))
    body = junk["body"]
    body["capabilities"] = [f"Technique.{9000 + i // 1000}.{i % 1000}" for i in range(JUNK_ENTRIES)]
    if stamp_kind == "garbage":
        body["pow"] = "garbage-stamp"
    else:
        stamp = weak_stamp(sp.identity.hex, user.identity.hex, sp.identity.hex)
        body["pow"] = stamp.string()
        body["negotiation_id"] = negotiation_id_from(stamp)
    before = responder_snapshot(sp)
    calls = count_costly_calls(monkeypatch, kb)
    with pytest.raises(InvalidPow):
        sp.receive_proposal(junk)
    assert calls == {"parse": 0, "kb": 0, "verify": 0}
    assert responder_snapshot(sp) == before


KNOWN_AND_UNKNOWN = SCENARIO_REQUIREMENTS + SCENARIO_SP_CAPS + ["Risk.88.88", "Technique.9000.1"]
entry_lists = st.lists(
    st.one_of(st.sampled_from(KNOWN_AND_UNKNOWN), st.text(max_size=12), st.integers()),
    max_size=6,
)
stamp_corruptions = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=40),
    st.tuples(st.integers(min_value=0), st.characters(exclude_categories=("Cs",))),
)


def corrupt_stamp(stamp_text, corruption):
    if not isinstance(corruption, tuple):
        return corruption
    index, char = corruption
    index %= len(stamp_text)
    return stamp_text[:index] + char + stamp_text[index + 1:]


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["pow", "requirements", "capabilities"]),
    stamp_corruption=stamp_corruptions,
    entries=entry_lists,
    resigned=st.booleans(),
)
def test_rejected_round1_never_changes_responder_state(
    kb, user_key, sp_key, other_key, field, stamp_corruption, entries, resigned
):
    sp = make_sp(kb, sp_key)
    # one earlier agreement, so there are records and a burned stamp to keep
    earlier = make_user(kb, other_key, seed=5, requirements=SCENARIO_SSLA)
    assert sp.receive_proposal(earlier.initiate(sp.identity.hex))["type"] == CONFIRMATION
    proposal = copy.deepcopy(make_user(kb, user_key).initiate(sp.identity.hex))
    body = proposal["body"]
    if field == "pow":
        body["pow"] = corrupt_stamp(body["pow"], stamp_corruption)
    else:
        body[field] = entries
    if resigned:
        proposal = resign(proposal, user_key)
    before = responder_snapshot(sp)
    try:
        sp.receive_proposal(proposal)
    except SslaError:
        assert responder_snapshot(sp) == before


def pow_every_round_exchange(kb, user_key, sp_key):
    """A user and provider that stamp every round, and the provider's counter."""
    policy = ProtocolPolicy(pow=TEST_POLICY.pow, pow_every_round=True)
    user = make_user(kb, user_key, policy=policy)
    sp = make_sp(kb, sp_key, policy=policy)
    counter = sp.receive_proposal(user.initiate(sp.identity.hex))
    assert counter["type"] == PROPOSAL and counter["body"]["round"] == 2
    return user, sp, counter


def test_pow_every_round_stamps_later_rounds(kb, user_key, sp_key):
    user, sp, counter = pow_every_round_exchange(kb, user_key, sp_key)
    assert counter["body"]["pow"] is not None
    replays = len(user.stamp_replays)
    confirmation = user.receive_proposal(counter)
    assert confirmation["type"] == CONFIRMATION
    assert len(user.stamp_replays) == replays + 1


@pytest.mark.parametrize("stamp_kind", ["missing", "weak"])
def test_pow_every_round_refuses_unpaid_later_round_before_parse(
    kb, user_key, sp_key, monkeypatch, stamp_kind
):
    user, sp, counter = pow_every_round_exchange(kb, user_key, sp_key)
    unpaid = copy.deepcopy(counter)
    if stamp_kind == "missing":
        unpaid["body"]["pow"] = None
    else:
        unpaid["body"]["pow"] = weak_stamp(user.identity.hex, user.identity.hex, sp.identity.hex).string()
    unpaid = resign(unpaid, sp_key)
    before = responder_snapshot(user)
    calls = count_costly_calls(monkeypatch, kb)
    with pytest.raises(InvalidPow):
        user.receive_proposal(unpaid)
    assert calls == {"parse": 0, "kb": 0, "verify": 0}
    assert responder_snapshot(user) == before
    monkeypatch.undo()
    # the refusal changed nothing, so the paid counter is still accepted
    assert user.receive_proposal(counter)["type"] == CONFIRMATION


def test_accepted_stamp_prunes_expired_replays_and_rejection_does_not(kb, user_key, sp_key, other_key):
    clock = [FIXED_INSTANT]

    def hooks(seed):
        return Hooks(rng=random.Random(seed), now=lambda: clock[0])

    sp = make_sp(kb, sp_key)
    sp.hooks = hooks(1)
    first = make_user(kb, user_key, requirements=SCENARIO_SSLA)
    first.hooks = hooks(2)
    sp.receive_proposal(first.initiate(sp.identity.hex))
    assert len(sp.stamp_replays) == 1

    window = TEST_POLICY.pow.max_stamp_age + 2 * TEST_POLICY.pow.clock_skew
    clock[0] = FIXED_INSTANT + timedelta(seconds=window + 1)
    second = make_user(kb, other_key, requirements=SCENARIO_SSLA)
    second.hooks = hooks(3)
    proposal = second.initiate(sp.identity.hex)
    junk = copy.deepcopy(proposal)
    junk["body"]["pow"] = "garbage-stamp"
    with pytest.raises(InvalidPow):
        sp.receive_proposal(junk)
    assert len(sp.stamp_replays) == 1  # a rejection never prunes
    sp.receive_proposal(proposal)
    assert list(sp.stamp_replays._seen) == [proposal["body"]["pow"]]
