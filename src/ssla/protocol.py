"""Negotiation messages and the multi-round SSLA state machine.

A negotiation is a chain of signed proposals carrying the same negotiation
ID, terminated by a signed confirmation (agreement) or a signed cancel.
The round-1 proposal carries a hashcash stamp whose digest names the
negotiation; every later message rides on signatures alone unless policy
demands a stamp per message.

Rejections never change state: a message is either accepted in full, after
every check passes, or refused with a diagnostic.  A proposal is admitted
in one sequence, each check once and cheapest first: field shapes by type,
freshness, then for first contact the addressee and the stamp (one SHA-1)
or for a known negotiation its nonce, phase, round, identities and parity
(plus the stamp if policy demands one per round), then the sender key and
RSA signature, the one-open-negotiation rule, and only then the parse of
each expression and its KB lookup.  Unpaid first contact therefore costs
the responder no parse, KB lookup or RSA.

    round 1        initiator -> responder   proposal (+ stamp)
    round 2        responder -> initiator   counterproposal
    ...            alternating              ...
    terminal       either direction         confirmation | cancel

The proposal's entry list is the proposed SSLA.  A party that provides the
service accepts only entries it can satisfy from its own capabilities; a
party with outstanding requirements accepts only entries that cover them.
A provider that wants the agreement pinned to concrete techniques counters
a satisfiable but vague proposal with compound entries (the received
requirement with its chosen technique appended).

The confirmation embeds the confirmed proposal byte for byte, signature
included, so the final record is self-contained: after agreement both
parties hold the same dual-signed evidence, like two mutually signed
copies of a paper contract.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Callable, Optional

from . import wire
from .decision import Outcome, build_counterproposal, decide_set
from .errors import (
    ExpressionSyntaxError,
    InvalidPow,
    InvalidSignature,
    MalformedDocument,
    MismatchedEmbedding,
    ReplayedNonce,
    StaleTimestamp,
    StateViolation,
    UnknownNegotiation,
)
from .expression import ExpressionSet, SetRole, parse_expression
from .hashcash import (
    ExtensionPayload,
    HashcashStamp,
    PowPolicy,
    ReplaySet,
    mint,
    negotiation_id_from,
    verify_stamp,
)
from .identity import (
    derive_identity,
    public_key_from_wire,
    public_key_to_wire,
    sign,
    verify,
)
from .translation import KnowledgeBase

PROPOSAL = "ssla.proposal"
CONFIRMATION = "ssla.confirmation"
CANCEL = "ssla.cancel"
RECORD = "ssla.record"
TRANSLATION_REQUEST = "translation.request"
TRANSLATION_REPLY = "translation.reply"

_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"

# Frozen instant used by deterministic hooks so reproducible runs do not
# depend on the wall clock.
FIXED_INSTANT = datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc)


@dataclass
class Hooks:
    """Injection points for randomness and time.

    Production uses the OS entropy pool and the real clock; tests inject a
    seeded RNG and a frozen clock to make whole runs byte-reproducible.
    """

    rng: Optional[random.Random] = None
    now: Optional[Callable[[], datetime]] = None

    def moment(self) -> datetime:
        return self.now() if self.now is not None else datetime.now(timezone.utc)

    def timestamp(self) -> str:
        return self.moment().strftime(_TIME_FORMAT)

    def nonce_hex(self, nbytes: int = 16) -> str:
        if self.rng is not None:
            return self.rng.randbytes(nbytes).hex()
        return secrets.token_hex(nbytes)

    @classmethod
    def deterministic(cls, seed: int) -> "Hooks":
        return cls(rng=random.Random(seed), now=lambda: FIXED_INSTANT)


def parse_timestamp(text: str) -> datetime:
    try:
        return datetime.strptime(text, _TIME_FORMAT).replace(tzinfo=timezone.utc)
    except (TypeError, ValueError):
        raise MalformedDocument(f"bad timestamp {text!r}") from None


@dataclass(frozen=True)
class ProtocolPolicy:
    pow: PowPolicy = field(default_factory=PowPolicy)
    pow_required: bool = True  # False: zero-difficulty stamp, signature is the commitment
    pow_every_round: bool = False
    timestamp_window: float = 300.0  # seconds either side of local clock
    max_rounds: int = 8

    def effective_pow(self) -> PowPolicy:
        if self.pow_required:
            return self.pow
        return PowPolicy(0, self.pow.max_stamp_age, self.pow.clock_skew)


class Phase(str, Enum):
    IDLE = "idle"
    PROPOSAL_SENT = "proposal_sent"
    PROPOSAL_RECEIVED = "proposal_received"
    AGREED = "agreed"
    CANCELLED = "cancelled"


TERMINAL_PHASES = frozenset({Phase.AGREED, Phase.CANCELLED})

LEGAL_TRANSITIONS = frozenset(
    {
        (Phase.IDLE, Phase.PROPOSAL_SENT),
        (Phase.IDLE, Phase.PROPOSAL_RECEIVED),
        (Phase.PROPOSAL_SENT, Phase.PROPOSAL_RECEIVED),
        (Phase.PROPOSAL_RECEIVED, Phase.PROPOSAL_SENT),
        (Phase.PROPOSAL_SENT, Phase.AGREED),
        (Phase.PROPOSAL_RECEIVED, Phase.AGREED),
        (Phase.IDLE, Phase.CANCELLED),
        (Phase.PROPOSAL_SENT, Phase.CANCELLED),
        (Phase.PROPOSAL_RECEIVED, Phase.CANCELLED),
    }
)


@dataclass
class NegotiationState:
    negotiation_id: str
    initiator_hex: str
    responder_hex: str
    i_am_initiator: bool
    phase: Phase = Phase.IDLE
    round: int = 0
    history: list = field(default_factory=list)  # append-only message documents
    seen_nonces: set = field(default_factory=set)
    last_sent_proposal: Optional[dict] = None
    last_received_proposal: Optional[dict] = None

    @property
    def peer_hex(self) -> str:
        return self.responder_hex if self.i_am_initiator else self.initiator_hex

    def transition(self, new_phase: Phase) -> None:
        if (self.phase, new_phase) not in LEGAL_TRANSITIONS:
            raise StateViolation(f"illegal transition {self.phase.value} -> {new_phase.value}")
        self.phase = new_phase


def round_sender_hex(body: dict) -> str:
    """Odd rounds come from the initiator, even rounds from the responder."""
    return body["initiator"] if body["round"] % 2 == 1 else body["responder"]


class NegotiationParty:
    """One endpoint of the negotiation protocol.

    Owns any number of independent negotiations keyed by negotiation ID,
    but allows at most one non-terminal negotiation per peer pair so that a
    series of attempts can never leave the two sides disagreeing about
    which agreement applies.  Not thread-safe: one logical actor per party.
    """

    def __init__(
        self,
        *,
        private_key,
        kb: KnowledgeBase,
        requirements: ExpressionSet,
        capabilities: ExpressionSet,
        policy: Optional[ProtocolPolicy] = None,
        provides_service: bool = False,
        prefer_concrete: Optional[bool] = None,
        kb_uri: Optional[str] = None,
        hooks: Optional[Hooks] = None,
    ) -> None:
        self.private_key = private_key
        self.public_key = private_key.public_key()
        self.identity = derive_identity(self.public_key)
        self.wire_key = public_key_to_wire(self.public_key)
        self.kb = kb
        self.requirements = requirements
        self.capabilities = capabilities
        self.policy = policy or ProtocolPolicy()
        self.provides_service = provides_service
        self.prefer_concrete = provides_service if prefer_concrete is None else prefer_concrete
        self.kb_uri = kb_uri
        self.hooks = hooks or Hooks()
        self.states: dict[str, NegotiationState] = {}
        self.records: dict[str, dict] = {}
        self.stamp_replays = ReplaySet()

    # --- outbound ---------------------------------------------------------

    def initiate(self, responder_identity_hex: str) -> dict:
        """Mint the round-1 stamp, derive the negotiation ID, sign and send."""
        self._require_no_open_negotiation(self.identity.hex, responder_identity_hex)
        payload = ExtensionPayload(
            self.identity.hex, responder_identity_hex, self.hooks.nonce_hex()
        )
        stamp = mint(
            responder_identity_hex,
            payload,
            self.policy.effective_pow(),
            rng=self.hooks.rng,
            now=self.hooks.moment(),
        )
        negotiation_id = negotiation_id_from(stamp)
        doc = self._make_proposal(
            negotiation_id=negotiation_id,
            round_number=1,
            entries=self.requirements.to_strings(),
            initiator_hex=self.identity.hex,
            responder_hex=responder_identity_hex,
            stamp=stamp,
        )
        state = NegotiationState(
            negotiation_id,
            initiator_hex=self.identity.hex,
            responder_hex=responder_identity_hex,
            i_am_initiator=True,
        )
        state.transition(Phase.PROPOSAL_SENT)
        state.round = 1
        state.seen_nonces.add(doc["body"]["nonce"])
        state.history.append(doc)
        state.last_sent_proposal = doc
        self.states[negotiation_id] = state
        return doc

    def cancel(self, negotiation_id: str, reason: str, unsatisfiable=()) -> dict:
        state = self._known_state(negotiation_id)
        if state.phase in TERMINAL_PHASES:
            raise StateViolation(f"cannot cancel a negotiation in phase {state.phase.value}")
        doc = self._make_cancel(state, reason, unsatisfiable)
        state.transition(Phase.CANCELLED)
        state.seen_nonces.add(doc["body"]["nonce"])
        state.history.append(doc)
        return doc

    # --- inbound ------------------------------------------------------------

    def receive(self, doc: dict) -> Optional[dict]:
        """Dispatch a received document; returns the reply to send, if any."""
        wire.require_envelope(doc)
        handlers = {
            PROPOSAL: self.receive_proposal,
            CONFIRMATION: self.receive_confirmation,
            CANCEL: self.receive_cancel,
        }
        handler = handlers.get(doc["type"])
        if handler is None:
            raise MalformedDocument(f"unexpected message type {doc['type']!r}")
        return handler(doc)

    def receive_proposal(self, doc: dict) -> dict:
        """Admit a proposal, then answer with confirmation, counter, or cancel.

        Admission runs each check once, cheapest first, so unpaid first
        contact is refused on one SHA-1 before any parse, KB lookup or RSA
        (the order is documented under "Admission order" in docs/formats.md).
        """
        body = self._checked_proposal_body(doc)
        negotiation_id = body["negotiation_id"]
        state = self.states.get(negotiation_id)
        stamp = None
        if state is None:
            if body["round"] != 1:
                raise UnknownNegotiation(f"no negotiation {negotiation_id}")
            if body["responder"] != self.identity.hex:
                raise StateViolation("proposal is not addressed to this party")
            stamp = self._checked_stamp(body)
        else:
            if body["nonce"] in state.seen_nonces:
                raise ReplayedNonce("nonce already seen in this negotiation")
            if state.phase in TERMINAL_PHASES:
                raise StateViolation(f"negotiation already {state.phase.value}")
            if state.phase is not Phase.PROPOSAL_SENT:
                raise StateViolation("not expecting a proposal now")
            if body["round"] != state.round + 1:
                raise StateViolation(
                    f"stale or skipped round {body['round']} (last was {state.round})"
                )
            if (body["initiator"], body["responder"]) != (
                state.initiator_hex,
                state.responder_hex,
            ):
                raise StateViolation("party identities changed mid-negotiation")
            if round_sender_hex(body) != state.peer_hex:
                raise StateViolation("round parity does not match the peer's role")
            if self.policy.pow_every_round:
                stamp = self._checked_stamp(body)
        self._verify_sender(doc, body, expected_hex=round_sender_hex(body))
        if state is None:
            self._require_no_open_negotiation(body["initiator"], body["responder"])
        entries, peer_caps = self._checked_expressions(body)

        if state is None:
            state = NegotiationState(
                negotiation_id,
                initiator_hex=body["initiator"],
                responder_hex=body["responder"],
                i_am_initiator=False,
            )
            self.states[negotiation_id] = state
        state.transition(Phase.PROPOSAL_RECEIVED)
        state.round = body["round"]
        state.seen_nonces.add(body["nonce"])
        state.history.append(doc)
        state.last_received_proposal = doc
        if stamp is not None:
            self._burn_stamp(stamp)

        action, detail = self._choose_action(state, body, entries, peer_caps)
        if action == "counter" and body["round"] + 1 > self.policy.max_rounds:
            action, detail = "cancel", ("max_rounds_exceeded", ())
        if action == "accept":
            return self._emit_confirmation(state, doc)
        if action == "counter":
            return self._emit_counter(state, body, detail)
        return self._emit_cancel(state, detail)

    def receive_confirmation(self, doc: dict) -> None:
        body = self._checked_common_body(doc, CONFIRMATION, {"proposal": dict})
        state = self._known_state(body["negotiation_id"])
        if body["nonce"] in state.seen_nonces:
            raise ReplayedNonce("nonce already seen in this negotiation")
        if state.phase in TERMINAL_PHASES:
            raise StateViolation(f"negotiation already {state.phase.value}")
        if state.phase is not Phase.PROPOSAL_SENT:
            raise StateViolation("no outstanding proposal to confirm")
        self._check_freshness(body["timestamp"])
        self._verify_sender(doc, body, expected_hex=state.peer_hex)
        if state.last_sent_proposal is None or wire.canonical_bytes(
            body["proposal"]
        ) != wire.canonical_bytes(state.last_sent_proposal):
            raise MismatchedEmbedding("embedded proposal is not the one this party sent")
        state.transition(Phase.AGREED)
        state.seen_nonces.add(body["nonce"])
        state.history.append(doc)
        self.records[state.negotiation_id] = build_record(doc, state.history)
        return None

    def receive_cancel(self, doc: dict) -> None:
        body = self._checked_common_body(
            doc, CANCEL, {"reason": str, "unsatisfiable": list}
        )
        state = self._known_state(body["negotiation_id"])
        if body["nonce"] in state.seen_nonces:
            raise ReplayedNonce("nonce already seen in this negotiation")
        if state.phase in TERMINAL_PHASES:
            raise StateViolation(f"negotiation already {state.phase.value}")
        self._check_freshness(body["timestamp"])
        self._verify_sender(doc, body, expected_hex=state.peer_hex)
        state.transition(Phase.CANCELLED)
        state.seen_nonces.add(body["nonce"])
        state.history.append(doc)
        return None

    # --- decision plumbing ---------------------------------------------------

    def _choose_action(self, state, body, entries, peer_caps):
        """Pick accept / counter / cancel for a validated proposal.

        Overridable: tests exercise termination with forced strategies.
        """
        # entries must cover whatever this party originally demanded
        if len(self.requirements):
            coverage = decide_set(self.kb, self.requirements, entries)
            if coverage.overall is not Outcome.ACCEPT:
                return "cancel", ("requirements_not_covered", ())
        if self.provides_service:
            verdict = decide_set(
                self.kb, entries, self.capabilities, prefer_concrete=self.prefer_concrete
            )
            if verdict.overall is Outcome.REJECT:
                unsatisfiable = [
                    str(req) for req, ok in verdict.per_requirement.items() if not ok
                ]
                return "cancel", ("cannot_satisfy", tuple(unsatisfiable))
            if verdict.overall is Outcome.COUNTER:
                counter = build_counterproposal(
                    self.kb, entries, peer_caps, self.capabilities
                )
                if counter.unsatisfiable:
                    return "cancel", (
                        "cannot_satisfy",
                        tuple(str(e) for e in counter.unsatisfiable),
                    )
                if list(counter.entries.to_strings()) == list(body["requirements"]):
                    return "accept", None  # countering would change nothing
                return "counter", counter.entries.to_strings()
        return "accept", None

    def _emit_confirmation(self, state: NegotiationState, proposal_doc: dict) -> dict:
        body = {
            "negotiation_id": state.negotiation_id,
            "proposal": proposal_doc,
            "sender_key": self.wire_key,
            "nonce": self.hooks.nonce_hex(),
            "timestamp": self.hooks.timestamp(),
        }
        doc = self._signed(CONFIRMATION, body)
        state.transition(Phase.AGREED)
        state.seen_nonces.add(body["nonce"])
        state.history.append(doc)
        self.records[state.negotiation_id] = build_record(doc, state.history)
        return doc

    def _emit_counter(self, state: NegotiationState, received_body: dict, entries) -> dict:
        stamp = None
        if self.policy.pow_every_round:
            payload = ExtensionPayload(
                state.initiator_hex, state.responder_hex, self.hooks.nonce_hex()
            )
            stamp = mint(
                state.peer_hex,
                payload,
                self.policy.effective_pow(),
                rng=self.hooks.rng,
                now=self.hooks.moment(),
            )
        doc = self._make_proposal(
            negotiation_id=state.negotiation_id,
            round_number=received_body["round"] + 1,
            entries=entries,
            initiator_hex=state.initiator_hex,
            responder_hex=state.responder_hex,
            stamp=stamp,
        )
        state.transition(Phase.PROPOSAL_SENT)
        state.round = received_body["round"] + 1
        state.seen_nonces.add(doc["body"]["nonce"])
        state.history.append(doc)
        state.last_sent_proposal = doc
        return doc

    def _emit_cancel(self, state: NegotiationState, detail) -> dict:
        reason, unsatisfiable = detail
        doc = self._make_cancel(state, reason, unsatisfiable)
        state.transition(Phase.CANCELLED)
        state.seen_nonces.add(doc["body"]["nonce"])
        state.history.append(doc)
        return doc

    # --- message construction -------------------------------------------------

    def _make_proposal(
        self, *, negotiation_id, round_number, entries, initiator_hex, responder_hex, stamp
    ) -> dict:
        body = {
            "negotiation_id": negotiation_id,
            "round": round_number,
            "requirements": list(entries),
            "capabilities": self.capabilities.to_strings(),
            "initiator": initiator_hex,
            "responder": responder_hex,
            "sender_key": self.wire_key,
            "nonce": self.hooks.nonce_hex(),
            "timestamp": self.hooks.timestamp(),
            "kb_uri": self.kb_uri,
            "pow": stamp.string() if stamp is not None else None,
        }
        return self._signed(PROPOSAL, body)

    def _make_cancel(self, state: NegotiationState, reason: str, unsatisfiable) -> dict:
        body = {
            "negotiation_id": state.negotiation_id,
            "reason": reason,
            "unsatisfiable": list(unsatisfiable),
            "sender_key": self.wire_key,
            "nonce": self.hooks.nonce_hex(),
            "timestamp": self.hooks.timestamp(),
        }
        return self._signed(CANCEL, body)

    def _signed(self, doc_type: str, body: dict) -> dict:
        doc = wire.make_document(doc_type, body)
        signature = sign(wire.signing_bytes(doc), self.private_key)
        return wire.attach_signature(doc, signature)

    # --- validation helpers ----------------------------------------------------

    def _checked_proposal_body(self, doc: dict) -> dict:
        """Field shapes by type only, then freshness; nothing is parsed yet."""
        fields = {
            "round": int,
            "requirements": list,
            "capabilities": list,
            "initiator": str,
            "responder": str,
        }
        body = self._checked_common_body(doc, PROPOSAL, fields)
        if isinstance(body["round"], bool) or body["round"] < 1:
            raise MalformedDocument("round must be a positive integer")
        if "kb_uri" not in body or "pow" not in body:
            raise MalformedDocument("proposal needs 'kb_uri' and 'pow' fields")
        if body["pow"] is not None and not isinstance(body["pow"], str):
            raise MalformedDocument("'pow' must be a stamp string or null")
        for name in ("requirements", "capabilities"):
            if not all(isinstance(item, str) for item in body[name]):
                raise MalformedDocument(f"{name} entries must be strings")
        self._check_freshness(body["timestamp"])
        return body

    def _checked_common_body(self, doc: dict, expected_type: str, fields: dict) -> dict:
        wire.require_envelope(doc)
        if doc["type"] != expected_type:
            raise MalformedDocument(f"expected {expected_type}, got {doc['type']!r}")
        body = doc["body"]
        required = {"negotiation_id": str, "sender_key": str, "nonce": str, "timestamp": str}
        required.update(fields)
        for name, kind in required.items():
            if name not in body or not isinstance(body[name], kind):
                raise MalformedDocument(f"missing or mistyped field {name!r}")
        return body

    def _check_freshness(self, timestamp_text: str) -> None:
        stamp_time = parse_timestamp(timestamp_text)
        skew = abs((self.hooks.moment() - stamp_time).total_seconds())
        if skew > self.policy.timestamp_window:
            raise StaleTimestamp(f"timestamp {timestamp_text} outside freshness window")

    def _verify_sender(self, doc: dict, body: dict, expected_hex: str) -> None:
        sender_key = public_key_from_wire(body["sender_key"])
        if derive_identity(sender_key).hex != expected_hex:
            raise InvalidSignature("sender key does not match the expected identity")
        signature = wire.extract_signature(doc)
        if not verify(wire.signing_bytes(doc), signature, sender_key):
            raise InvalidSignature("signature does not verify")

    def _checked_stamp(self, body: dict) -> HashcashStamp:
        # one SHA-1 plus lookups: the whole price of refusing unpaid contact
        if body["pow"] is None:
            raise InvalidPow("proof-of-work stamp required")
        try:
            stamp = HashcashStamp.parse(body["pow"])
            payload = stamp.payload()
        except ValueError as exc:
            raise InvalidPow(str(exc)) from None
        if stamp.string() in self.stamp_replays:
            raise InvalidPow("stamp rejected: replayed")
        check = verify_stamp(
            stamp,
            self.identity.hex,
            self.policy.effective_pow(),
            None,
            now=self.hooks.moment(),
        )
        if not check.ok:
            raise InvalidPow(f"stamp rejected: {check.code}")
        if (payload.initiator_hex, payload.responder_hex) != (
            body["initiator"],
            body["responder"],
        ):
            raise InvalidPow("stamp extension identities do not match the proposal")
        if body["round"] == 1 and negotiation_id_from(stamp) != body["negotiation_id"]:
            raise InvalidPow("negotiation ID was not derived from the stamp")
        return stamp

    def _burn_stamp(self, stamp: HashcashStamp) -> None:
        # only an accepted message burns its stamp, so a tampered copy cannot
        # spend the honest sender's work; a stamp may be dated clock_skew
        # ahead, which keeps it acceptable by age that much longer
        pow_policy = self.policy.effective_pow()
        now = self.hooks.moment().timestamp()
        self.stamp_replays.prune(now)
        self.stamp_replays.add(
            stamp.string(), now + pow_policy.max_stamp_age + 2 * pow_policy.clock_skew
        )

    def _checked_expressions(self, body: dict) -> tuple[ExpressionSet, ExpressionSet]:
        """Parse each entry once, then require every OID to be in the KB."""
        parsed = {}
        for name in ("requirements", "capabilities"):
            try:
                parsed[name] = tuple(parse_expression(text) for text in body[name])
            except ExpressionSyntaxError as exc:
                raise MalformedDocument(f"bad expression in {name}: {exc}") from None
        entries = ExpressionSet(SetRole.SSLA_ENTRY, parsed["requirements"])
        peer_caps = ExpressionSet(SetRole.CAPABILITY, parsed["capabilities"])
        # unknown OIDs are reported up front, never silently passed along
        for expr in (*entries, *peer_caps):
            for segment in expr.segments:
                self.kb.require_known(segment)
        return entries, peer_caps

    def _known_state(self, negotiation_id: str) -> NegotiationState:
        state = self.states.get(negotiation_id)
        if state is None:
            raise UnknownNegotiation(f"no negotiation {negotiation_id}")
        return state

    def _require_no_open_negotiation(self, initiator_hex: str, responder_hex: str) -> None:
        for state in self.states.values():
            if (
                state.phase not in TERMINAL_PHASES
                and (state.initiator_hex, state.responder_hex)
                == (initiator_hex, responder_hex)
            ):
                raise StateViolation(
                    "another negotiation between these parties is still open"
                )


def build_record(confirmation_doc: dict, transcript: list) -> dict:
    """Assemble the dual-signed agreement record from the shared transcript.

    Built purely from exchanged messages, so both parties produce identical
    canonical bytes (evidence symmetry).
    """
    proposal = confirmation_doc["body"]["proposal"]
    pbody = proposal["body"]
    proposer = round_sender_hex(pbody)
    confirmer = (
        pbody["responder"] if proposer == pbody["initiator"] else pbody["initiator"]
    )
    body = {
        "negotiation_id": pbody["negotiation_id"],
        "agreed_entries": list(pbody["requirements"]),
        "initiator": pbody["initiator"],
        "responder": pbody["responder"],
        "proposer": proposer,
        "confirmer": confirmer,
        "confirmation": confirmation_doc,
        "transcript": list(transcript),
    }
    return wire.make_document(RECORD, body)


# --- KB lookup messages -----------------------------------------------------

def make_translation_request(expressions, goal, nonce_hex: str) -> dict:
    return wire.make_document(
        TRANSLATION_REQUEST,
        {
            "expressions": [str(e) for e in expressions],
            "goal": goal.label,
            "nonce": nonce_hex,
        },
    )


def make_translation_reply(request_nonce: str, results: list) -> dict:
    return wire.make_document(
        TRANSLATION_REPLY, {"nonce": request_nonce, "results": results}
    )
