"""Offline dispute resolution from the agreement record alone.

Given an agreement record and the two parties' public keys, establish what
was agreed and by whom, using nothing but the signatures in the record: no
network, no knowledge base, no third party.  Whether the agreed techniques
actually satisfy the original requirements is deliberately out of scope,
because answering that would reintroduce a KB as a trusted party; the
transcript (with any KB URIs the messages carried) is preserved so a
disputant can re-run translation out of band.

Every check always runs; the report lists each one individually and the
verdict is Valid only when all of them pass.  Each distinct signed message
is verified once per audit, keyed by its signing bytes, its signature and
the key: ``proposal_signature``, ``confirmation_signature`` and
``transcript`` name their own failures but share that one RSA result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import wire
from .errors import SslaError
from .expression import parse_expression
from .hashcash import HashcashStamp, leading_zero_bits, negotiation_id_from
from .identity import derive_identity, verify
from .protocol import CANCEL, CONFIRMATION, PROPOSAL, RECORD, round_sender_hex


class AuditVerdict(str, Enum):
    VALID = "valid"
    INVALID = "invalid"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AuditReport:
    verdict: AuditVerdict
    checked: tuple[CheckResult, ...]
    agreed_entries: tuple[str, ...]
    initiator_hex: str
    responder_hex: str
    signed_last: str  # identity of the confirmer, who held evidence first

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checked if not c.passed]


def audit_record(record: dict, initiator_key, responder_key) -> AuditReport:
    """Run every evidence check against a (possibly hostile) record.

    A missing key (None) is not an error: the checks that depend on it fail
    with a detail naming the signature that could not be verified.
    """
    checks: list[CheckResult] = []

    def check(name: str, fn) -> bool:
        try:
            problem = fn()
        except (SslaError, KeyError, TypeError, ValueError, AttributeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        checks.append(CheckResult(name, problem is None, problem or "ok"))
        return problem is None

    body = record.get("body") if isinstance(record, dict) else None
    structure_ok = check("record_structure", lambda: _structure(record))
    if not structure_ok:
        return AuditReport(AuditVerdict.INVALID, tuple(checks), (), "", "", "")

    confirmation = body["confirmation"]
    proposal = confirmation["body"]["proposal"]
    pbody = proposal["body"]
    identities = {
        "initiator": derive_identity(initiator_key).hex if initiator_key else None,
        "responder": derive_identity(responder_key).hex if responder_key else None,
    }
    keys_by_hex = {
        digest: key
        for digest, key in (
            (identities["initiator"], initiator_key),
            (identities["responder"], responder_key),
        )
        if digest is not None
    }
    # id(message) -> (message, signing bytes, signature); holding the message
    # keeps its id from being reused while this audit runs
    parts: dict[int, tuple] = {}
    verified: dict[tuple, bool] = {}

    def signed_by(message: dict, key_hex: str) -> bool:
        if id(message) not in parts:
            parts[id(message)] = (
                message,
                wire.signing_bytes(message),
                wire.extract_signature(message),
            )
        _, signed, signature = parts[id(message)]
        slot = (signed, signature, key_hex)
        if slot not in verified:
            verified[slot] = verify(signed, signature, keys_by_hex[key_hex])
        return verified[slot]

    def counterparty(proposal_body: dict) -> str:
        proposer = round_sender_hex(proposal_body)
        if proposer == proposal_body["initiator"]:
            return proposal_body["responder"]
        return proposal_body["initiator"]

    def proposal_signature():
        signer = round_sender_hex(pbody)
        if signer not in keys_by_hex:
            return "proposal signature unverifiable: no supplied key matches its sender"
        if not signed_by(proposal, signer):
            return "proposal signature does not verify"
        return None

    def confirmation_signature():
        confirmer = counterparty(pbody)
        if confirmer not in keys_by_hex:
            return "confirmation signature unverifiable: no supplied key matches the confirmer"
        if not signed_by(confirmation, confirmer):
            return "confirmation signature does not verify"
        return None

    def identity_binding():
        for role in ("initiator", "responder"):
            if identities[role] is None:
                return f"{role} key not supplied; identity cannot be recomputed"
            if body[role] != identities[role]:
                return f"record {role} is not the hash of the supplied {role} key"
        if (pbody["initiator"], pbody["responder"]) != (
            body["initiator"],
            body["responder"],
        ):
            return "embedded proposal names different parties"
        return None

    def signer_roles():
        proposer = round_sender_hex(pbody)
        confirmer = (
            pbody["responder"] if proposer == pbody["initiator"] else pbody["initiator"]
        )
        if body["proposer"] != proposer or body["confirmer"] != confirmer:
            return "proposer/confirmer fields do not match the round parity"
        return None

    def agreed_entries():
        if body["agreed_entries"] != pbody["requirements"]:
            return "agreed entries differ from the confirmed proposal"
        for text in body["agreed_entries"]:
            parse_expression(text)
        return None

    def id_consistency():
        ids = {
            body["negotiation_id"],
            confirmation["body"]["negotiation_id"],
            pbody["negotiation_id"],
        }
        if len(ids) != 1:
            return "negotiation IDs disagree inside the record"
        return None

    def stamp_checks():
        round1 = body["transcript"][0]
        stamp_text = round1["body"].get("pow")
        if stamp_text is None:
            return "round-1 proposal carries no stamp"
        stamp = HashcashStamp.parse(stamp_text)
        if negotiation_id_from(stamp) != body["negotiation_id"]:
            return "negotiation ID was not derived from the round-1 stamp"
        if leading_zero_bits(stamp.digest()) < stamp.bits:
            return "stamp does not meet its claimed difficulty"
        payload = stamp.payload()
        if (payload.initiator_hex, payload.responder_hex) != (
            body["initiator"],
            body["responder"],
        ):
            return "stamp extension identities do not match the record"
        return None

    def transcript_checks():
        transcript = body["transcript"]
        if not transcript:
            return "empty transcript"
        # the same object needs no compare; an equal copy gets the full one
        last = transcript[-1]
        if last is not confirmation and (
            wire.canonical_bytes(last) != wire.canonical_bytes(confirmation)
        ):
            return "transcript does not end with the confirmation"
        proposal_bytes = None
        for message in transcript:
            if message is proposal:
                break
            message_bytes = wire.canonical_bytes(message)
            if proposal_bytes is None:
                proposal_bytes = wire.canonical_bytes(proposal)
            if message_bytes == proposal_bytes:
                break
        else:
            return "confirmed proposal is missing from the transcript"
        for index, message in enumerate(transcript):
            wire.require_envelope(message)
            mbody = message["body"]
            if mbody["negotiation_id"] != body["negotiation_id"]:
                return f"transcript[{index}] belongs to another negotiation"
            if message["type"] == PROPOSAL:
                senders = [round_sender_hex(mbody)]
            elif message["type"] == CONFIRMATION:
                embedded = mbody.get("proposal")
                if not isinstance(embedded, dict):
                    return f"transcript[{index}] confirmation embeds no proposal"
                senders = [counterparty(embedded["body"])]
            elif message["type"] == CANCEL:
                senders = list(keys_by_hex)  # either party may cancel
            else:
                return f"transcript[{index}] has unexpected type {message['type']!r}"
            candidates = [sender for sender in senders if sender in keys_by_hex]
            if not candidates:
                return f"transcript[{index}] sender is neither supplied identity"
            if not any(signed_by(message, sender) for sender in candidates):
                return f"transcript[{index}] signature does not verify"
        return None

    check("proposal_signature", proposal_signature)
    check("confirmation_signature", confirmation_signature)
    check("identity_binding", identity_binding)
    check("signer_roles", signer_roles)
    check("agreed_entries", agreed_entries)
    check("negotiation_id_consistency", id_consistency)
    check("proof_of_work", stamp_checks)
    check("transcript", transcript_checks)

    verdict = (
        AuditVerdict.VALID if all(c.passed for c in checks) else AuditVerdict.INVALID
    )
    return AuditReport(
        verdict,
        tuple(checks),
        tuple(body.get("agreed_entries", ())),
        body.get("initiator", ""),
        body.get("responder", ""),
        signed_last=body.get("confirmer", ""),
    )


def _structure(record) -> "str | None":
    wire.require_envelope(record)
    if record["type"] != RECORD:
        return f"expected {RECORD}, got {record['type']!r}"
    body = record["body"]
    needed = (
        "negotiation_id",
        "agreed_entries",
        "initiator",
        "responder",
        "proposer",
        "confirmer",
        "confirmation",
        "transcript",
    )
    for name in needed:
        if name not in body:
            return f"record is missing {name!r}"
    if not isinstance(body["transcript"], list) or not isinstance(
        body["agreed_entries"], list
    ):
        return "transcript and agreed_entries must be lists"
    confirmation = body["confirmation"]
    wire.require_envelope(confirmation)
    if confirmation["type"] != CONFIRMATION:
        return "embedded confirmation has the wrong type"
    proposal = confirmation["body"].get("proposal")
    if not isinstance(proposal, dict):
        return "confirmation embeds no proposal"
    wire.require_envelope(proposal)
    if proposal["type"] != PROPOSAL:
        return "embedded proposal has the wrong type"
    return None


def compare_evidence(record_a: dict, record_b: dict) -> bool:
    """True when both parties hold byte-identical evidence."""
    return wire.canonical_bytes(record_a) == wire.canonical_bytes(record_b)
