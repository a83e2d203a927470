"""Inputs shared by the workloads: keys, hooks, the scenario, junk, digests.

Evidence bytes depend only on the seed: the keys are committed, every
``Hooks`` gets its own seeded RNG, and the clock is logical.  It advances
one fixed step per completed negotiation, never per call, so the bytes do
not change when a later version reads the clock more or less often.
"""

from __future__ import annotations

import base64
import hashlib
import os
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

from ssla import wire
from ssla.hashcash import ExtensionPayload, PowPolicy, mint, negotiation_id_from
from ssla.identity import derive_identity, load_private_key, public_key_to_wire
from ssla.protocol import PROPOSAL, Hooks

KEY_DIR = Path(__file__).resolve().parent / "keys"
USER_KEYS = ("user0", "user1", "user2", "user3")

# The hotspot scenario as shipped in src/ssla/fixtures/scenario and the four
# entries README.md says it agrees on.
SCENARIO_REQUIREMENTS = ["Function.23.3", "Function.12.1.3", "Function.17", "Function.15"]
SCENARIO_USER_CAPS = ["Technique.7.2"]
SCENARIO_SP_CAPS = ["Technique.3.1", "Technique.3.5", "Technique.7.2", "Technique.11.4", "Function.15"]
SCENARIO_SSLA = [
    "Function.23.3:Technique.3.1",
    "Function.12.1.3:Technique.3.1",
    "Function.17:Technique.7.2",
    "Function.15",
]

CLOCK_START = datetime(2026, 1, 1, tzinfo=timezone.utc)
CLOCK_STEP = timedelta(milliseconds=200)

# Seed of the correctness gate; its evidence digest is in digests.json.
GATE_SEED = 1403

JUNK_KINDS = ("garbage_stamp", "unknown_oid_20k", "duplicate_oid_20k", "weak_stamp", "replayed_round1")
JUNK_ENTRIES = 20_000
# Stands in for the timestamp in pre-encoded junk; same length as a real one.
TIMESTAMP_PLACEHOLDER = "0000-00-00T00:00:00Z"


def load_key(name: str):
    return load_private_key(KEY_DIR / f"{name}.pem")


class LogicalClock:
    def __init__(self) -> None:
        self.ticks = 0

    def now(self) -> datetime:
        return CLOCK_START + self.ticks * CLOCK_STEP

    def tick(self) -> None:
        self.ticks += 1


def seeded_hooks(seed: int, role: str, clock: LogicalClock) -> Hooks:
    return Hooks(rng=random.Random(f"{seed}:{role}"), now=clock.now)


class Digest:
    """SHA-256 over the canonical bytes of every document fed to it, in order."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, document: dict) -> None:
        self._hash.update(wire.canonical_bytes(document))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class RecordingTransport:
    """Passes requests through and feeds every reply to a digest."""

    def __init__(self, inner, digest: Digest) -> None:
        self.inner = inner
        self.digest = digest

    def request(self, method, path, document=None):
        status, reply, headers = self.inner.request(method, path, document)
        self.digest.add(reply)
        return status, reply, headers


class JunkFactory:
    """Seeded first-contact junk addressed to one responder.

    ``small`` is a short, valid-looking expression list; ``known`` is a list
    of OIDs the responder's KB knows, repeated to build a duplicate flood.
    """

    def __init__(self, seed: int, responder_hex: str, pow_bits: int, small, known, clock) -> None:
        self.rng = random.Random(f"{seed}:junk")
        self.clock = clock
        self.responder_hex = responder_hex
        self.pow_bits = pow_bits
        self.small = list(small)
        self.known = list(known)
        key = load_key("mallory")
        self.sender_key = public_key_to_wire(key.public_key())
        self.sender_hex = derive_identity(key.public_key()).hex

    def _hex(self, nbytes: int) -> str:
        return self.rng.randbytes(nbytes).hex()

    def _proposal(self, capabilities, stamp_text: str, negotiation_id=None) -> dict:
        body = {
            "negotiation_id": negotiation_id or self._hex(32),
            "round": 1,
            "requirements": list(self.small),
            "capabilities": capabilities,
            "initiator": self.sender_hex,
            "responder": self.responder_hex,
            "sender_key": self.sender_key,
            "nonce": self._hex(16),
            "timestamp": TIMESTAMP_PLACEHOLDER,
            "kb_uri": None,
            "pow": stamp_text,
            "signature": {
                "algorithm": "rsa-pkcs1v15-sha256",
                "value": base64.b64encode(self.rng.randbytes(256)).decode("ascii"),
            },
        }
        return wire.make_document(PROPOSAL, body)

    def garbage_stamp(self) -> dict:
        return self._proposal(list(self.small), "garbage-" + self._hex(8))

    def unknown_oid_20k(self) -> dict:
        caps = [f"Technique.{9000 + i // 1000}.{i % 1000}" for i in range(JUNK_ENTRIES)]
        return self._proposal(caps, "garbage-" + self._hex(8))

    def duplicate_oid_20k(self) -> dict:
        caps = [self.known[i % len(self.known)] for i in range(JUNK_ENTRIES)]
        return self._proposal(caps, "garbage-" + self._hex(8))

    def weak_stamp(self) -> dict:
        """A real stamp the responder must refuse: too few bits, or, at 0 bits, the wrong resource."""
        payload = ExtensionPayload(self.sender_hex, self.responder_hex, self._hex(16))
        if self.pow_bits > 0:
            resource, bits = self.responder_hex, max(0, self.pow_bits - 4)
        else:
            resource, bits = self.sender_hex, 0
        stamp = mint(resource, payload, PowPolicy(required_bits=bits), rng=self.rng, now=self.clock.now())
        return self._proposal(list(self.small), stamp.string(), negotiation_id_from(stamp))

    def build(self, variants: int) -> dict:
        """``variants`` documents of each kind except the replay, which needs an accepted round 1."""
        return {
            kind: [getattr(self, kind)() for _ in range(variants)]
            for kind in JUNK_KINDS
            if kind != "replayed_round1"
        }


def stamped(document: dict, timestamp: str) -> dict:
    """A shallow copy of a junk document carrying a fresh timestamp."""
    body = dict(document["body"], timestamp=timestamp)
    return dict(document, body=body)


def state_sizes(party) -> dict:
    """What a rejected message must leave unchanged."""
    return {"states": len(party.states), "records": len(party.records), "replays": len(party.stamp_replays)}


def rss_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
