"""Hashcash proof-of-work stamps carrying negotiation metadata.

Stamps follow the standard hashcash v1 string format

    1:bits:date:resource:extension:rand:counter

and qualify when the SHA-1 digest of that string has at least ``bits``
leading zero bits.  SHA-1 is kept for interoperability with ordinary
hashcash stamps; identifiers derived FROM a stamp use SHA-256 instead
(see negotiation_id_from).

The extension field carries the negotiation metadata as
``init=<hex>;resp=<hex>;nonce=<hex>`` in exactly that order: the
initiator's identity digest, the responder's identity digest, and a random
nonce, all lowercase hex.  No other items are included.

Minting is the only unbounded work; verification is one hash plus lookups.
The replay set is the single piece of shared mutable state and expects a
single writer.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections import OrderedDict
from dataclasses import dataclass
from datetime import datetime, timezone

DEFAULT_BITS = 12
DEFAULT_MAX_STAMP_AGE = 600.0  # seconds
DEFAULT_CLOCK_SKEW = 120.0

_DATE_FORMAT = "%y%m%d%H%M%S"
_FIELD_RE = re.compile(r"^[^:\s]*$")  # colon separates stamp fields
_RAND_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class PowPolicy:
    required_bits: int = DEFAULT_BITS
    max_stamp_age: float = DEFAULT_MAX_STAMP_AGE
    clock_skew: float = DEFAULT_CLOCK_SKEW

    def __post_init__(self) -> None:
        if self.required_bits < 0:
            raise ValueError("required_bits must be >= 0")


@dataclass(frozen=True)
class ExtensionPayload:
    initiator_hex: str
    responder_hex: str
    nonce_hex: str

    def encode(self) -> str:
        for value in (self.initiator_hex, self.responder_hex, self.nonce_hex):
            if not re.fullmatch(r"[0-9a-f]*", value):
                raise ValueError(f"extension values must be lowercase hex: {value!r}")
        return f"init={self.initiator_hex};resp={self.responder_hex};nonce={self.nonce_hex}"

    @classmethod
    def decode(cls, text: str) -> "ExtensionPayload":
        match = re.fullmatch(r"init=([0-9a-f]*);resp=([0-9a-f]*);nonce=([0-9a-f]*)", text)
        if not match:
            raise ValueError(f"bad extension encoding: {text!r}")
        return cls(*match.groups())


@dataclass(frozen=True)
class HashcashStamp:
    version: int
    bits: int
    date: str
    resource: str
    extension: str
    rand: str
    counter: str

    def string(self) -> str:
        return ":".join(
            [
                str(self.version),
                str(self.bits),
                self.date,
                self.resource,
                self.extension,
                self.rand,
                self.counter,
            ]
        )

    def digest(self) -> bytes:
        return hashlib.sha1(self.string().encode("utf-8")).digest()

    def payload(self) -> ExtensionPayload:
        return ExtensionPayload.decode(self.extension)

    @classmethod
    def parse(cls, text: str) -> "HashcashStamp":
        parts = text.split(":")
        if len(parts) != 7:
            raise ValueError(f"stamp needs 7 colon-separated fields, got {len(parts)}")
        version, bits, date, resource, extension, rand, counter = parts
        if version != "1":
            raise ValueError(f"unsupported stamp version {version!r}")
        if not bits.isdigit():
            raise ValueError(f"bad bits field {bits!r}")
        return cls(1, int(bits), date, resource, extension, rand, counter)


def leading_zero_bits(digest: bytes) -> int:
    value = int.from_bytes(digest, "big")
    total = len(digest) * 8
    return total if value == 0 else total - value.bit_length()


def mint(
    resource: str,
    extension: "ExtensionPayload | str",
    policy: PowPolicy,
    *,
    rng=None,
    now: "datetime | None" = None,
) -> HashcashStamp:
    """Search counters until the stamp digest meets the required difficulty.

    ``rng`` and ``now`` exist so tests can mint reproducible stamps; the
    defaults use the process RNG and wall clock.
    """
    if not _FIELD_RE.match(resource):
        raise ValueError(f"resource may not contain colons or whitespace: {resource!r}")
    ext = extension.encode() if isinstance(extension, ExtensionPayload) else extension
    if not _FIELD_RE.match(ext):
        raise ValueError("extension may not contain colons or whitespace")
    moment = now if now is not None else datetime.now(timezone.utc)
    date = moment.strftime(_DATE_FORMAT)
    if rng is None:
        import random as _random

        rng = _random.SystemRandom()
    rand = "".join(rng.choice(_RAND_ALPHABET) for _ in range(12))
    prefix = f"1:{policy.required_bits}:{date}:{resource}:{ext}:{rand}:"
    counter = 0
    while True:
        candidate = prefix + str(counter)
        digest = hashlib.sha1(candidate.encode("utf-8")).digest()
        if leading_zero_bits(digest) >= policy.required_bits:
            return HashcashStamp(
                1, policy.required_bits, date, resource, ext, rand, str(counter)
            )
        counter += 1


class ReplaySet:
    """Seen-stamp store bounded by the stamp age window. Single-writer.

    Writers add stamps in expiry order, so pruning drops from the front.
    """

    def __init__(self) -> None:
        self._seen: OrderedDict[str, float] = OrderedDict()

    def __contains__(self, stamp_string: str) -> bool:
        return stamp_string in self._seen

    def add(self, stamp_string: str, expires_at: float) -> None:
        self._seen[stamp_string] = expires_at

    def prune(self, now_epoch: "float | None" = None) -> None:
        cutoff = time.time() if now_epoch is None else now_epoch
        while self._seen and next(iter(self._seen.values())) <= cutoff:
            self._seen.popitem(last=False)

    def __len__(self) -> int:
        return len(self._seen)


@dataclass(frozen=True)
class StampCheck:
    ok: bool
    code: str  # "ok" or the failing check's name


def verify_stamp(
    stamp: HashcashStamp,
    expected_resource: str,
    policy: PowPolicy,
    seen: "ReplaySet | None" = None,
    *,
    now: "datetime | None" = None,
) -> StampCheck:
    """One SHA-1 computation plus lookups; never raises on bad stamps.

    A passing stamp is recorded in ``seen`` so a second presentation fails.
    """
    if stamp.bits < policy.required_bits:
        return StampCheck(False, "bits_below_policy")
    if leading_zero_bits(stamp.digest()) < stamp.bits:
        return StampCheck(False, "difficulty")
    if stamp.resource != expected_resource:
        return StampCheck(False, "resource_mismatch")
    moment = now if now is not None else datetime.now(timezone.utc)
    try:
        stamp_time = datetime.strptime(stamp.date, _DATE_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError:
        return StampCheck(False, "date_format")
    age = (moment - stamp_time).total_seconds()
    if age > policy.max_stamp_age + policy.clock_skew:
        return StampCheck(False, "expired")
    if age < -policy.clock_skew:
        return StampCheck(False, "future_dated")
    if seen is not None:
        key = stamp.string()
        if key in seen:
            return StampCheck(False, "replayed")
        seen.add(key, moment.timestamp() + policy.max_stamp_age + policy.clock_skew)
    return StampCheck(True, "ok")


def negotiation_id_from(stamp: HashcashStamp) -> str:
    """Hex SHA-256 of the stamp string; names the negotiation and its resource."""
    return hashlib.sha256(stamp.string().encode("utf-8")).hexdigest()
