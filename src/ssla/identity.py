"""Party identities bound to public keys, plus message signing.

An identity is the SHA-256 digest of the party's public key in DER
SubjectPublicKeyInfo encoding, so any verifier can recompute it from the
key alone.  Certificate-bound identities are accepted on input but never
produced here.

The default signature scheme is RSA PKCS#1 v1.5 with SHA-256 over the
canonical byte serialization of the signed body.  Verification is much
cheaper than signing, which is what lets a responder validate a flood of
first-contact messages without committing real work.  PKCS#1 v1.5 is also
deterministic, which the reproducible-evidence tests rely on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from cryptography.exceptions import InvalidSignature as _CryptoBadSig
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .errors import MalformedKeyError, UnsupportedAlgorithmError

DEFAULT_ALGORITHM = "rsa-pkcs1v15-sha256"
DEFAULT_KEY_BITS = 2048

# Algorithm identifier registry; identifiers are carried in every signature
# so the scheme can evolve without breaking old evidence.
_ALGORITHMS = {
    "rsa-pkcs1v15-sha256": (padding.PKCS1v15(), hashes.SHA256),
}


class Binding(str, Enum):
    PUBLIC_KEY_HASH = "public_key_hash"
    CERTIFICATE = "certificate"


@dataclass(frozen=True)
class PartyIdentity:
    id_bytes: bytes
    binding: Binding = Binding.PUBLIC_KEY_HASH

    @cached_property
    def hex(self) -> str:
        return self.id_bytes.hex()

    @classmethod
    def from_hex(cls, text: str, binding: Binding = Binding.PUBLIC_KEY_HASH) -> "PartyIdentity":
        return cls(bytes.fromhex(text), binding)


@dataclass(frozen=True)
class Signature:
    algorithm: str
    value: bytes


def generate_keypair(bits: int = DEFAULT_KEY_BITS) -> rsa.RSAPrivateKey:
    return rsa.generate_private_key(public_exponent=65537, key_size=bits)


def public_key_encoding(public_key) -> bytes:
    """The documented encoding identities are derived from: DER SubjectPublicKeyInfo."""
    try:
        return public_key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
    except Exception as exc:
        raise MalformedKeyError(str(exc)) from exc


def derive_identity(public_key) -> PartyIdentity:
    """One-way hash of the public key; equal keys always give equal identities."""
    return PartyIdentity(hashlib.sha256(public_key_encoding(public_key)).digest())


def sign(body: bytes, private_key, algorithm: str = DEFAULT_ALGORITHM) -> Signature:
    pad, digest = _lookup(algorithm)
    try:
        value = private_key.sign(body, pad, digest())
    except AttributeError as exc:
        raise MalformedKeyError(f"not a private key: {exc}") from exc
    return Signature(algorithm, value)


def verify(body: bytes, signature: Signature, public_key) -> bool:
    pad, digest = _lookup(signature.algorithm)
    try:
        public_key.verify(signature.value, body, pad, digest())
    except _CryptoBadSig:
        return False
    except AttributeError as exc:
        raise MalformedKeyError(f"not a public key: {exc}") from exc
    return True


def _lookup(algorithm: str):
    try:
        return _ALGORITHMS[algorithm]
    except KeyError:
        raise UnsupportedAlgorithmError(f"unknown signature algorithm {algorithm!r}") from None


# --- key file helpers ------------------------------------------------------

def save_private_key(private_key, path) -> None:
    data = private_key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    )
    with open(path, "wb") as fh:
        fh.write(data)


def save_public_key(public_key, path) -> None:
    data = public_key.public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    )
    with open(path, "wb") as fh:
        fh.write(data)


def load_private_key(path) -> rsa.RSAPrivateKey:
    try:
        with open(path, "rb") as fh:
            return serialization.load_pem_private_key(fh.read(), password=None)
    except (OSError, ValueError, TypeError) as exc:
        raise MalformedKeyError(f"{path}: {exc}") from exc


def load_public_key(path):
    try:
        with open(path, "rb") as fh:
            return serialization.load_pem_public_key(fh.read())
    except (OSError, ValueError, TypeError) as exc:
        raise MalformedKeyError(f"{path}: {exc}") from exc


def public_key_to_wire(public_key) -> str:
    """Base64url DER encoding used to carry the sender's key inside messages."""
    import base64

    return base64.urlsafe_b64encode(public_key_encoding(public_key)).decode("ascii")


def public_key_from_wire(text: str):
    import base64

    try:
        der = base64.urlsafe_b64decode(text.encode("ascii"))
        return serialization.load_der_public_key(der)
    except Exception as exc:
        raise MalformedKeyError(f"bad wire key: {exc}") from exc
