"""Dimensioned OID security expressions.

A security requirement, capability, or agreement entry is written as an
OID prefixed with one of four dimension names, ordered from least to most
concrete: ``Target < Risk < Function < Technique``.  OIDs of different
dimensions may be compounded with colons (``Risk.1.1.2:Function.19.12.2``)
as long as dimensions strictly increase left to right; the last segment is
the operative one.

Free text never appears in protocol payloads: dictionary labels exist for
display only.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DimensionMismatchError,
    DimensionOrderError,
    DuplicateOidError,
    ExpressionSyntaxError,
    FormatError,
)


class Dimension(IntEnum):
    """The four viewpoints, ordered least concrete to most concrete."""

    TARGET = 0
    RISK = 1
    FUNCTION = 2
    TECHNIQUE = 3

    @property
    def label(self) -> str:
        return _DIMENSION_LABELS[self]

    @classmethod
    def from_label(cls, name: str) -> "Dimension":
        try:
            return _DIMENSIONS_BY_LABEL[name]
        except KeyError:
            raise ExpressionSyntaxError(f"unknown dimension name: {name!r}") from None


_DIMENSION_LABELS = {
    Dimension.TARGET: "Target",
    Dimension.RISK: "Risk",
    Dimension.FUNCTION: "Function",
    Dimension.TECHNIQUE: "Technique",
}
_DIMENSIONS_BY_LABEL = {label: dim for dim, label in _DIMENSION_LABELS.items()}

# Arcs are unsigned decimal integers without leading zeros, so that
# parse/format round-trips are exact in both directions.
_ARC_RE = re.compile(r"^(0|[1-9][0-9]*)$")


@dataclass(frozen=True, order=True)
class Oid:
    """A single dimension-prefixed object identifier, e.g. ``Risk.1.1.2``.

    Ordering is dimension first, then the arc sequence compared
    element-wise; this is the tie-break order used wherever a deterministic
    choice among OIDs is needed.
    """

    dimension: Dimension
    arcs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.arcs:
            raise ExpressionSyntaxError("OID needs at least one arc")
        if any(a < 0 for a in self.arcs):
            raise ExpressionSyntaxError("OID arcs must be non-negative")

    def __str__(self) -> str:
        return self.dimension.label + "." + ".".join(str(a) for a in self.arcs)

    @classmethod
    def parse(cls, text: str) -> "Oid":
        parts = text.split(".")
        if len(parts) < 2:
            raise ExpressionSyntaxError(f"OID needs a dimension and arcs: {text!r}")
        dimension = Dimension.from_label(parts[0])
        arcs = []
        for part in parts[1:]:
            if not _ARC_RE.match(part):
                raise ExpressionSyntaxError(f"bad OID arc {part!r} in {text!r}")
            arcs.append(int(part))
        return cls(dimension, tuple(arcs))


@dataclass(frozen=True, order=True)
class SecurityExpression:
    """One vocabulary item, possibly compounded across dimensions."""

    segments: tuple[Oid, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ExpressionSyntaxError("expression needs at least one segment")
        dims = [s.dimension for s in self.segments]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise DimensionOrderError(
                "compound segments must have strictly increasing dimensions: "
                + ":".join(str(s) for s in self.segments)
            )

    def __str__(self) -> str:
        return ":".join(str(s) for s in self.segments)

    @property
    def operative(self) -> Oid:
        """The last (most concrete) segment; it drives matching."""
        return self.segments[-1]

    def extended(self, oid: Oid) -> "SecurityExpression":
        """This expression with one more, more-concrete segment appended."""
        return SecurityExpression(self.segments + (oid,))

    @classmethod
    def single(cls, oid: Oid) -> "SecurityExpression":
        return cls((oid,))


def parse_expression(text: str) -> SecurityExpression:
    """Parse canonical expression text, e.g. ``Risk.1.1.2:Function.19.12.2``.

    Raises ExpressionSyntaxError for malformed text and DimensionOrderError
    when compound segments repeat or reverse a dimension.
    """
    if not text:
        raise ExpressionSyntaxError("empty expression")
    return SecurityExpression(tuple(Oid.parse(seg) for seg in text.split(":")))


def effective_dimension(expr: SecurityExpression) -> Dimension:
    """Dimension of the last segment, the one negotiation logic operates on."""
    return expr.segments[-1].dimension


class SetRole(str, Enum):
    REQUIREMENT = "requirement"
    CAPABILITY = "capability"
    SSLA_ENTRY = "ssla_entry"


@dataclass(frozen=True)
class ExpressionSet:
    """An ordered, duplicate-free collection of expressions.

    Serializes to a plain list of canonical expression strings; order is
    preserved on round-trip.
    """

    role: SetRole
    items: tuple[SecurityExpression, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.items)) != len(self.items):
            raise FormatError("duplicate expression in set")

    def __iter__(self) -> Iterator[SecurityExpression]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, expr: SecurityExpression) -> bool:
        return expr in self.items

    @cached_property
    def _strings(self) -> tuple[str, ...]:
        # built once, so every message listing this set shares the strings
        return tuple(str(e) for e in self.items)

    def to_strings(self) -> list[str]:
        return list(self._strings)

    @classmethod
    def from_strings(cls, role: SetRole, texts: Iterable[str]) -> "ExpressionSet":
        return cls(role, tuple(parse_expression(t) for t in texts))


@dataclass(frozen=True)
class Dictionary:
    """Vocabulary of one dimension: OID -> display label."""

    dimension: Dimension
    entries: dict[Oid, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for oid in self.entries:
            if oid.dimension is not self.dimension:
                raise DimensionMismatchError(
                    f"{oid} does not belong in the {self.dimension.label} dictionary"
                )

    def __contains__(self, oid: Oid) -> bool:
        return oid in self.entries


def load_dictionary(document) -> Dictionary:
    """Load a dictionary from a JSON document (bytes, text, file object, or dict).

    Expected shape: ``{"dimension": "Risk", "entries": [{"oid": ..., "label": ...}]}``.
    """
    data = _load_json(document)
    if not isinstance(data, dict) or "dimension" not in data or "entries" not in data:
        raise FormatError("dictionary document needs 'dimension' and 'entries'")
    try:
        dimension = Dimension.from_label(data["dimension"])
    except ExpressionSyntaxError as exc:
        raise FormatError(str(exc)) from None
    if not isinstance(data["entries"], list):
        raise FormatError("'entries' must be a list")
    entries: dict[Oid, str] = {}
    for item in data["entries"]:
        if not isinstance(item, dict) or "oid" not in item or "label" not in item:
            raise FormatError(f"bad dictionary entry: {item!r}")
        try:
            oid = Oid.parse(item["oid"])
        except ExpressionSyntaxError as exc:
            raise FormatError(str(exc)) from None
        if oid in entries:
            raise DuplicateOidError(f"duplicate OID {oid}")
        if not isinstance(item["label"], str):
            raise FormatError(f"label for {oid} must be a string")
        entries[oid] = item["label"]
    return Dictionary(dimension, entries)


def _load_json(document):
    if isinstance(document, (dict, list)):
        return document
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            return json.loads(document)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from None
    if isinstance(document, io.IOBase) or hasattr(document, "read"):
        return _load_json(document.read())
    raise FormatError(f"cannot read document of type {type(document).__name__}")
