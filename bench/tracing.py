"""Timing spans around the public functions of each ``ssla`` module.

The wrappers live here, not in the package: ``install`` rebinds each
function at every place it is looked up (modules import functions by
name, so ``ssla.protocol.sign`` and ``ssla.identity.sign`` are separate
bindings).  Every span records its name, start, end, enclosing span and
the benchmark operation it ran under; the operation table maps an
operation to its kind and negotiation ID.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import http.client
import threading
import time
from collections import defaultdict

from harness import self_times

# Operation kinds besides the junk kinds, which are "junk:<name>".
NEGOTIATION = "negotiation"
AUDIT = "audit"


class Tracer:
    def __init__(self) -> None:
        # one record per span: [name, start_ns, end_ns, parent record, op]
        self.spans: list[list] = []
        self.op = -1  # operation the next span belongs to; -1 is set-up or teardown
        self.op_kind: dict[int, str] = {}
        self.negotiation_ids: dict[int, str] = {}
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self.translate_keys: dict[int, set] = defaultdict(set)
        self._local = threading.local()

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self.op_kind[op] = kind

    def end_op(self) -> None:
        self.op = -1

    def count(self, name: str, value: int = 1) -> None:
        self.counters[(self.op, name)] += value

    def wrap(self, name, fn, note=None):
        """Return ``fn`` timed as a span; ``name`` may be a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            label = name(args) if callable(name) else name
            record = [label, 0, 0, stack[-1] if stack else None, tracer.op]
            tracer.spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if note is not None:
                note(tracer, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per operation kind: span count, total and self nanoseconds by name."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        starts = [r[1] for r in self.spans]
        ends = [r[2] for r in self.spans]
        parents = [index[id(r[3])] if r[3] is not None else -1 for r in self.spans]
        own = self_times(starts, ends, parents)
        spans: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        parsed_ops = set()
        for record, self_ns in zip(self.spans, own):
            op = record[4]
            if op < 0:
                continue
            entry = spans[self.op_kind[op]][record[0]]
            entry[0] += 1
            entry[1] += record[2] - record[1]
            entry[2] += self_ns
            if record[0] == "expression.parse":
                parsed_ops.add(op)
        counters: dict = defaultdict(lambda: defaultdict(int))
        for (op, name), value in self.counters.items():
            if op >= 0:
                counters[self.op_kind[op]][name] += value
        keys: dict = defaultdict(set)
        for op, op_keys in self.translate_keys.items():
            if op >= 0:
                keys[self.op_kind[op]] |= op_keys
        return {
            "spans": {kind: dict(by_name) for kind, by_name in spans.items()},
            "counters": {kind: dict(by_name) for kind, by_name in counters.items()},
            "parsed_ops": sorted(parsed_ops),
            "translate_keys": {kind: [list(k) for k in sorted(ks)] for kind, ks in keys.items()},
        }

    def write(self, path) -> None:
        """Write every span as a tab-separated line, operations first."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for op, kind in sorted(self.op_kind.items()):
                fh.write(f"op\t{op}\t{kind}\t{self.negotiation_ids.get(op, '')}\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                parent_index = index[id(parent)] if parent is not None else -1
                fh.write(f"span\t{i}\t{name}\t{start}\t{end}\t{parent_index}\t{op}\n")


def merge_summaries(summaries) -> dict:
    """Combine the summaries of the benchmark process and its servers."""
    spans: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    counters: dict = defaultdict(lambda: defaultdict(int))
    keys: dict = defaultdict(set)
    parsed_ops: set = set()
    for summary in summaries:
        for kind, by_name in summary["spans"].items():
            for name, (count, total, own) in by_name.items():
                entry = spans[kind][name]
                entry[0] += count
                entry[1] += total
                entry[2] += own
        for kind, by_name in summary["counters"].items():
            for name, value in by_name.items():
                counters[kind][name] += value
        for kind, kind_keys in summary["translate_keys"].items():
            keys[kind] |= {tuple(k) for k in kind_keys}
        parsed_ops.update(summary["parsed_ops"])
    return {"spans": spans, "counters": counters, "translate_keys": keys, "parsed_ops": parsed_ops}


def _note_translate(tracer, args, result):
    tracer.translate_keys[tracer.op].add((str(args[1]), args[2].label))


def _note_encoded(tracer, args, result):
    tracer.count("wire.bytes_encoded", len(result))


def _note_mint(tracer, args, result):
    tracer.count("hashcash.mint_hashes", int(result.counter) + 1)


def _request_route(args):
    return "service.request.negotiations" if args[2] == "/negotiations" else "service.request.negotiation"


def install(tracer: Tracer) -> None:
    """Wrap every traced function where the package looks it up.

    Only processes that host a party are traced.  A KB server's work shows
    as ``service.kb_request`` time on the party that asked; tracing the
    server's translations as well would count each remote one twice.
    """
    from ssla import audit, decision, expression, protocol, service, translation, wire

    def patch(owner, attr, name, note=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    for owner in (expression, protocol, service, audit):
        patch(owner, "parse_expression", "expression.parse")
    patch(translation.KnowledgeBase, "translate", "translation.translate", _note_translate)
    patch(service.RemoteKnowledgeBase, "translate", "translation.translate", _note_translate)
    patch(service.RemoteKnowledgeBase, "translate_set", "service.kb_request")
    patch(protocol, "decide_set", "decision.decide_set")
    for owner in (protocol, decision):
        patch(owner, "build_counterproposal", "decision.counterproposal")
    for owner in (protocol, service):
        patch(owner, "sign", "identity.sign")
    for owner in (protocol, audit):
        patch(owner, "verify", "identity.verify")
        patch(owner, "derive_identity", "identity.key_decode")
    patch(protocol, "public_key_from_wire", "identity.key_decode")
    patch(wire, "signing_bytes", "wire.signing_bytes")
    patch(wire, "canonical_bytes", "wire.canonical_bytes", _note_encoded)
    patch(protocol, "mint", "hashcash.mint", _note_mint)
    patch(protocol, "verify_stamp", "hashcash.verify_stamp")
    for method in ("receive", "receive_proposal", "receive_confirmation", "receive_cancel"):
        patch(protocol.NegotiationParty, method, "protocol.receive")
    patch(service.NegotiationService, "handle", _request_route)
    patch(audit, "audit_record", "audit.audit_record")
    patch(http.client.HTTPConnection, "connect", "service.tcp_connect")
