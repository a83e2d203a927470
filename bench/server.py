"""A child server process for the catalog-remote-http workload.

    python3 bench/server.py kb
    python3 bench/server.py negotiation --kb-url URL --seed N [--trace PATH]

``kb`` serves the synthetic catalog through ``KbService``.  ``negotiation``
serves a responder through ``NegotiationService``, backed by a
``RemoteKnowledgeBase`` on the KB server; a second responder, seeded with
the gate seed, answers under ``/gate``.  Both print ``READY <port>`` once
the socket is bound, and exit when their standard input closes.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssla import wire  # noqa: E402
from ssla.expression import ExpressionSet, SetRole  # noqa: E402
from ssla.hashcash import PowPolicy  # noqa: E402
from ssla.protocol import NegotiationParty, ProtocolPolicy  # noqa: E402
from ssla.service import (  # noqa: E402
    HttpTransport,
    KbService,
    NegotiationService,
    RemoteKnowledgeBase,
    serve_http,
)

from catalog import CATALOG_POW_BITS, Catalog  # noqa: E402
from fixtures import GATE_SEED, LogicalClock, load_key, seeded_hooks, state_sizes  # noqa: E402

GATE_PREFIX = "/gate"


def responder(kb, capabilities, seed: int):
    """A responder whose clock advances once per negotiation it creates."""
    clock = LogicalClock()
    party = NegotiationParty(
        private_key=load_key("sp"),
        kb=kb,
        requirements=ExpressionSet(SetRole.REQUIREMENT),
        capabilities=capabilities,
        policy=ProtocolPolicy(pow=PowPolicy(required_bits=CATALOG_POW_BITS)),
        provides_service=True,
        kb_uri="kb://catalog",
        hooks=seeded_hooks(seed, "sp", clock),
    )
    return party, NegotiationService(party), clock


class Router:
    """The responder's routes plus the benchmark's own control routes."""

    def __init__(self, kb, catalog: Catalog, seed: int, tracer, trace_path) -> None:
        caps = catalog.provider_capabilities
        self.party, self.service, self.clock = responder(kb, caps, seed)
        self.gate_party, self.gate_service, self.gate_clock = responder(kb, caps, GATE_SEED)
        self.tracer = tracer
        self.trace_path = trace_path
        self.next_op = None

    def handle(self, method, path, document):
        if path.startswith("/bench/"):
            # control replies are encoded outside any operation
            self.tracer.end_op()
            return 200, wire.make_document("bench.control", self.control(path, document)), {}
        if self.next_op is not None:
            self.tracer.begin_op(*self.next_op)
            self.next_op = None
        if path.startswith(GATE_PREFIX + "/"):
            service, clock, path = self.gate_service, self.gate_clock, path.removeprefix(GATE_PREFIX)
        else:
            service, clock = self.service, self.clock
        status, doc, headers = service.handle(method, path, document)
        if status == 201:
            clock.tick()
        return status, doc, headers

    def control(self, path, document) -> dict:
        if path == "/bench/op":
            # the operation starts with the next request
            self.next_op = (document["body"]["op"], document["body"]["kind"])
            return {}
        if path == "/bench/state":
            return state_sizes(self.party)
        if path == "/bench/records":
            return {n: self.party.records.get(n) for n in document["body"]["ids"]}
        if path == "/bench/gate-records":
            return self.gate_party.records
        if path == "/bench/summary":
            if self.trace_path:
                self.tracer.write(self.trace_path)
            return self.tracer.summary()
        raise ValueError(f"no control route {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("kb", "negotiation"))
    parser.add_argument("--kb-url")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", help="trace the responder and write its spans here")
    args = parser.parse_args(argv)

    catalog = Catalog()
    if args.role == "kb":
        server = serve_http(KbService(catalog.knowledge_base()))
    else:
        from tracing import Tracer, install

        tracer = Tracer()
        if args.trace:
            install(tracer)
        # its own hooks: sharing the party's would tie nonces to the KB request count
        kb = RemoteKnowledgeBase(
            HttpTransport(args.kb_url), seeded_hooks(args.seed, "sp-kb", LogicalClock())
        )
        server = serve_http(Router(kb, catalog, args.seed, tracer, args.trace))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    sys.stdin.read()  # the parent closes our stdin to stop us
    server.shutdown()
    server.server_close()
    thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
