"""The benchmark's three workloads.

Each workload builds its parties in ``__init__`` (the set-up that
``setup_s`` measures), then runs its timed phases in turn, cycle after
cycle, for the run's seconds, then the correctness gate:

* negotiate -- honest negotiations, closed loop (one client waits for each
  reply) or, in ``junk-flood``, an open loop on a fixed schedule;
* audit -- ``audit_record`` on the initiator's copy of each agreed record
  plus ``compare_evidence`` against the responder's copy;
* probe -- first-contact junk sent to the idle responder one at a time,
  for the workloads whose traffic carries none.

An operation fails when an honest negotiation does not reach its expected
outcome, an audit is not VALID or the copies differ, junk is not refused
with an error document or changes responder state, or an exception
escapes.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import ssla.audit as ssla_audit
from ssla import wire
from ssla.audit import AuditVerdict
from ssla.cli import drive_negotiation
from ssla.expression import ExpressionSet, SetRole
from ssla.hashcash import PowPolicy
from ssla.identity import derive_identity
from ssla.protocol import NegotiationParty, ProtocolPolicy
from ssla.service import HttpTransport, LoopbackTransport, NegotiationService, RemoteKnowledgeBase
from ssla.translation import load_seed_kb

from catalog import CATALOG_POW_BITS, Catalog, Draws
from fixtures import (
    GATE_SEED,
    JUNK_KINDS,
    SCENARIO_REQUIREMENTS,
    SCENARIO_SP_CAPS,
    SCENARIO_SSLA,
    SCENARIO_USER_CAPS,
    TIMESTAMP_PLACEHOLDER,
    USER_KEYS,
    Digest,
    JunkFactory,
    LogicalClock,
    RecordingTransport,
    load_key,
    rss_bytes,
    seeded_hooks,
    stamped,
    state_sizes,
)
from harness import open_loop_latencies
from tracing import AUDIT, NEGOTIATION

BENCH_DIR = Path(__file__).resolve().parent
GATE_NEGOTIATIONS = 4
MAX_REPORTED_FAILURES = 5

# junk-flood's fixed schedule, one period per cycle: a 20,000-entry junk
# message (the two kinds alternate), a burst of honest negotiations and
# one small junk message queued behind it, then, from QUIET_START_S on,
# honest negotiations with one small junk message halfway between each
# two, clear of the negotiation before it.  The burst is small beside the
# rest, so a median reads the unobstructed middle of the traffic.
PERIOD_S = 3.0
QUIET_START_S = 0.8
BURST_NEGOTIATIONS = 2
HONEST_PER_S = 10.0
SMALL_JUNK_PER_S = 10.0
SMALL_JUNK = ("garbage_stamp", "weak_stamp", "replayed_round1")
BIG_JUNK = ("unknown_oid_20k", "duplicate_oid_20k")
# junk sent to an idle responder in each closed-loop cycle
PROBE_JUNK = 25

# Seconds of each cycle given to each timed phase, in order.
CLOSED_LOOP_PHASES = {"negotiate": 0.85, "audit": 0.15, "probe": 0.0}
OPEN_LOOP_PHASES = {"negotiate": PERIOD_S, "audit": 0.5}
SPIN_NS = 2_000_000


class Results:
    """Samples and failure accounting for one run."""

    def __init__(self) -> None:
        self.negotiation_ns: list[int] = []
        self.audit_ns: list[int] = []
        self.junk_ns: list[int] = []
        self.lag_ns: list[int] = []
        # index of each cycle's first sample, per sample list
        self.cycle_starts: dict[str, list[int]] = {"negotiation": [], "audit": [], "junk": []}
        self.negotiate_wall_ns = 0
        self.completed = 0  # honest negotiations that reached their expected outcome
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reject_codes: Counter = Counter()

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(what)

    def start_cycle(self) -> None:
        for kind, starts in self.cycle_starts.items():
            starts.append(len(getattr(self, f"{kind}_ns")))


def party(key_name, kb, requirements, capabilities, bits, hooks, *, provides_service=False):
    return NegotiationParty(
        private_key=load_key(key_name),
        kb=kb,
        requirements=ExpressionSet.from_strings(SetRole.REQUIREMENT, requirements),
        capabilities=ExpressionSet.from_strings(SetRole.CAPABILITY, capabilities),
        policy=ProtocolPolicy(pow=PowPolicy(required_bits=bits)),
        provides_service=provides_service,
        kb_uri="kb://bench",
        hooks=hooks,
    )


def wait_until(due_ns: int) -> None:
    wait = due_ns - time.perf_counter_ns() - SPIN_NS
    if wait > 0:
        time.sleep(wait / 1e9)
    while time.perf_counter_ns() < due_ns:
        pass  # a virtual machine can wake a sleeper a millisecond late; spin the rest


def latest_negotiation_id(user) -> str:
    return next(reversed(user.states))


class Workload:
    """Shared phase loops; subclasses supply transports and junk delivery."""

    phases = CLOSED_LOOP_PHASES
    pow_bits = PowPolicy().required_bits  # the package default, 12
    remote_kb = False
    # Fixed tail percentile per sample kind: harness.tail_percentile of the
    # smallest sample count seen at the commit that defined the benchmark
    # (baseline.json has the counts), so every run reports the same one.
    tails = {"negotiation": 99.0, "junk": 95.0}

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.clock = LogicalClock()
        self.ops = 0
        self.negotiations = 0
        self.audits = 0
        self.probes = 0
        self.big_junk_left = list(BIG_JUNK)
        self.agreed: list[tuple] = []  # (user, negotiation id), in order
        self.record_pairs: list[tuple] = []  # (user, record, responder's copy)

    # --- hooks for subclasses -------------------------------------------------

    def pids(self) -> list[int]:
        return [os.getpid()]

    def begin_op(self, kind: str) -> None:
        self.ops += 1
        self.tracer.begin_op(self.ops, kind)

    def close(self) -> None:
        pass

    # --- phases ---------------------------------------------------------------

    def rss(self) -> int:
        return sum(rss_bytes(pid) for pid in self.pids())

    def run(self, seconds: float, results: Results) -> None:
        """Cycle through the phases, so each one samples the whole run.

        The machine's speed drifts over seconds; a phase run once in a
        block of its own would see only part of that drift.
        """
        for _ in range(max(1, round(seconds / sum(self.phases.values())))):
            results.start_cycle()
            for phase, phase_s in self.phases.items():
                getattr(self, phase)(time.perf_counter() + phase_s, results)
        self.tracer.end_op()

    def negotiate(self, deadline: float, results: Results) -> None:
        """Closed loop: the next negotiation starts when the last one ends."""
        start = previous = time.perf_counter_ns()
        while time.perf_counter() < deadline:
            user = self.next_user()
            results.lag_ns.append(time.perf_counter_ns() - previous)
            self.begin_op(NEGOTIATION)
            began = time.perf_counter_ns()
            ok, what = self.one_negotiation(user)
            previous = time.perf_counter_ns()
            results.negotiation_ns.append(previous - began)
            results.outcome(ok, what)
            results.completed += ok
        results.negotiate_wall_ns += previous - start

    def one_negotiation(self, user) -> tuple[bool, str]:
        try:
            outcome, detail = drive_negotiation(user, self.sp_hex, self.transport)
        except Exception as exc:  # an escaping exception is a failed operation
            return False, f"negotiation raised {exc!r}"
        finally:
            self.clock.tick()
        negotiation_id = latest_negotiation_id(user)
        self.tracer.negotiation_ids[self.ops] = negotiation_id
        return self.check_outcome(user, negotiation_id, outcome, detail)

    def audit(self, deadline: float, results: Results) -> None:
        self.record_pairs.extend(self.new_record_pairs())
        pairs = self.record_pairs
        while pairs and time.perf_counter() < deadline:
            user, record, responder_copy = pairs[self.audits % len(pairs)]
            self.audits += 1
            self.begin_op(AUDIT)
            began = time.perf_counter_ns()
            try:
                report = ssla_audit.audit_record(record, user.public_key, self.sp_public_key)
                same = ssla_audit.compare_evidence(record, responder_copy)
            except Exception as exc:
                results.audit_ns.append(time.perf_counter_ns() - began)
                results.outcome(False, f"audit raised {exc!r}")
                continue
            results.audit_ns.append(time.perf_counter_ns() - began)
            results.outcome(
                report.verdict is AuditVerdict.VALID and same,
                f"audit {report.verdict.value}, copies identical: {same}",
            )

    def probe(self, deadline: float, results: Results) -> None:
        """PROBE_JUNK small junk messages back to back to the idle responder,
        then, in the first cycles, one 20,000-entry message; each is timed
        from its send.  The count, not the deadline, ends the phase: pacing
        them would leave the CPU idle between sends, and a virtual machine
        then times its own wake-up."""
        kinds = [SMALL_JUNK[(self.probes + i) % len(SMALL_JUNK)] for i in range(PROBE_JUNK)]
        self.probes += PROBE_JUNK
        if self.big_junk_left:
            kinds.append(self.big_junk_left.pop(0))
        for kind in kinds:
            sent, done = self.junk(kind, results)
            results.junk_ns.append(done - sent)

    def junk(self, kind: str, results: Results) -> tuple[int, int]:
        """Send one junk message and check that it was refused and changed nothing.

        Returns when it was sent and when the reply arrived; the state checks
        on either side are not part of that interval.
        """
        self.begin_op(f"junk:{kind}")
        before = self.responder_state()
        sent = time.perf_counter_ns()
        try:
            reply = self.send_junk(kind)
        except Exception as exc:
            done = time.perf_counter_ns()
            results.outcome(False, f"junk {kind} raised {exc!r}")
            return sent, done
        done = time.perf_counter_ns()
        refused = reply.get("type") == "error"
        if refused:
            results.reject_codes[reply["body"]["code"]] += 1
        after = self.responder_state()
        results.outcome(
            refused and before == after,
            f"junk {kind}: reply {reply.get('type')!r}, state {before} -> {after}",
        )
        return sent, done

    def replay_document(self) -> dict:
        user, negotiation_id = self.agreed[-1]
        return user.records[negotiation_id]["body"]["transcript"][0]


class LoopbackWorkload(Workload):
    """An in-process responder on the seed KB, at the default 12 PoW bits."""

    def __init__(self, seed: int, tracer) -> None:
        super().__init__(tracer)
        kb = load_seed_kb()
        self.users = [
            party(name, kb, SCENARIO_REQUIREMENTS, SCENARIO_USER_CAPS, self.pow_bits,
                  seeded_hooks(seed, name, self.clock))
            for name in USER_KEYS
        ]
        self.sp = party("sp", kb, [], SCENARIO_SP_CAPS, self.pow_bits,
                        seeded_hooks(seed, "sp", self.clock), provides_service=True)
        self.sp_hex = self.sp.identity.hex
        self.sp_public_key = self.sp.public_key
        self.transport = LoopbackTransport(NegotiationService(self.sp))
        factory = JunkFactory(seed, self.sp_hex, self.pow_bits, SCENARIO_REQUIREMENTS, SCENARIO_SP_CAPS, self.clock)
        self.junk_docs = factory.build(variants=2)
        self.junk_sent = Counter()

    def next_user(self):
        self.negotiations += 1
        return self.users[self.negotiations % len(self.users)]

    def check_outcome(self, user, negotiation_id, outcome, detail):
        if outcome != "agreed":
            return False, f"hotspot negotiation {outcome}: {detail}"
        self.agreed.append((user, negotiation_id))
        entries = user.records[negotiation_id]["body"]["agreed_entries"]
        return entries == SCENARIO_SSLA, f"hotspot agreed on {entries}"

    def new_record_pairs(self):
        fresh = self.agreed[len(self.record_pairs):]
        return [(u, u.records[n], self.sp.records[n]) for u, n in fresh]

    def responder_state(self) -> dict:
        return state_sizes(self.sp)

    def send_junk(self, kind: str) -> dict:
        if kind == "replayed_round1":
            document = self.replay_document()
        else:
            variants = self.junk_docs[kind]
            document = stamped(variants[self.junk_sent[kind] % len(variants)], self.sp.hooks.timestamp())
            self.junk_sent[kind] += 1
        _, reply, _ = self.transport.request("POST", "/negotiations", document)
        return reply

    def gate(self, digest: Digest) -> list[str]:
        """Fixed-seed negotiations; every reply and record goes into the digest."""
        clock = LogicalClock()
        kb = self.sp.kb
        sp = party("sp", kb, [], SCENARIO_SP_CAPS, self.pow_bits,
                   seeded_hooks(GATE_SEED, "sp", clock), provides_service=True)
        transport = RecordingTransport(LoopbackTransport(NegotiationService(sp)), digest)
        users = [
            party(name, kb, SCENARIO_REQUIREMENTS, SCENARIO_USER_CAPS, self.pow_bits,
                  seeded_hooks(GATE_SEED, name, clock))
            for name in USER_KEYS
        ]
        problems = []
        for i in range(GATE_NEGOTIATIONS):
            user = users[i % len(users)]
            outcome, _ = drive_negotiation(user, sp.identity.hex, transport)
            clock.tick()
            if outcome != "agreed":
                problems.append(f"gate negotiation {i} {outcome}")
                continue
            negotiation_id = latest_negotiation_id(user)
            record = user.records[negotiation_id]
            digest.add(record)
            problems += check_record_pair(record, sp.records[negotiation_id], user, sp.public_key)
            if record["body"]["agreed_entries"] != SCENARIO_SSLA:
                problems.append(f"gate negotiation {i} agreed on {record['body']['agreed_entries']}")
            self.gate_junk(sp, transport.inner, clock, problems)
        return problems

    def gate_junk(self, sp, transport, clock, problems) -> None:
        """Nothing to do between gate negotiations unless the workload carries junk."""


class HotspotLoopback(LoopbackWorkload):
    name = "hotspot-loopback"


class JunkFlood(LoopbackWorkload):
    name = "junk-flood"
    phases = OPEN_LOOP_PHASES
    tails = {"negotiation": 95.0, "junk": 95.0}

    periods = 0  # schedule periods run so far

    @staticmethod
    def schedule(period: int) -> list[tuple[float, str]]:
        """One period of the fixed schedule: (seconds into the period, kind), in due order.

        A 20,000-entry junk message opens the period with a burst queued
        right behind it; the rest of the traffic arrives at fixed rates once
        the burst has drained, even on a slow machine.  So the tail
        percentiles measure a full head-of-line wait, and the medians an
        unobstructed request, rather than a partial wait that would swing
        with the machine's speed.
        """
        items = [(0.0, BIG_JUNK[period % len(BIG_JUNK)])]
        burst = [NEGOTIATION] * BURST_NEGOTIATIONS + [SMALL_JUNK[period % len(SMALL_JUNK)]]
        items += [((i + 1) * 1e-3, kind) for i, kind in enumerate(burst)]
        quiet_s = PERIOD_S - QUIET_START_S
        items += [
            (QUIET_START_S + i / HONEST_PER_S, NEGOTIATION) for i in range(round(quiet_s * HONEST_PER_S))
        ]
        items += [
            (QUIET_START_S + (i + 0.5) / SMALL_JUNK_PER_S, SMALL_JUNK[i % len(SMALL_JUNK)])
            for i in range(round(quiet_s * SMALL_JUNK_PER_S))
        ]
        return sorted(items)

    def negotiate(self, deadline: float, results: Results) -> None:
        """Open loop: one period of the schedule, each item sent at its due
        time or as soon as the loop is free, timed from its due time."""
        items = self.schedule(self.periods)
        self.periods += 1
        start = time.perf_counter_ns()
        due, sent, done = [], [], []
        for due_s, kind in items:
            due.append(start + int(due_s * 1e9))
            wait_until(due[-1])
            if kind == NEGOTIATION:
                user = self.next_user()
                self.begin_op(NEGOTIATION)
                sent.append(time.perf_counter_ns())
                ok, what = self.one_negotiation(user)
                done.append(time.perf_counter_ns())
                results.outcome(ok, what)
                results.completed += ok
            else:
                item_sent, item_done = self.junk(kind, results)
                sent.append(item_sent)
                done.append(item_done)
        latency, lag = open_loop_latencies(due, sent, done)
        for (_, kind), value in zip(items, latency):
            (results.negotiation_ns if kind == NEGOTIATION else results.junk_ns).append(value)
        results.lag_ns.extend(lag)
        wait_until(start + int(PERIOD_S * 1e9))
        results.negotiate_wall_ns += time.perf_counter_ns() - start

    def gate_junk(self, sp, transport, clock, problems) -> None:
        """One of each junk kind after every gate negotiation; only its refusal is checked."""
        if not hasattr(self, "gate_junk_docs"):
            factory = JunkFactory(GATE_SEED, sp.identity.hex, self.pow_bits,
                                  SCENARIO_REQUIREMENTS, SCENARIO_SP_CAPS, clock)
            self.gate_junk_docs = factory.build(variants=1)
        for kind in JUNK_KINDS:
            if kind == "replayed_round1":
                document = list(sp.records.values())[-1]["body"]["transcript"][0]
            else:
                document = stamped(self.gate_junk_docs[kind][0], sp.hooks.timestamp())
            before = state_sizes(sp)
            _, reply, _ = transport.request("POST", "/negotiations", document)
            if reply["type"] != "error" or state_sizes(sp) != before:
                problems.append(f"gate junk {kind} was not refused cleanly")


class CatalogRemoteHttp(Workload):
    """Responder and KB in child processes behind serve_http, at 0 PoW bits."""

    name = "catalog-remote-http"
    pow_bits = CATALOG_POW_BITS
    remote_kb = True
    tails = {"negotiation": 95.0, "junk": 95.0}

    def __init__(self, seed: int, tracer, trace_path=None) -> None:
        super().__init__(tracer)
        self.children = []
        self.traced = trace_path is not None
        self.kb_url = self.start_child(["kb"])
        child_args = ["negotiation", "--kb-url", self.kb_url, "--seed", str(seed)]
        if trace_path is not None:
            child_args += ["--trace", str(trace_path)]
        self.url = self.start_child(child_args)
        self.catalog = Catalog()
        # the KB client gets hooks of its own, so its request count cannot
        # shift the parties' nonces
        self.kb = RemoteKnowledgeBase(
            HttpTransport(self.kb_url), seeded_hooks(seed, "user-kb", LogicalClock())
        )
        self.users = [
            party(name, self.kb, [], [], self.pow_bits, seeded_hooks(seed, name, self.clock))
            for name in USER_KEYS
        ]
        self.sp_public_key = load_key("sp").public_key()
        self.sp_hex = derive_identity(self.sp_public_key).hex
        self.transport = HttpTransport(self.url)
        self.host, self.port = self.transport.host, self.transport.port
        sp_caps = self.catalog.provider_capabilities
        self.draws = Draws(self.catalog, sp_caps, seed)
        self.junk_bytes = self.encode_junk(seed, sp_caps)
        self.junk_sent = Counter()

    def start_child(self, args) -> str:
        child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.children.append(child)
        line = child.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError(f"server {args[0]} did not start")
        return f"http://127.0.0.1:{line[1]}"

    def close(self) -> None:
        for child in self.children:
            child.stdin.close()
        for child in self.children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self.children = []

    def pids(self) -> list[int]:
        return [os.getpid()] + [c.pid for c in self.children]

    def encode_junk(self, seed, sp_caps) -> dict:
        small = [str(f) for f in self.draws.satisfiable_functions[:3]]
        factory = JunkFactory(seed, self.sp_hex, self.pow_bits, small, sp_caps.to_strings(), self.clock)
        return {
            kind: [wire.canonical_bytes(d) for d in docs]
            for kind, docs in factory.build(variants=2).items()
        }

    def control(self, method: str, path: str, body=None) -> dict:
        """A request to the server's benchmark routes, traced under no operation."""
        op = self.tracer.op
        self.tracer.end_op()
        try:
            document = wire.make_document("bench.control", body) if body is not None else None
            status, reply, _ = self.transport.request(method, path, document)
        finally:
            self.tracer.op = op
        if status != 200:
            raise RuntimeError(f"control request {path} failed: {status}")
        return reply["body"]

    def begin_op(self, kind: str) -> None:
        if self.traced:
            self.control("POST", "/bench/op", {"op": self.ops + 1, "kind": kind})
        super().begin_op(kind)

    def next_user(self):
        self.negotiations += 1
        user = self.users[self.negotiations % len(self.users)]
        user.requirements, user.capabilities = self.draws.next()
        return user

    def check_outcome(self, user, negotiation_id, outcome, detail):
        if outcome == "agreed":
            self.agreed.append((user, negotiation_id))
            return True, ""
        if outcome == "cancelled":
            return detail["type"] == "ssla.cancel", f"cancelled without a cancel: {detail}"
        return False, f"catalog negotiation ended in {outcome}: {detail}"

    def new_record_pairs(self):
        fresh = self.agreed[len(self.record_pairs):]
        copies = self.control("POST", "/bench/records", {"ids": [n for _, n in fresh]})
        return [(u, u.records[n], copies.get(n)) for u, n in fresh]

    def responder_state(self) -> dict:
        return self.control("GET", "/bench/state")

    def send_junk(self, kind: str) -> dict:
        if kind == "replayed_round1":
            payload = wire.canonical_bytes(self.replay_document())
        else:
            variants = self.junk_bytes[kind]
            payload = variants[self.junk_sent[kind] % len(variants)].replace(
                TIMESTAMP_PLACEHOLDER.encode(), self.users[0].hooks.timestamp().encode(), 1
            )
            self.junk_sent[kind] += 1
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("POST", "/negotiations", body=payload,
                               headers={"Content-Type": "application/json"})
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def gate(self, digest: Digest) -> list[str]:
        clock = LogicalClock()
        transport = RecordingTransport(HttpTransport(self.url + "/gate"), digest)
        draws = Draws(self.catalog, self.catalog.provider_capabilities, GATE_SEED)
        users = [
            party(name, self.kb, [], [], self.pow_bits, seeded_hooks(GATE_SEED, name, clock))
            for name in USER_KEYS
        ]
        problems, agreed = [], []
        for i in range(3 * GATE_NEGOTIATIONS):
            user = users[i % len(users)]
            user.requirements, user.capabilities = draws.next()
            outcome, _ = drive_negotiation(user, self.sp_hex, transport)
            clock.tick()
            if outcome == "agreed":
                negotiation_id = latest_negotiation_id(user)
                agreed.append((user, negotiation_id))
                digest.add(user.records[negotiation_id])
            elif outcome != "cancelled":
                problems.append(f"gate negotiation {i} ended in {outcome}")
        responder_copies = self.control("GET", "/bench/gate-records")
        for user, negotiation_id in agreed:
            problems += check_record_pair(
                user.records[negotiation_id], responder_copies.get(negotiation_id), user, self.sp_public_key
            )
        return problems

    def trace_summary(self) -> dict:
        return self.control("GET", "/bench/summary")


def check_record_pair(record, responder_copy, user, sp_public_key) -> list[str]:
    problems = []
    if responder_copy is None or not ssla_audit.compare_evidence(record, responder_copy):
        problems.append("the two parties' records differ")
    report = ssla_audit.audit_record(record, user.public_key, sp_public_key)
    if report.verdict is not AuditVerdict.VALID:
        problems.append(f"gate record audits {report.verdict.value}")
    return problems


WORKLOADS = {w.name: w for w in (HotspotLoopback, CatalogRemoteHttp, JunkFlood)}
