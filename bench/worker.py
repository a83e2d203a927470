"""One benchmark process: set up a workload, run its timed phases, gate.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints one JSON object as its last line.  ``run.py`` starts it, so each
run's memory growth is taken in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fixtures import JUNK_KINDS, Digest  # noqa: E402
from harness import cycle_median, percentile  # noqa: E402
from tracing import AUDIT, NEGOTIATION, Tracer, install, merge_summaries  # noqa: E402
from workloads import WORKLOADS, Results  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
REJECT_CODES = (
    "invalid_pow", "unknown_oid", "format", "replayed_nonce", "malformed_document",
    "invalid_signature", "state_violation", "stale_timestamp",
)

# Spans reported as "<span>_calls" (count) and "<span>_us" (inclusive
# time), both per operation.
CALLS_AND_US = (
    "expression.parse",
    "translation.translate",
    "decision.decide_set",
    "identity.sign",
    "identity.verify",
    "wire.signing_bytes",
    "wire.canonical_bytes",
)
US_ONLY = {
    "decision.counterproposal_us": "decision.counterproposal",
    "identity.key_decode_us": "identity.key_decode",
    "hashcash.mint_us": "hashcash.mint",
    "hashcash.verify_stamp_us": "hashcash.verify_stamp",
    "service.request_us.negotiations": "service.request.negotiations",
    "service.request_us.negotiation": "service.request.negotiation",
}


def p50(results, kind: str) -> float:
    return cycle_median(getattr(results, f"{kind}_ns"), results.cycle_starts[kind])


def end_to_end(workload, results, rss_growth: int) -> dict:
    tails = workload.tails
    return {
        "negotiation_p50_ms": (p50(results, "negotiation") / 1e6, "ms"),
        "negotiation_tail_ms": (percentile(results.negotiation_ns, tails["negotiation"]) / 1e6, "ms"),
        "negotiations_per_s": (results.completed / (results.negotiate_wall_ns / 1e9), "1/s"),
        "audit_p50_ms": (p50(results, "audit") / 1e6, "ms"),
        "junk_reject_p50_us": (p50(results, "junk") / 1e3, "us"),
        "junk_reject_tail_us": (percentile(results.junk_ns, tails["junk"]) / 1e3, "us"),
        "rss_growth_mb": (rss_growth / 2**20, "MB"),
    }


def per_layer(workload, tracer, summary, results, state) -> dict:
    """Per negotiation, or per junk message in junk-flood, from the traced run."""
    ops_by_kind: dict = {}
    for op, kind in tracer.op_kind.items():
        ops_by_kind.setdefault(kind, []).append(op)
    junk_kinds = [k for k in ops_by_kind if k.startswith("junk:")]
    if workload.name == "junk-flood":
        kinds = [NEGOTIATION] + junk_kinds
        per = sum(len(ops_by_kind[k]) for k in junk_kinds)
    else:
        kinds = [NEGOTIATION]
        per = len(ops_by_kind.get(NEGOTIATION, ()))
    per = max(per, 1)

    def span(name, field, kind_list=kinds):
        return sum(summary["spans"].get(k, {}).get(name, (0, 0, 0))[field] for k in kind_list)

    def counter(name):
        return sum(summary["counters"].get(k, {}).get(name, 0) for k in kinds)

    out = {}
    for name in CALLS_AND_US:
        out[f"{name}_calls"] = (span(name, 0) / per, "count")
        out[f"{name}_us"] = (span(name, 1) / per / 1e3, "us")
    for metric, name in US_ONLY.items():
        out[metric] = (span(name, 1) / per / 1e3, "us")
    translations = span("translation.translate", 0)
    distinct = set().union(*(summary["translate_keys"].get(k, set()) for k in kinds))
    out["translation.distinct_share"] = (len(distinct) / translations if translations else 0.0, "ratio")
    out["wire.bytes_encoded"] = (counter("wire.bytes_encoded") / per, "bytes")
    out["hashcash.mint_hashes"] = (counter("hashcash.mint_hashes") / per, "count")
    out["protocol.receive_us"] = (span("protocol.receive", 2) / per / 1e3, "us")
    out["protocol.states_held"] = (state["states"], "count")
    out["protocol.records_held"] = (state["records"], "count")
    out["protocol.replay_set_size"] = (state["replays"], "count")
    kb_span = "service.kb_request" if workload.remote_kb else "translation.translate"
    out["service.kb_requests"] = (span(kb_span, 0) / per, "count")
    out["service.kb_request_us"] = (span(kb_span, 1) / per / 1e3, "us")
    out["service.tcp_connects"] = (span("service.tcp_connect", 0) / per, "count")

    def shed_share(kind_list):
        ops = [op for k in kind_list for op in ops_by_kind.get(k, ())]
        if not ops:
            return 0.0
        return sum(op not in summary["parsed_ops"] for op in ops) / len(ops)

    out["service.shed_before_parse_share"] = (shed_share(junk_kinds), "ratio")
    for kind in JUNK_KINDS:
        out[f"service.shed_before_parse_share.{kind}"] = (shed_share([f"junk:{kind}"]), "ratio")
    for code in REJECT_CODES:
        out[f"service.reject_codes.{code}"] = (results.reject_codes.get(code, 0), "count")
    out["service.reject_codes.other"] = (
        sum(n for code, n in results.reject_codes.items() if code not in REJECT_CODES), "count"
    )
    audits = max(len(ops_by_kind.get(AUDIT, ())), 1)
    out["audit.audit_us"] = (span("audit.audit_record", 1, [AUDIT]) / audits / 1e3, "us")
    out["audit.verify_calls"] = (span("identity.verify", 0, [AUDIT]) / audits, "count")
    out["bench.generator_lag_p99_ms"] = (percentile(results.lag_ns, 99) / 1e6, "ms")
    out["bench.error_rate"] = (results.failed / max(results.attempted, 1), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    trace_files = {}
    if args.trace:
        install(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        trace_files = {
            role: OUT_DIR / f"spans-{args.workload}-{role}.tsv" for role in ("bench", "responder")
        }
    cls = WORKLOADS[args.workload]
    if cls.remote_kb:
        workload = cls(args.seed, tracer, trace_files.get("responder"))
    else:
        workload = cls(args.seed, tracer)
    try:
        setup_done_ns = time.monotonic_ns()
        out = {"workload": args.workload, "setup_done_ns": setup_done_ns}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        rss_before = workload.rss()
        results = Results()
        workload.run(args.seconds, results)
        rss_growth = workload.rss() - rss_before
        state = workload.responder_state()
        digest = Digest()
        problems = workload.gate(digest)
        summaries = [tracer.summary()]
        if args.trace and workload.remote_kb:
            summaries.append(workload.trace_summary())
        if args.trace:
            tracer.write(trace_files["bench"])
    finally:
        workload.close()

    metrics = end_to_end(workload, results, rss_growth)
    if args.trace:
        metrics.update(per_layer(workload, tracer, merge_summaries(summaries), results, state))
    out.update(
        attempted=results.attempted,
        failed=results.failed,
        failures=results.failures,
        gate_problems=problems,
        gate_digest=digest.hexdigest(),
        samples={
            "negotiation": len(results.negotiation_ns),
            "audit": len(results.audit_ns),
            "junk": len(results.junk_ns),
        },
        tails=workload.tails,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
