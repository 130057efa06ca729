"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE --out DIR

MODE is `timed` (end-to-end timing only), `traced` (every layer probe
installed) or `wire` (untraced, with wire capture and the isolation
scan).  The child writes `latency.csv` and `summary.json` under
DIR/run and its measurements to DIR/record.json; a traced child also
writes its aggregated spans to DIR/spans.json.  Correctness checks run
after the timed window and are reported, not raised, so the parent can
say which sample failed and why.

`setup_s` and `run_s` are host-speed-corrected (see hostspeed.py); the
wall-clock spans are kept beside them as `setup_wall_s` and
`run_wall_s`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_PROBE_S, SpeedProbe
from layers import Patcher, Tracer
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "wire"))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    speed = SpeedProbe()
    speed.start()
    start = time.perf_counter()
    import pactsim
    from pactsim import config as config_module, identity, scenario
    from pactsim.simulation import Simulator

    checkout_src = (Path.cwd() / "src").resolve()
    if checkout_src not in Path(pactsim.__file__).resolve().parents:
        raise SystemExit(f"pactsim was imported from {pactsim.__file__}, not from {checkout_src}")

    marks: dict[str, float] = {}
    timing = Patcher()
    timing.replace(scenario, "assemble", lambda fn: _mark_after(fn, marks, "assembled"))
    timing.replace(Simulator, "run", lambda fn: _span_of_call(fn, marks, "run"))
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()

    cache_at_start = identity._verify_cached.cache_info().currsize
    try:
        config = config_module.config_from_dict(WORKLOADS[args.workload]["config"])
        out = args.out / "run"
        result = scenario.run_scenario(config, args.seed, out_dir=out, capture_wire=args.mode == "wire")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cache = identity._verify_cached.cache_info()

        from pactsim import audit

        findings = [
            f"{f.check} {f.node}: {f.detail}"
            for check in (audit.convergence, audit.member_state_consistency, audit.authorization_replay)
            for f in check(result)
        ]
        isolation_s = 0.0
        if args.mode == "wire":
            scan_start = time.perf_counter()
            findings += [f"{f.check} {f.node}: {f.detail}" for f in audit.isolation_scan(result)]
            isolation_s = time.perf_counter() - scan_start
    finally:
        speed.stop()
        if tracer is not None:
            tracer.remove()
        timing.restore()

    outputs = (out / "latency.csv").read_bytes() + (out / "summary.json").read_bytes()
    sim = simulated_metrics(result)
    failures = list(findings)
    if result.summary["safety_violations"]:
        failures.append(f"safety violations: {result.summary['safety_violations']}")
    if not result.completed:
        failures.append("run stopped before the workload completed")
    if sim["failed_ops"]:
        failures.append(f"{sim['failed_ops']} of {sim['attempted_ops']} operations failed")

    import cryptography
    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": speed.reference_seconds(start, marks["assembled"]),
        "run_s": speed.reference_seconds(*marks["run"]),
        "setup_wall_s": marks["assembled"] - start,
        "run_wall_s": marks["run"][1] - marks["run"][0],
        # Host speed during the run relative to the nominal host (>1 is faster).
        "host_speed": NOMINAL_PROBE_S / speed.probe_median_s(*marks["run"]),
        # The kernel keeps its fired-event count only in this attribute.
        "events": result.sim._fired,
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(outputs).hexdigest(),
        "verify_cache_at_start": cache_at_start,
        "verify_real": cache.misses,
        "isolation_s": isolation_s,
        "simulated": sim,
        "failures": failures,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cryptography": cryptography.__version__,
        },
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, result, cache)
        (args.out / "spans.json").write_text(json.dumps(tracer.dump(), indent=1) + "\n")
    (args.out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


def _mark_after(fn, marks: dict, key: str):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks[key] = time.perf_counter()
        return result

    return wrapper


def _span_of_call(fn, marks: dict, key: str):
    def wrapper(*args, **kwargs):
        begin = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks[key] = (begin, time.perf_counter())

    return wrapper


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of a percentile, the rule `summary.json` uses."""
    return max(1, math.ceil(pct * count / 100))


def tail(values: list[int]) -> dict | None:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 95, 90):
        beyond = len(ordered) - rank(len(ordered), pct)
        if beyond >= 10:
            return {"value": ordered[-beyond - 1], "percentile": pct, "beyond": beyond, "count": len(ordered)}
    return None


def reference_node(result):
    """The first node that is still alive; every alive node holds the same chain."""
    crashed = result.cluster.network.crashed
    return next(node for name, node in result.cluster.nodes.items() if name not in crashed)


def simulated_metrics(result) -> dict:
    """Virtual-time outcomes; a function of (config, seed) alone."""
    from pactsim.metrics import PRIVATE_KINDS, PUBLIC_KINDS

    samples = result.metrics.samples
    public = [s.latency_ms for s in samples if s.kind in PUBLIC_KINDS and s.latency_ms is not None]
    private = [s.latency_ms for s in samples if s.kind in PRIVATE_KINDS and s.latency_ms is not None]
    failed_receipts = sum(1 for e in reference_node(result).receipts.values() if not e.receipt.ok)
    op_failures = sum(len(n.private_op_failures) for n in result.cluster.nodes.values())
    failed_ops = result.summary["unresolved_samples"] + failed_receipts + op_failures
    heights = result.metrics.finalized_heights
    finals = [result.metrics.first_finalized_at(h) for h in range(1, heights + 1)]
    gaps = [b - a for a, b in zip(finals, finals[1:])]
    return {
        "attempted_ops": len(samples),
        "failed_ops": failed_ops,
        "failed_op_share": failed_ops / len(samples) if samples else None,
        "public_p50_ms": (result.summary["public"] or {}).get("p50_ms"),
        "public_tail_ms": tail(public),
        "private_p50_ms": (result.summary["private"] or {}).get("p50_ms"),
        "private_tail_ms": tail(private),
        "finality_gap_max_ms": max(gaps) if gaps else None,
        "blocks_finalized": heights,
    }


def layer_metrics(tracer, result, cache) -> dict[str, float]:
    """Per-layer counts and times from one traced run."""
    spans, groups, counters = tracer.spans, tracer.groups, tracer.counters
    network = result.cluster.network
    nodes = result.cluster.nodes.values()
    blocks = result.metrics.finalized_heights
    chain_txs = sum(len(b.txs) for b in reference_node(result).store.blocks)
    enclave = sorted(s.enclave_ms for s in result.metrics.samples if s.enclave_ms is not None)
    lookups = cache.hits + cache.misses
    messages = groups["consensus.handle"].outer_calls
    return {
        "simulation.events": result.sim._fired,
        "simulation.schedule_calls": spans["simulation.Simulator.schedule"].calls,
        "simulation.loop_self_s": spans["simulation.Simulator.run"].self_s,
        "simulation.sends": groups["simulation.send"].outer_calls,
        "simulation.send_s": groups["simulation.send"].outer_s,
        "simulation.latency_draws": groups["simulation.draw"].outer_calls,
        "simulation.draw_s": groups["simulation.draw"].outer_s,
        "simulation.delivered": network.delivered,
        "simulation.dropped": network.dropped_crash + network.dropped_partition,
        "identity.sign_calls": groups["identity.sign"].outer_calls,
        "identity.sign_s": groups["identity.sign"].outer_s,
        "identity.verify_calls": groups["identity.verify"].outer_calls,
        "identity.verify_s": groups["identity.verify"].outer_s,
        "identity.verify_real": cache.misses,
        "identity.verify_hit_ratio": cache.hits / lookups if lookups else 0.0,
        "encoding.enc_calls": groups["encoding.enc"].outer_calls,
        "encoding.bytes_out": groups["encoding.enc"].bytes_out,
        "encoding.enc_s": groups["encoding.enc"].outer_s,
        "encoding.dec_calls": groups["encoding.dec"].outer_calls,
        "encoding.dec_s": groups["encoding.dec"].outer_s,
        "ledger.tx_body_builds": spans["ledger.Transaction.body"].calls,
        "ledger.tx_encode_s": groups["ledger.tx_encode"].outer_s,
        "ledger.hash_block_calls": groups["ledger.hash_block"].outer_calls,
        "ledger.hash_block_s": groups["ledger.hash_block"].outer_s,
        "ledger.append_block_calls": groups["ledger.append_block"].outer_calls,
        "ledger.append_block_s": groups["ledger.append_block"].outer_s,
        "ledger.pool_add_calls": groups["ledger.pool_add"].outer_calls,
        "ledger.pool_select_calls": groups["ledger.pool_select"].outer_calls,
        "ledger.pool_select_s": groups["ledger.pool_select"].outer_s,
        "ledger.pool_remove_s": groups["ledger.pool_remove"].outer_s,
        "ledger.pool_depth_max": counters["pool_depth_max"],
        "ledger.txs_per_block": chain_txs / blocks if blocks else 0.0,
        "contracts.execute_calls": groups["contracts.execute"].outer_calls,
        "contracts.execute_s": groups["contracts.execute"].outer_s,
        "contracts.failed_receipts": counters["failed_receipts"],
        "contracts.private_apply_calls": groups["contracts.private_apply"].outer_calls,
        "contracts.private_apply_s": groups["contracts.private_apply"].outer_s,
        "consensus.messages": messages,
        "consensus.handle_s": groups["consensus.handle"].outer_s,
        "consensus.messages_per_block": messages / blocks if blocks else 0.0,
        "consensus.round_changes": counters["round_changes"],
        "consensus.dropped_invalid": sum(n.validator.dropped_invalid for n in nodes if n.validator is not None),
        "privacy.distribute_calls": groups["privacy.distribute"].outer_calls,
        "privacy.distribute_s": groups["privacy.distribute"].outer_s,
        "privacy.encrypt_bytes": counters["encrypt_bytes"],
        "privacy.enclave_open_calls": groups["privacy.open"].outer_calls,
        "privacy.open_s": groups["privacy.open"].outer_s,
        "privacy.enclave_ms_p50": enclave[rank(len(enclave), 50) - 1] if enclave else 0,
        "node.receive_tx_calls": groups["node.receive_tx"].outer_calls,
        "node.gossip_calls": groups["node.gossip"].outer_calls,
        "node.gossip_s": groups["node.gossip"].outer_s,
        "node.block_intake_s": groups["node.block_intake"].self_s,
        "node.private_op_failures": sum(len(n.private_op_failures) for n in nodes),
        "metrics.output_s": groups["metrics.output"].outer_s,
        "scenario.assemble_s": groups["scenario.assemble"].outer_s,
        "config.parse_s": groups["config.parse"].outer_s,
        "audit.s": groups["audit"].outer_s,
    }


if __name__ == "__main__":
    sys.exit(main())
