"""pactsim benchmark: host time to simulate three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pactsim checkout.  Times are host-speed-corrected
(hostspeed.py); the uncorrected wall clock is printed beside them.
Every sample is a fresh
interpreter (`child.py`) run one at a time, so no sample inherits the
process-wide signature-verification cache of another.  With `--trace 0`
the benchmark starts timed samples until the next one would likely end
after S seconds (at least three) and reports the end-to-end metrics.  With
`--trace 1` it spends a third of S on untraced samples (at least
three), then makes two traced runs with every layer probe installed
and one untraced run with wire capture for the isolation scan, and
reports the per-layer metrics.  The last line of standard output is one JSON object with
`correct`, `attempted` (simulator runs made), `failed` (runs that
failed a check) and `metrics`.  See README.md for the workloads, the
metrics and what each layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_TIMED = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 120

# End-to-end metrics measured on the host; these go into the JSON line.
HOST_METRICS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# End-to-end metrics in virtual time.  They are a function of
# (config, seed) alone, so they are printed and checked for equality
# across runs but carry no host-time signal.
SIMULATED_METRICS = (
    ("failed_op_share", "ratio"),
    ("public_p50_ms", "sim-ms"),
    ("public_tail_ms", "sim-ms"),
    ("private_p50_ms", "sim-ms"),
    ("private_tail_ms", "sim-ms"),
    ("finality_gap_max_ms", "sim-ms"),
)

LAYER_METRICS = {
    "simulation.events": "count",
    "simulation.schedule_calls": "count",
    "simulation.loop_self_s": "s",
    "simulation.sends": "count",
    "simulation.send_s": "s",
    "simulation.latency_draws": "count",
    "simulation.draw_s": "s",
    "simulation.delivered": "count",
    "simulation.dropped": "count",
    "identity.sign_calls": "count",
    "identity.sign_s": "s",
    "identity.verify_calls": "count",
    "identity.verify_s": "s",
    "identity.verify_real": "count",
    "identity.verify_hit_ratio": "ratio",
    "encoding.enc_calls": "count",
    "encoding.bytes_out": "bytes",
    "encoding.enc_s": "s",
    "encoding.dec_calls": "count",
    "encoding.dec_s": "s",
    "ledger.tx_body_builds": "count",
    "ledger.tx_encode_s": "s",
    "ledger.hash_block_calls": "count",
    "ledger.hash_block_s": "s",
    "ledger.append_block_calls": "count",
    "ledger.append_block_s": "s",
    "ledger.pool_add_calls": "count",
    "ledger.pool_select_calls": "count",
    "ledger.pool_select_s": "s",
    "ledger.pool_remove_s": "s",
    "ledger.pool_depth_max": "count",
    "ledger.txs_per_block": "txs/block",
    "contracts.execute_calls": "count",
    "contracts.execute_s": "s",
    "contracts.failed_receipts": "count",
    "contracts.private_apply_calls": "count",
    "contracts.private_apply_s": "s",
    "consensus.messages": "count",
    "consensus.handle_s": "s",
    "consensus.messages_per_block": "msgs/block",
    "consensus.round_changes": "count",
    "consensus.dropped_invalid": "count",
    "privacy.distribute_calls": "count",
    "privacy.distribute_s": "s",
    "privacy.encrypt_bytes": "bytes",
    "privacy.enclave_open_calls": "count",
    "privacy.open_s": "s",
    "privacy.enclave_ms_p50": "sim-ms",
    "node.receive_tx_calls": "count",
    "node.gossip_calls": "count",
    "node.gossip_s": "s",
    "node.block_intake_s": "s",
    "node.private_op_failures": "count",
    "metrics.output_s": "s",
    "scenario.assemble_s": "s",
    "config.parse_s": "s",
    "audit.s": "s",
    "trace.overhead_share": "ratio",
}

# Which end-to-end metric each layer should move, and on which workload.
PREDICTIONS = {
    "simulation": "run_s, events_per_s on bft-31-faults; barely used on private-burst",
    "identity": "run_s on bft-31-faults and lifecycle-400",
    "encoding": "run_s on lifecycle-400 and private-burst",
    "ledger": "tx/pool metrics: lifecycle-400 vs private-burst; block hashing/append: bft-31-faults",
    "contracts": "execute: lifecycle-400; private apply: private-burst",
    "consensus": "run_s and finality_gap_max_ms on bft-31-faults",
    "privacy": "run_s and private_* on private-burst",
    "node": "run_s on lifecycle-400",
    "metrics": "setup_s; otherwise flat",
    "scenario": "setup_s; otherwise flat",
    "config": "setup_s; otherwise flat",
    "audit": "outside the timed window; no end-to-end move",
    "trace": "cost of the probes themselves",
}


class ChildFailed(RuntimeError):
    """A sample's interpreter exited with an error."""


def run_child(root: Path, work: Path, workload: str, seed: int, mode: str, index: int) -> dict:
    out = work / f"{mode}-{index}"
    out.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", str(out)]
    began = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} sample {index} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} sample {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads((out / "record.json").read_text())
    record["wall_s"] = time.perf_counter() - began
    if mode == "traced":
        record["spans"] = json.loads((out / "spans.json").read_text())
    return record


def timed_samples(root: Path, work: Path, workload: str, seed: int, seconds: float) -> list[dict]:
    """Fresh-process samples until the next one would likely overrun `seconds`."""
    deadline = time.perf_counter() + seconds
    records: list[dict] = []
    while True:
        records.append(run_child(root, work, workload, seed, "timed", len(records)))
        typical = statistics.median(r["wall_s"] for r in records)
        if len(records) >= MIN_TIMED and time.perf_counter() + typical > deadline:
            return records


def check_records(timed: list[dict], traced: list[dict] = (), wire: list[dict] = ()) -> list[str]:
    """Every problem found across the runs of one (workload, seed)."""
    problems = []
    runs = [*timed, *traced, *wire]
    for r in runs:
        problems += [f"{r['mode']} run (seed {r['seed']}): {f}" for f in r["failures"]]
        if r["verify_cache_at_start"]:
            problems.append(f"{r['mode']} run started with {r['verify_cache_at_start']} cached verifies")
    for key, what in (
        ("digest", "latency.csv + summary.json digests"),
        ("simulated", "simulated metrics"),
        ("events", "event counts"),
        ("verify_real", "real Ed25519 verify counts"),
    ):
        seen = {json.dumps(r[key], sort_keys=True) for r in runs}
        if len(seen) > 1:
            problems.append(f"{what} differ between runs of one (workload, seed): {sorted(seen)}")
    if len(traced) >= 2:
        a, b = traced[0], traced[1]
        for name, unit in LAYER_METRICS.items():
            if name in a["layers"] and unit != "s" and a["layers"][name] != b["layers"][name]:
                problems.append(f"count {name} differs between traced runs: {a['layers'][name]} vs {b['layers'][name]}")
        calls_a = {k: v["calls"] for k, v in a["spans"]["spans"].items()}
        calls_b = {k: v["calls"] for k, v in b["spans"]["spans"].items()}
        if calls_a != calls_b:
            problems.append("span call counts differ between traced runs")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def host_values(records: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [r["setup_s"] for r in records],
        "run_s": [r["run_s"] for r in records],
        "events_per_s": [r["events"] / r["run_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }


def layer_values(timed: list[dict], traced: list[dict], wire: list[dict]) -> dict[str, float]:
    # Counts are identical across traced runs (checked); times take the median.
    layers = {
        name: statistics.median(t["layers"][name] for t in traced) if LAYER_METRICS[name] == "s" else value
        for name, value in traced[0]["layers"].items()
    }
    layers["audit.s"] += statistics.median(w["isolation_s"] for w in wire)
    untraced_run = statistics.median(r["run_s"] for r in timed)
    traced_run = statistics.median(t["run_s"] for t in traced)
    layers["trace.overhead_share"] = (traced_run - untraced_run) / untraced_run
    return layers


def print_report(args, timed, traced, wire, problems) -> None:
    first = timed[0]
    v = first["versions"]
    print(f"pactsim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"machine: nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
        f"cryptography={v['cryptography']} platform={platform.platform()}"
    )
    print(
        f"runs: {len(timed)} timed, {len(traced)} traced, {len(wire)} wire-capture; "
        f"digest {first['digest'][:16]}; real verifies {first['verify_real']}; events {first['events']}"
    )
    print(f"{'metric':<22}{'unit':<8}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}")
    for name, unit in HOST_METRICS:
        median, q1, q3 = quartiles(host_values(timed)[name])
        print(f"{name:<22}{unit:<8}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(timed):>5}")
    print("run_s per sample: " + " ".join(f"{r['run_s']:.4f}" for r in timed))
    print("uncorrected wall clock: "
          f"setup median {statistics.median(r['setup_wall_s'] for r in timed):.4f} s, "
          f"run median {statistics.median(r['run_wall_s'] for r in timed):.4f} s; host speed per sample: "
          + " ".join(f"{r['host_speed']:.3f}" for r in timed))
    sim = first["simulated"]
    for name, unit in SIMULATED_METRICS:
        value = sim[name]
        if value is None:
            text = "n/a (no samples)"
        elif name == "failed_op_share":
            text = f"{value:.6g} ({sim['failed_ops']} of {sim['attempted_ops']} operations)"
        elif isinstance(value, dict):
            text = f"{value['value']} (p{value['percentile']}, {value['beyond']} of {value['count']} samples beyond)"
        else:
            text = str(value)
        print(f"{name:<22}{unit:<8}{text:>14}   compared across {len(timed) + len(traced) + len(wire)} runs")
    if traced:
        print(f"{'layer metric':<34}{'unit':<11}{'value':>16}")
        layer = None
        for name, value in layer_values(timed, traced, wire).items():
            if name.split(".", 1)[0] != layer:
                layer = name.split(".", 1)[0]
                print(f"[{layer}] expected to move: {PREDICTIONS[layer]}")
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:<32}{LAYER_METRICS[name]:<11}{shown:>16}")
        spans = traced[0]["spans"]["spans"]
        top = sorted(spans.items(), key=lambda kv: kv[1]["self_s"], reverse=True)[:8]
        print("top spans by self time (first traced run): " + ", ".join(
            f"{k} {s['self_s']:.3f}s/{s['calls']}" for k, s in top))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and waits for its running sample:
    # subprocess.run does both when an exception interrupts it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"perfbench: terminated by signal {signum}"))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "pactsim" / "__init__.py").is_file():
        print("perfbench: src/pactsim not found; run from the root of a pactsim checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(root / "src", quiet=1):
        print("perfbench: src/ does not compile", file=sys.stderr)
        return 2

    keep = root / ".perfbench"
    keep.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=keep))
    try:
        traced: list[dict] = []
        wire: list[dict] = []
        if args.trace:
            timed = timed_samples(root, work, args.workload, args.seed, args.seconds / 3)
            traced = [run_child(root, work, args.workload, args.seed, "traced", i) for i in range(TRACED_RUNS)]
            wire = [run_child(root, work, args.workload, args.seed, "wire", 0)]
            spans_out = keep / f"spans-{args.workload}-seed{args.seed}.json"
            spans_out.write_text(json.dumps(traced[0]["spans"], indent=1) + "\n")
        else:
            timed = timed_samples(root, work, args.workload, args.seed, args.seconds)
    except ChildFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = check_records(timed, traced, wire)
    print_report(args, timed, traced, wire, problems)
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in layer_values(timed, traced, wire).items()}
    else:
        values = host_values(timed)
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in HOST_METRICS}
    runs = [*timed, *traced, *wire]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["failures"]),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
