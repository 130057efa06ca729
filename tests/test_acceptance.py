"""Acceptance gate: the headline behaviors the simulator must exhibit.

Every test here prints one PASS/FAIL line so a full run reads as a
checklist.  Tolerances are part of the contract; loosening them to
make a red test green defeats the point of the gate.
"""

import time

import pytest

from pactsim.audit import isolation_scan, member_state_consistency
from pactsim.config import config_from_dict
from pactsim.contracts import BreachLedger, BreachRecord, GasSchedule, OpBatch, OpBreach, OpInit, AgreementRecord, PublicState, Role
from pactsim.encoding import digest
from pactsim.ledger import PrivacyMarker, TxPool
from pactsim.privacy import encrypt_payload
from pactsim.scenario import run_scenario, run_sweep

from .conftest import call_tx, cred, validator_set
from .test_ledger import ref_pack

PAPER_DEFAULT = config_from_dict({"preset": "paper-default"})
PIPELINE_MS = 2550  # expected public mean = interval/2 + this


def report(label: str, checks: dict[str, bool], capsys) -> None:
    failed = [name for name, ok in checks.items() if not ok]
    verdict = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    with capsys.disabled():
        print(f"[acceptance] {label}: {verdict}")
    assert not failed, f"{label}: {failed}"


def consensus_only(seed_faults: dict, target_heights: int) -> dict:
    return {
        "preset": "smoke",
        "member_nodes": 0,
        "workload": {"providers": 0, "consumers": 0, "publishes_per_provider": 0,
                     "selects_per_consumer": 0, "breaches_per_group": 0},
        "run": {"max_virtual_ms": 300_000, "grace_ms": 1000, "target_heights": target_heights},
        "faults": seed_faults,
    }


@pytest.fixture(scope="module")
def paper_run():
    t0 = time.perf_counter()
    result = run_scenario(PAPER_DEFAULT, seed=7)
    return result, time.perf_counter() - t0


def test_public_latency_calibration(paper_run, capsys):
    result, wall = paper_run
    summary = result.summary
    checks = {"run completed": result.completed, "wall under 10s": wall < 10.0}
    public = summary["public"]
    checks["at least 200 public samples"] = public is not None and public["count"] >= 200
    for kind in ("register", "publish", "select"):
        st = summary["kinds"][kind]
        checks[f"{kind} mean in [4000, 6000]"] = 4000 <= st["mean_ms"] <= 6000
        checks[f"{kind} p95 under 10000"] = st["p95_ms"] < 10_000
    report("public latency calibration", checks, capsys)


def test_private_deploy_overhead(paper_run, capsys):
    result, _ = paper_run
    deploy = result.summary["kinds"]["deploy_private"]
    public = result.summary["public"]
    checks = {
        "at least 50 private deployments": deploy["count"] >= 50,
        "deploy mean above 5000": deploy["mean_ms"] > 5000,
        "deploy mean above public mean": deploy["mean_ms"] > public["mean_ms"],
    }
    report("private deploy overhead", checks, capsys)


def test_breach_report_spread(paper_run, capsys):
    result, _ = paper_run
    breach = result.summary["kinds"]["register_breach"]
    public = result.summary["public"]
    checks = {
        "at least 200 breach samples": breach["count"] >= 200,
        "fastest under 2000": breach["min_ms"] < 2000,
        "slowest over 6000": breach["max_ms"] > 6000,
        "wider relative spread than public": breach["cov"] > public["cov"],
    }
    report("breach report spread", checks, capsys)


def test_block_interval_decoupling(capsys):
    intervals = [2500, 5000, 10000]
    results, comparison = run_sweep(PAPER_DEFAULT, seed=7, values=intervals)
    means = [p["public_mean_ms"] for p in comparison["points"]]
    checks = {"all sweep points completed": all(p["completed"] for p in comparison["points"])}
    checks["public means strictly increasing"] = means[0] < means[1] < means[2]
    for interval, mean in zip(intervals, means):
        expected = interval / 2 + PIPELINE_MS
        checks[f"interval {interval} mean within 20% of {expected:.0f}"] = (
            abs(mean / expected - 1.0) <= 0.20
        )
    multisets = [
        sorted(s.enclave_ms for s in r.metrics.samples if s.enclave_ms is not None)
        for r in results
    ]
    checks["enclave samples present"] = all(len(m) > 0 for m in multisets)
    checks["enclave component multiset identical across intervals"] = (
        multisets[0] == multisets[1] == multisets[2]
    )
    report("block-interval decoupling", checks, capsys)


def test_consensus_safety_under_byzantine_validator(capsys):
    t0 = time.perf_counter()
    violating_seeds = []
    stalled_seeds = []
    for seed in range(1000):
        faults = {"byzantine": [{
            "node": f"v{seed % 4}",
            "strategy": "equivocate" if seed % 2 == 0 else "withhold",
        }]}
        r = run_scenario(config_from_dict(consensus_only(faults, target_heights=3)), seed)
        # A non-empty violation list is exactly the condition that makes
        # the command line front end exit with code 3.
        if r.metrics.safety_violations:
            violating_seeds.append(seed)
        if r.metrics.finalized_heights < 3:
            stalled_seeds.append(seed)
    wall = time.perf_counter() - t0
    checks = {
        "zero conflicting finalizations in 1000 runs": not violating_seeds,
        "all 1000 runs finalized three heights": not stalled_seeds,
        "wall under 2 minutes": wall < 120.0,
    }
    report("consensus safety under a Byzantine validator", checks, capsys)


def test_liveness_under_proposer_crash(capsys):
    cfg = config_from_dict(consensus_only(
        {"crashes": [{"at_ms": 500, "proposer_of_height": 2}]}, target_heights=2,
    ))
    bound = cfg.block_interval_ms + 2 * cfg.base_round_timeout_ms
    good = 0
    for seed in range(100):
        r = run_scenario(cfg, seed)
        vs = validator_set(r.cluster.nodes[n].validator.credential for n in cfg.validator_names)
        block = next(iter(r.cluster.nodes.values())).store.blocks[2]
        delta = r.metrics.first_finalized_at(2) - r.metrics.first_finalized_at(1)
        if (
            block.round == 1
            and block.proposer == vs.proposer_for(2, 1)
            and delta <= bound
        ):
            good += 1
    checks = {"crashed height recovered by the next proposer in 100/100 runs": good == 100}
    report("liveness under proposer crash", checks, capsys)


def test_contract_rule_enforcement(capsys):
    provider, consumer, outsider = cred(1), cred(2), cred(3)
    state = PublicState(GasSchedule())
    checks = {}

    ok = state.execute(call_tx(provider, 0, "registry", "register", int(Role.PROVIDER)))
    checks["registration succeeds"] = ok.ok
    again = state.execute(call_tx(provider, 1, "registry", "register", int(Role.CONSUMER)))
    checks["re-registration rejected"] = not again.ok and "already registered" in again.reason
    state.execute(call_tx(consumer, 0, "registry", "register", int(Role.CONSUMER)))

    first = state.execute(call_tx(provider, 2, "catalog", "publish", "svc-0", b"\x00" * 32))
    checks["publish succeeds"] = first.ok
    dup = state.execute(call_tx(provider, 3, "catalog", "publish", "svc-0-again", b"\x00" * 32))
    checks["duplicate service metadata rejected"] = not dup.ok and "duplicate" in dup.reason
    for i in range(1, 5):
        r = state.execute(call_tx(provider, 3 + i, "catalog", "publish", f"svc-{i}", bytes([i]) * 32))
        checks.setdefault("catalog fills to five services", True)
        checks["catalog fills to five services"] &= r.ok
    sixth = state.execute(call_tx(provider, 8, "catalog", "publish", "svc-5", b"\x09" * 32))
    checks["sixth publish rejected"] = not sixth.ok and "5 services" in sixth.reason
    by_consumer = state.execute(call_tx(consumer, 1, "catalog", "publish", "svc-x", b"\x0a" * 32))
    checks["publish by consumer rejected"] = not by_consumer.ok and "provider role" in by_consumer.reason

    sel = state.execute(call_tx(consumer, 2, "selection", "select", provider.address, 0))
    checks["selection succeeds"] = sel.ok
    by_provider = state.execute(call_tx(provider, 9, "selection", "select", provider.address, 0))
    checks["select by provider rejected"] = not by_provider.ok and "consumer role" in by_provider.reason
    bad_target = state.execute(call_tx(consumer, 3, "selection", "select", outsider.address, 0))
    checks["select of non-provider rejected"] = not bad_target.ok

    members = frozenset((provider.address, consumer.address))
    ledger = BreachLedger(group_id=b"\x01" * 32, members=members)
    ledger.apply(
        consumer.address,
        OpInit(AgreementRecord(consumer=consumer.address, provider=provider.address,
                               service_index=0, terms="uptime 99.9%")),
        b"\x02" * 32,
    )
    try:
        ledger.apply(
            outsider.address,
            OpBreach(BreachRecord(reporter=outsider.address, details="x", reported_at=1)),
            b"\x03" * 32,
        )
        checks["breach by non-member rejected"] = False
    except Exception as err:
        checks["breach by non-member rejected"] = "not a group member" in str(err)

    report("contract rule enforcement", checks, capsys)


def test_privacy_isolation(capsys):
    cfg = config_from_dict({
        "preset": "smoke",
        "workload": {"providers": 1, "consumers": 1, "publishes_per_provider": 1,
                     "selects_per_consumer": 1, "breaches_per_group": 1},
    })
    leaks = 0
    divergent = 0
    incomplete = 0
    for seed in range(100):
        r = run_scenario(cfg, seed, capture_wire=True)
        if not r.completed:
            incomplete += 1
        leaks += len(isolation_scan(r))
        divergent += len(member_state_consistency(r))
    checks = {
        "all 100 runs completed": incomplete == 0,
        "no key or plaintext outside the group across 100 runs": leaks == 0,
        "member private states byte-identical across 100 runs": divergent == 0,
    }
    report("privacy isolation", checks, capsys)


def test_gas_limited_block_packing(capsys):
    gas_limit = 8_000_000
    senders = [cred(1000 + i) for i in range(500)]
    txs = [
        call_tx(s, 0, "registry", "register", int(Role.PROVIDER), gas_limit=41_000)
        for s in senders
    ]
    # The test's own record of executed nonces stands in for the state's.
    executed = {}
    pool = TxPool(executed)
    for i, tx in enumerate(txs):
        pool.add(tx, now=i)

    remaining = list(txs)
    blocks = []
    while len(pool):
        chosen = pool.select(gas_limit)
        if not chosen:
            break
        expected = ref_pack(remaining, gas_limit, executed)
        blocks.append((chosen, expected))
        for tx in chosen:
            executed[tx.sender] = tx.nonce + 1
            remaining.remove(tx)
        pool.remove_included(tuple(chosen))

    sizes = [len(chosen) for chosen, _ in blocks]
    checks = {
        "pool drains as 195 + 195 + 110": sizes == [195, 195, 110],
        "every block matches the first-fit oracle": all(
            [t.tx_id for t in chosen] == [t.tx_id for t in expected]
            for chosen, expected in blocks
        ),
        "each full block at the 195-transaction gas ceiling": all(
            41_000 * size <= gas_limit and 41_000 * (size + 1) > gas_limit
            for size in sizes[:2]
        ),
    }
    report("gas-limited block packing", checks, capsys)


def test_run_determinism(tmp_path, capsys):
    cfg = config_from_dict({"preset": "smoke"})
    files = ("latency.csv", "summary.json", "trace.jsonl")
    run_scenario(cfg, seed=5, out_dir=tmp_path / "a", trace=True)
    run_scenario(cfg, seed=5, out_dir=tmp_path / "b", trace=True)
    checks = {}
    for name in files:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        checks[f"{name} byte-identical"] = a == b and len(a) > 0
    report("run determinism", checks, capsys)


def test_breach_batching(capsys):
    cfg = config_from_dict({
        "preset": "smoke",
        "workload": {"providers": 1, "consumers": 1, "publishes_per_provider": 1,
                     "selects_per_consumer": 1, "breaches_per_group": 0,
                     "batches_per_group": 1, "batch_size": 10},
    })
    r = run_scenario(cfg, seed=7)
    group = next(iter(r.groups.values()))
    member = r.cluster.nodes[group.member_nodes[0]]
    ledger = member.group_ledgers.get(group.group_id)
    summary = ledger.batches[0]

    ref = next(iter(r.cluster.nodes.values()))
    batch_markers = [
        tx
        for block in ref.store.blocks
        for tx in block.txs
        if isinstance(tx.payload, PrivacyMarker)
        and tx.payload.group_id == group.group_id
        and tx.payload.payload_hash == summary.summary_hash
    ]

    # Independent recompute: re-encrypt the canonical batch encoding with
    # the member's own key and stored nonce, then hash the ciphertext.
    stored = member.enclave.payloads[summary.summary_hash]
    recomputed = digest(
        encrypt_payload(group.key, stored.nonce, OpBatch(tuple(ledger.records)).encode(), group.group_id)
    )
    checks = {
        "run completed": r.completed,
        "ten private records in the batch": len(ledger.records) == 10 and summary.count == 10,
        "exactly one public marker for the batch": len(batch_markers) == 1,
        "recomputed summary hash matches the on-chain marker": recomputed == summary.summary_hash,
    }
    report("breach batching", checks, capsys)
