"""End-to-end scenario runs: completion, determinism, outputs, sweeps."""

import gc
import itertools
import json
from unittest import mock

import pytest

from pactsim import node, scenario
from pactsim.config import ConfigError, config_from_dict
from pactsim.contracts import BreachLedger
from pactsim.metrics import PRIVATE_KINDS, PUBLIC_KINDS
from pactsim.scenario import run_scenario, run_sweep, wire_bytes

from .test_privacy import reference_transfers

SMOKE = config_from_dict({"preset": "smoke"})


@pytest.fixture(scope="module")
def smoke_run():
    return run_scenario(SMOKE, seed=5)


def test_smoke_run_completes(smoke_run):
    assert smoke_run.completed
    assert smoke_run.summary["completed"]
    assert smoke_run.metrics.finalized_heights >= 2
    assert smoke_run.summary["safety_violations"] == []
    assert smoke_run.summary["unresolved_samples"] == 0


def test_smoke_run_core_sample_counts(smoke_run):
    # 2 providers + 2 consumers register, 2 publishes, 2 selects,
    # 2 private deploys, 2 breach reports.
    kinds = smoke_run.summary["kinds"]
    assert kinds["register"]["count"] == 4
    assert kinds["publish"]["count"] == 2
    assert kinds["select"]["count"] == 2
    assert kinds["deploy_private"]["count"] == 2
    assert kinds["register_breach"]["count"] == 2


def test_all_nodes_reach_same_height(smoke_run):
    heights = {n.store.height for n in smoke_run.cluster.nodes.values()}
    assert len(heights) == 1
    digests = {n.state.state_digest() for n in smoke_run.cluster.nodes.values()}
    assert len(digests) == 1


def test_group_ledgers_match_the_driven_workload(smoke_run):
    assert len(smoke_run.directory.by_id) == 2
    for group in smoke_run.directory.by_id.values():
        for name in group.member_nodes:
            ledger = smoke_run.cluster.nodes[name].group_ledgers.get(group.group_id)
            assert ledger.agreement is not None
            assert len(ledger.records) == 1
            assert not ledger.halted


def test_group_members_hold_their_own_ledgers_of_shared_records(smoke_run):
    for group in smoke_run.directory.by_id.values():
        a, b = (smoke_run.cluster.nodes[n].group_ledgers.get(group.group_id) for n in group.member_nodes)
        assert a is not b and a.records is not b.records
        assert a.encode() == b.encode()
        # Both members applied the one decoded operation.
        assert all(x is y for x, y in zip(a.records, b.records, strict=True))


# Lost pushes are retried most of the time and a leg takes up to 5 s, so
# payloads land late and out of order against the 1 s block cadence.
PRIVATE_STRESS = {
    "preset": "smoke",
    "enclave_retry_probability": 0.9,
    "latency": {"enclave_transfer": {"kind": "uniform", "low": 0, "high": 5000}},
    "workload": {"batches_per_group": 2},
    "run": {"max_virtual_ms": 120_000},
}


@pytest.fixture(scope="module")
def private_stress_stages():
    return dict(run_scenario(config_from_dict(PRIVATE_STRESS), seed=3).driver.stage_log)


@pytest.mark.parametrize("node", ["m0", "m2"])
@pytest.mark.parametrize("stage", ["deploy", "breach", "batch"])
@pytest.mark.parametrize("offset_ms", [250, 2000, 9000])
def test_member_crash_never_leaves_a_marker_without_its_payload(private_stress_stages, node, stage, offset_ms):
    # m0 hosts one group's provider; m2 hosts the consumer of both groups.
    at_ms = private_stress_stages[stage] + offset_ms
    config = config_from_dict({**PRIVATE_STRESS, "faults": {"crashes": [{"at_ms": at_ms, "node": node}]}})
    result = run_scenario(config, seed=3)
    for runtime in result.cluster.nodes.values():
        assert runtime.private_op_failures == []
    for group in result.directory.by_id.values():
        live = [n for n in group.member_nodes if n not in result.cluster.network.crashed]
        ledgers = [result.cluster.nodes[n].group_ledgers.get(group.group_id) for n in live]
        assert not any(ledger.halted for ledger in ledgers)
        assert len({ledger.state_digest() for ledger in ledgers}) == 1


# The benchmark's `lifecycle-400` workload (`perfbench/workloads.py`) at
# its seed, and `smoke-batches` of the golden cases.
SENDER_OP_CASES = {
    "lifecycle-400": ({"preset": "paper-default", "workload": {"providers": 200, "consumers": 200}}, 29),
    "smoke-batches": ({"preset": "smoke", "workload": {"batches_per_group": 2}}, 7),
}


@pytest.mark.parametrize("case", sorted(SENDER_OP_CASES))
def test_members_apply_the_op_its_sender_encoded(case, monkeypatch):
    raw, seed = SENDER_OP_CASES[case]
    applied = []
    apply = BreachLedger.apply

    def spy(ledger, sender, op, payload_hash):
        applied.append(op)
        apply(ledger, sender, op, payload_hash)

    monkeypatch.setattr(BreachLedger, "apply", spy)
    with mock.patch.object(node, "decode_private_op", wraps=node.decode_private_op) as parse:
        result = run_scenario(config_from_dict(raw), seed)
    assert result.completed
    assert parse.call_count == 0
    sent = result.cluster.sent_ops
    assert len(sent) == sum(s.kind in PRIVATE_KINDS for s in result.metrics.samples)
    # Each op is applied at both members of its group, as the object its sender encoded.
    assert len(applied) == 2 * len(sent)
    assert {id(op) for op in applied} == {id(op) for _, _, op in sent.values()}
    assert not any(n.private_op_failures for n in result.cluster.nodes.values())


def test_each_private_sample_takes_the_transfer_drawn_at_its_submission(monkeypatch):
    raw, seed = SENDER_OP_CASES["smoke-batches"]
    config = config_from_dict(raw)
    submitted, fired = itertools.count(), []
    submit = scenario.WorkloadDriver._submit_private

    def spy(driver, group, sender, make_op):
        k = next(submitted)

        def traced_op():
            fired.append(k)
            return make_op()

        submit(driver, group, sender, traced_op)

    monkeypatch.setattr(scenario.WorkloadDriver, "_submit_private", spy)
    result = run_scenario(config, seed)
    assert result.completed
    # A payload's sample is registered in the event that builds its op, so samples follow `fired`.
    private = [s for s in result.metrics.samples if s.kind in PRIVATE_KINDS]
    assert sorted(fired) == list(range(len(private)))
    assert fired.index(5) < fired.index(4)
    reference = reference_transfers(
        len(fired), seed, config.enclave_transfer, config.enclave_retry_probability
    )
    assert [s.enclave_ms for s in private] == [reference[k][1] for k in fired]


def test_a_run_keeps_only_the_streams_it_continues():
    raw, seed = SENDER_OP_CASES["lifecycle-400"]
    result = run_scenario(config_from_dict(raw), seed)
    # Key material is read once and kept nowhere.
    assert sorted(result.rng_hub._streams) == [(1,), (2,), (3, 1), (3, 2), (4,)]


def test_summary_reports_every_kind_seen(smoke_run):
    kinds = set(smoke_run.summary["kinds"])
    assert kinds <= set(PUBLIC_KINDS) | set(PRIVATE_KINDS)
    assert smoke_run.summary["public"]["count"] == 8
    assert smoke_run.summary["private"]["count"] == 4


def test_identical_seed_and_config_reproduce_everything():
    a = run_scenario(SMOKE, seed=9)
    b = run_scenario(SMOKE, seed=9)
    assert a.summary == b.summary
    assert [s.__dict__ for s in a.metrics.samples] == [s.__dict__ for s in b.metrics.samples]
    for name in a.config.node_names:
        assert [blk.hash for blk in a.cluster.nodes[name].store.blocks] == [
            blk.hash for blk in b.cluster.nodes[name].store.blocks
        ]


def test_different_seeds_differ():
    a = run_scenario(SMOKE, seed=9)
    b = run_scenario(SMOKE, seed=10)
    assert a.summary["kinds"] != b.summary["kinds"]


def test_output_files_written(tmp_path):
    result = run_scenario(SMOKE, seed=5, out_dir=tmp_path / "out", trace=True)
    assert result.out_dir == tmp_path / "out"
    csv_text = (tmp_path / "out" / "latency.csv").read_text()
    assert csv_text.startswith("tx_id,kind,submit_ms,final_ms,latency_ms,enclave_ms,block_height,group_id")
    assert len(csv_text.splitlines()) == 1 + len(result.metrics.samples)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["config"]["block_interval_ms"] == 1000
    trace_lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert trace_lines, "trace requested but empty"
    kinds = {json.loads(line)["kind"] for line in trace_lines}
    assert "workload_done" in kinds
    assert "group_formed" in kinds


def test_trace_off_by_default(tmp_path, smoke_run):
    assert smoke_run.sim.trace_log == []
    run_scenario(SMOKE, seed=5, out_dir=tmp_path / "quiet")
    assert not (tmp_path / "quiet" / "trace.jsonl").exists()


def test_sweep_writes_comparison_and_subdirs(tmp_path):
    results, comparison = run_sweep(SMOKE, seed=5, values=[1000, 2000], out_dir=tmp_path)
    assert [r.config.block_interval_ms for r in results] == [1000, 2000]
    assert comparison["param"] == "block-interval"
    assert [p["value"] for p in comparison["points"]] == [1000, 2000]
    for point in comparison["points"]:
        assert point["completed"]
        assert point["public_mean_ms"] > 0
    on_disk = json.loads((tmp_path / "sweep.json").read_text())
    assert on_disk == comparison
    for value in (1000, 2000):
        assert (tmp_path / f"block-interval-{value}" / "latency.csv").exists()
        assert (tmp_path / f"block-interval-{value}" / "summary.json").exists()


def test_sweep_point_at_matching_interval_reproduces_single_run(smoke_run):
    results, _ = run_sweep(SMOKE, seed=5, values=[1000])
    assert results[0].summary["kinds"] == smoke_run.summary["kinds"]


@pytest.mark.parametrize(
    "values, message",
    [([2**62 + 1], r"--values must be <= 2\*\*62"), ([1000, 0], "--values must be >= 1")],
    ids=["above-the-bound", "zero-after-a-good-value"],
)
def test_sweep_checks_every_value_before_running_any(values, message, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(scenario, "run_scenario", lambda *args: ran.append(args))
    with pytest.raises(ConfigError, match=message):
        run_sweep(config_from_dict({"preset": "smoke"}), 0, values, out_dir=tmp_path / "sweep")
    assert ran == []
    assert not (tmp_path / "sweep").exists()


# A run leaves no reference cycles behind: the kernel pauses the cyclic
# collector while it runs, so a cycle would hold its memory until the
# next collection.
NO_CYCLE_CASES = {
    "smoke": {"preset": "smoke"},
    "multigroup": {
        "preset": "smoke",
        "workload": {"providers": 3, "consumers": 3, "selects_per_consumer": 2, "batches_per_group": 2},
    },
    "fault-mix": {
        "preset": "smoke",
        "validators": 7,
        "faults": {
            "crashes": [{"node": "v2", "at_ms": 3000}],
            "byzantine": [{"node": "v1", "strategy": "equivocate"}],
            "partitions": [
                {"from_ms": 5000, "to_ms": 20_000, "groups": [["m0"], [f"v{i}" for i in range(7)] + ["m1", "m2"]]}
            ],
        },
    },
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(NO_CYCLE_CASES))
def test_a_run_creates_no_reference_cycles(collector, case, trace):
    config = config_from_dict(NO_CYCLE_CASES[case])
    gc.collect()
    gc.disable()
    result = run_scenario(config, seed=3, trace=trace)
    # `result` still holds the whole run, so only garbage is unreachable.
    assert gc.collect() == 0
    assert result.completed


def test_wire_capture_changes_no_output(tmp_path):
    # A crashed validator and a healed partition, so the fan-out drops on
    # both counts; only the run with capture writes the wire log.
    config = config_from_dict(
        {
            "preset": "smoke",
            "faults": {
                "crashes": [{"node": "v2", "at_ms": 3000}],
                "partitions": [
                    {"from_ms": 5000, "to_ms": 20_000, "groups": [["m0"], ["v0", "v1", "v2", "v3", "m1", "m2"]]}
                ],
            },
        }
    )
    runs = {}
    for capture in (False, True):
        out = tmp_path / str(capture)
        result = run_scenario(config, seed=3, out_dir=out, capture_wire=capture)
        net = result.cluster.network
        assert (net.wire_log is not None) is capture
        files = tuple((out / name).read_bytes() for name in ("latency.csv", "summary.json"))
        runs[capture] = (files, result.sim._fired, net.delivered, net.dropped_crash, net.dropped_partition)
    assert runs[False] == runs[True]
    assert runs[False][3] > 0 and runs[False][4] > 0


def test_wire_bytes_refuses_an_item_with_no_wire_form():
    for item in (None, 1.5, "text", object(), (b"not a block",)):
        with pytest.raises(TypeError, match="no wire form"):
            wire_bytes(item)
