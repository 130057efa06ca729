"""Command line interface: subcommands, outputs, exit codes."""

import json

import pytest

import pactsim.cli as cli
from pactsim.metrics import SafetyViolation


@pytest.fixture
def smoke_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("preset: smoke\n")
    return str(path)


def test_run_writes_outputs_and_exits_zero(smoke_yaml, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", smoke_yaml, "--seed", "5", "--out", str(out)])
    assert code == 0
    assert (out / "latency.csv").exists()
    assert (out / "summary.json").exists()
    printed = capsys.readouterr().out
    assert "blocks finalized" in printed
    assert "register" in printed


def test_run_trace_flag_writes_trace(smoke_yaml, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", smoke_yaml, "--seed", "5", "--out", str(out), "--trace"])
    assert code == 0
    assert (out / "trace.jsonl").exists()


def test_run_rejects_negative_seed(smoke_yaml, tmp_path, capsys):
    code = cli.main(["run", "--config", smoke_yaml, "--seed", "-1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: --seed must be a non-negative integer\n"


def test_sweep_rejects_negative_seed(smoke_yaml, tmp_path, capsys):
    code = cli.main([
        "sweep", "--config", smoke_yaml, "--param", "block-interval",
        "--values", "1000", "--seed", "-1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: --seed must be a non-negative integer\n"
    assert not (tmp_path / "o").exists()


def test_run_reports_bad_config_file(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("preset: smoke\nvalidators: 0\n")
    code = cli.main(["run", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "validators" in capsys.readouterr().err


def test_run_exits_three_on_safety_violation(smoke_yaml, tmp_path, capsys, monkeypatch):
    real = cli.run_scenario

    def poisoned(config, seed, out_dir=None, trace=False):
        result = real(config, seed, out_dir=out_dir, trace=trace)
        result.metrics.record_safety_violation("v1", 4, "conflicting finalization")
        return result

    monkeypatch.setattr(cli, "run_scenario", poisoned)
    code = cli.main(["run", "--config", smoke_yaml, "--seed", "5", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "SAFETY VIOLATION at v1 height 4" in capsys.readouterr().err


def test_sweep_runs_each_value(smoke_yaml, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--config", smoke_yaml, "--param", "block-interval",
        "--values", "1000,2000", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    data = json.loads((out / "sweep.json").read_text())
    assert [p["value"] for p in data["points"]] == [1000, 2000]
    printed = capsys.readouterr().out
    assert "block-interval=1000ms" in printed
    assert "block-interval=2000ms" in printed


@pytest.mark.parametrize("values", ["", "abc", "100,abc", "0", "-5", str(2**62 + 1)])
def test_sweep_rejects_bad_values(smoke_yaml, tmp_path, values, capsys):
    code = cli.main([
        "sweep", "--config", smoke_yaml, "--param", "block-interval",
        "--values", values, "--seed", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "--values" in capsys.readouterr().err


def test_sweep_exits_three_on_safety_violation(smoke_yaml, tmp_path, monkeypatch):
    real = cli.run_sweep

    def poisoned(config, seed, values, out_dir=None, trace=False):
        results, comparison = real(config, seed, values, out_dir=out_dir, trace=trace)
        results[0].metrics.safety_violations.append(SafetyViolation("v0", 1, "fork"))
        return results, comparison

    monkeypatch.setattr(cli, "run_sweep", poisoned)
    code = cli.main([
        "sweep", "--config", smoke_yaml, "--param", "block-interval",
        "--values", "1000", "--seed", "5", "--out", str(tmp_path / "o"),
    ])
    assert code == 3


def test_validate_config_ok(smoke_yaml, capsys):
    assert cli.main(["validate-config", smoke_yaml]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_config_rejects(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("preset: smoke\nworkload: {batch_size: 0}\n")
    assert cli.main(["validate-config", str(path)]) == 2
    assert "batch_size" in capsys.readouterr().err


def test_validate_config_missing_file(capsys):
    assert cli.main(["validate-config", "/no/such/file.yaml"]) == 2
    assert "cannot read" in capsys.readouterr().err


# Each probe is merged over `preset: smoke`; the schema must refuse it
# before the run starts and name the offending dotted path.
CONFIG_PROBES = [
    ("gas: {bsae: 5}", "gas.bsae"),
    ("latency: {rcp: {kind: fixed, value: 1}}", "latency.rcp"),
    ("latency: {rpc: {kind: uniform, low: 1, high: 2, mid: 3}}", "latency.rpc.mid"),
    ("latency: {rpc: {kind: fixed, value: 1.5}}", "latency.rpc.value"),
    ("latency: {consensus: {kind: lognormal, median: -5, sigma: 0.3}}", "latency.consensus.median"),
    ("gas: {base: true}", "gas.base"),
    ('gas: {base: "30000"}', "gas.base"),
    ("gas: {base: 590295810358705651712}\nblock_gas_limit: 1180591620717411303424", "gas.base"),
    ("block_gas_limit: 30000", "block_gas_limit"),
    ("workload: {providers: true}", "workload.providers"),
    ("workload: {providers: 2.7}", "workload.providers"),
    ("workload: {batch_size: null}", "workload.batch_size"),
    ("enclave_retry_probability: false", "enclave_retry_probability"),
    ('run: {grace_ms: "100"}', "run.grace_ms"),
    ("run: {max_virtual_ms: 1.5}", "run.max_virtual_ms"),
    ("run: {target_heights: true}", "run.target_heights"),
    ("faults: {crashes: 5}", "faults.crashes"),
    ("faults: {crashes: [{node: v1, at_ms: true}]}", "faults.crashes[0].at_ms"),
    ("faults: {crashes: [{node: v1, at_ms: 5, delay_ms: 3}]}", "faults.crashes[0].delay_ms"),
    ("faults: {byzantine: [{node: v1, strategy: echo, rounds: 2}]}", "faults.byzantine[0].rounds"),
    ("faults: {partitions: [{from_ms: 0, to_ms: 9, groups: [[v0, v1, v2, v3], [m0, m1, m2]], heal: 1}]}",
     "faults.partitions[0].heal"),
]


@pytest.mark.parametrize("probe, path", CONFIG_PROBES, ids=[p for _, p in CONFIG_PROBES])
@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_schema_probe_exits_two(probe, path, command, tmp_path, capsys):
    config = tmp_path / "probe.yaml"
    config.write_text(f"preset: smoke\n{probe}\n")
    args = [command, str(config)]
    if command == "run":
        args = ["run", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "o")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    assert path in err
