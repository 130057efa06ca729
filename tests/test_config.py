"""Configuration schema: presets, merging, validation, YAML loading."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pactsim.config import (
    FIELDS,
    ConfigError,
    STRATEGY_NAMES,
    config_from_dict,
    deep_merge,
    load_config,
    preset_dict,
    render_doc,
)
from pactsim.contracts import OPS
from pactsim.scenario import run_scenario
from pactsim.simulation import Fixed, LogNormal, Uniform


def cfg(**overrides):
    return config_from_dict({"preset": "smoke", **overrides})


# -- presets and merging ----------------------------------------------


def test_paper_default_preset_values():
    c = config_from_dict({"preset": "paper-default"})
    assert c.validators == 4
    assert c.member_nodes == 3
    assert c.block_interval_ms == 5000
    assert c.base_round_timeout_ms == 10000
    assert c.block_gas_limit == 8_000_000
    assert (c.gas.base, c.gas.per_write, c.gas.per_read) == (21_000, 20_000, 2_100)
    assert isinstance(c.consensus_latency, Uniform)
    assert (c.consensus_latency.low, c.consensus_latency.high) == (600, 1000)
    assert isinstance(c.rpc_latency, Fixed) and c.rpc_latency.value == 50
    assert (c.enclave_transfer.low, c.enclave_transfer.high) == (400, 2600)
    assert c.enclave_retry_probability == 0.15
    assert c.workload.providers == 40
    assert c.workload.consumers == 40
    assert c.workload.publishes_per_provider == 2
    assert c.workload.selects_per_consumer == 2
    assert c.workload.breaches_per_group == 3
    assert c.run.max_virtual_ms == 3_600_000
    assert c.run.target_heights is None


def test_node_name_layout():
    c = config_from_dict({"preset": "paper-default"})
    assert c.validator_names == ("v0", "v1", "v2", "v3")
    assert c.member_names == ("m0", "m1", "m2")
    assert c.node_names == ("v0", "v1", "v2", "v3", "m0", "m1", "m2")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        config_from_dict({"preset": "huge"})


def test_overlay_merges_nested_mappings():
    c = cfg(block_interval_ms=250, workload={"providers": 9})
    assert c.block_interval_ms == 250
    assert c.workload.providers == 9
    assert c.workload.consumers == 2  # sibling keys survive the merge


def test_deep_merge_does_not_mutate_inputs():
    base = {"a": {"b": 1, "c": 2}}
    merged = deep_merge(base, {"a": {"b": 7}})
    assert merged == {"a": {"b": 7, "c": 2}}
    assert base == {"a": {"b": 1, "c": 2}}


def test_preset_dict_returns_a_copy():
    d = preset_dict("smoke")
    d["validators"] = 99
    assert preset_dict("smoke")["validators"] == 4


def test_strategy_names_frozen():
    assert STRATEGY_NAMES == ("equivocate", "echo", "withhold")


# -- scalar validation ------------------------------------------------


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown configuration keys: block_size"):
        cfg(block_size=100)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"validators": 0}, "validators must be >= 1"),
        ({"validators": 65}, "validators must be <= 64"),
        ({"validators": True}, "validators must be an integer"),
        ({"validators": "4"}, "validators must be an integer"),
        ({"member_nodes": -1}, "member_nodes must be >= 0"),
        ({"block_interval_ms": 0}, "block_interval_ms must be >= 1"),
        ({"base_round_timeout_ms": 0}, "base_round_timeout_ms must be >= 1"),
        ({"block_gas_limit": 0}, "block_gas_limit must be >= 1"),
    ],
)
def test_scalar_bounds(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfg(**overrides)


def test_gas_costs_must_be_positive():
    with pytest.raises(ConfigError, match="gas costs must be positive"):
        cfg(gas={"base": 0})


def test_gas_limit_must_cover_base_cost():
    with pytest.raises(ConfigError, match="more than block_gas_limit 20000"):
        cfg(block_gas_limit=20_000)


def test_block_gas_limit_must_hold_every_operation():
    # At default gas, register costs 41,000 and publish, the costliest, 61,000.
    with pytest.raises(ConfigError, match=r"registry\.register costs 41000 gas, more than block_gas_limit 30000"):
        cfg(block_gas_limit=30_000)
    with pytest.raises(ConfigError, match=r"catalog\.publish costs 61000 gas, more than block_gas_limit 50000"):
        cfg(block_gas_limit=50_000)
    result = run_scenario(cfg(block_gas_limit=61_000), seed=3)
    assert result.completed and result.summary["unresolved_samples"] == 0


@pytest.mark.parametrize("retry", [-0.1, 1.0, 1.5, "0.5"])
def test_retry_probability_range(retry):
    with pytest.raises(ConfigError, match="enclave_retry_probability"):
        cfg(enclave_retry_probability=retry)


# -- latency models ---------------------------------------------------


def test_unknown_latency_kind():
    with pytest.raises(ConfigError, match="bad latency model"):
        cfg(latency={"rpc": {"kind": "gaussian", "mu": 1}})


def test_uniform_bounds_checked():
    with pytest.raises(ConfigError, match="latency.consensus"):
        cfg(latency={"consensus": {"kind": "uniform", "low": 900, "high": 100}})


def test_fixed_must_be_non_negative():
    with pytest.raises(ConfigError, match="latency.rpc"):
        cfg(latency={"rpc": {"kind": "fixed", "value": -5}})


def test_enclave_transfer_must_be_uniform():
    with pytest.raises(ConfigError, match="enclave_transfer must be a uniform model"):
        cfg(latency={"enclave_transfer": {"kind": "fixed", "value": 900}})


def test_latency_from_config():
    # The config walker builds the latency models.
    def model(spec):
        return cfg(latency={"consensus": spec}).consensus_latency

    assert model({"kind": "fixed", "value": 50}) == Fixed(50)
    assert model({"kind": "uniform", "low": 1, "high": 2}) == Uniform(1, 2)
    assert model({"kind": "lognormal", "median": 5, "sigma": 0.3}) == LogNormal(5.0, 0.3)
    with pytest.raises(ValueError):
        model({"kind": "pareto"})


def test_latency_model_merges_only_over_a_model_of_its_kind():
    assert cfg(latency={"consensus": {"high": 2000}}).consensus_latency == Uniform(600, 2000)
    assert cfg(latency={"rpc": {"kind": "uniform", "low": 1, "high": 2}}).rpc_latency == Uniform(1, 2)


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ({"median": -5, "sigma": 0.3}, "latency.consensus.median must be positive"),
        ({"median": 0, "sigma": 0.3}, "latency.consensus.median must be positive"),
        ({"median": True, "sigma": 0.3}, "latency.consensus.median must be a number"),
        ({"median": "5", "sigma": 0.3}, "latency.consensus.median must be a number"),
        ({"median": 5, "sigma": -0.1}, "latency.consensus.sigma must be >= 0"),
        ({"median": 5, "sigma": False}, "latency.consensus.sigma must be a number"),
        ({"median": 5, "sigma": 11}, "latency.consensus.sigma must be <= 10"),
        ({"median": 5}, "latency.consensus.sigma must be a number"),
        ({"median": 5, "sigma": 0.3, "value": 1}, r"unknown latency.consensus keys: value"),
    ],
)
def test_lognormal_parameters_checked(spec, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfg(latency={"consensus": {"kind": "lognormal", **spec}})


def test_lognormal_runs():
    c = cfg(latency={"consensus": {"kind": "lognormal", "median": 700, "sigma": 0.5}})
    assert run_scenario(c, seed=3).completed


# -- types and unknown keys -------------------------------------------
# More cases, one per probe file, run through the CLI in test_cli.py.


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"latency": {"rpc": "fast"}}, "latency.rpc must be a mapping"),
        ({"workload": 3}, "workload must be a mapping"),
        ({"run": {"grace_ms": 2**62 + 1}}, r"run.grace_ms must be <= 2\*\*62"),
        ({"faults": {"crashes": ["v1"]}}, r"faults.crashes\[0\] must be a mapping"),
        ({"faults": {"partitions": [{"from_ms": 0, "to_ms": 5, "groups": [["v0"], []]}]}},
         "partition groups must be non-empty lists"),
        ({"preset": ["smoke"]}, "unknown preset"),
    ],
)
def test_types_and_keys_checked_at_every_level(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfg(**overrides)


def test_gas_costs_must_fit_the_encoded_u64():
    with pytest.raises(ConfigError, match="exceeds the u64"):
        cfg(gas={"base": 2**69}, block_gas_limit=2**70)
    # publish, two writes, is the costliest operation: 2**63 + 40,000.
    assert cfg(gas={"base": 2**63}, block_gas_limit=2**63 + 40_000).gas.base == 2**63


def test_config_doc_tables_match_schema():
    # The key tables in docs/config.md are generated; regenerate with
    # PYTHONPATH=src python -c "from pathlib import Path; from pactsim.config import render_doc;
    #   p = Path('docs/config.md'); p.write_text(render_doc(p.read_text()))"
    doc = Path(__file__).resolve().parent.parent / "docs" / "config.md"
    text = doc.read_text()
    sections = {f.path.rpartition(".")[0] for f in FIELDS}
    assert set(re.findall(r"<!-- fields ?(\S*) -->", text)) == sections
    assert render_doc(text) == text


# -- workload ---------------------------------------------------------


def test_unknown_workload_key():
    with pytest.raises(ConfigError, match="unknown workload keys: tempo"):
        cfg(workload={"tempo": 3})


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"providers": -1}, "workload.providers must be >= 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"publishes_per_provider": 6}, "at most five services"),
        ({"providers": 0, "selects_per_consumer": 1}, "at least one provider"),
        ({"publishes_per_provider": 0, "selects_per_consumer": 1}, "published services"),
    ],
)
def test_workload_consistency(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfg(workload=overrides)


def test_workload_needs_member_nodes():
    with pytest.raises(ConfigError, match="at least one member node"):
        cfg(member_nodes=0)


def test_private_workload_needs_two_member_nodes():
    with pytest.raises(ConfigError, match="two member nodes"):
        cfg(member_nodes=1)


def test_empty_workload_allows_zero_member_nodes():
    c = cfg(member_nodes=0, workload={"providers": 0, "consumers": 0,
                                      "publishes_per_provider": 0,
                                      "selects_per_consumer": 0,
                                      "breaches_per_group": 0})
    assert c.workload.empty
    assert not c.workload.has_private


# -- faults -----------------------------------------------------------


def test_crash_requires_exactly_one_target_form():
    with pytest.raises(ConfigError, match="either a node or a proposer_of_height"):
        cfg(faults={"crashes": [{"at_ms": 5, "node": "v0", "proposer_of_height": 1}]})
    with pytest.raises(ConfigError, match="either a node or a proposer_of_height"):
        cfg(faults={"crashes": [{"at_ms": 5}]})


def test_crash_target_must_exist():
    with pytest.raises(ConfigError, match="not a node"):
        cfg(faults={"crashes": [{"at_ms": 5, "node": "v9"}]})


def test_crash_needs_at_ms():
    with pytest.raises(ConfigError, match="at_ms"):
        cfg(faults={"crashes": [{"node": "v0"}]})


def test_byzantine_must_name_a_validator():
    with pytest.raises(ConfigError, match="not a validator"):
        cfg(faults={"byzantine": [{"node": "m0", "strategy": "echo"}]})


def test_byzantine_strategy_checked():
    with pytest.raises(ConfigError, match="unknown byzantine strategy"):
        cfg(faults={"byzantine": [{"node": "v1", "strategy": "stall"}]})


def test_duplicate_byzantine_rejected():
    with pytest.raises(ConfigError, match="duplicate byzantine"):
        cfg(faults={"byzantine": [
            {"node": "v1", "strategy": "echo"},
            {"node": "v1", "strategy": "withhold"},
        ]})


def test_partition_validation():
    nodes = ["v0", "v1", "v2", "v3", "m0", "m1", "m2"]
    with pytest.raises(ConfigError, match="from_ms < to_ms"):
        cfg(faults={"partitions": [{"from_ms": 10, "to_ms": 10, "groups": [nodes[:4], nodes[4:]]}]})
    with pytest.raises(ConfigError, match="at least two groups"):
        cfg(faults={"partitions": [{"from_ms": 0, "to_ms": 10, "groups": [nodes]}]})
    with pytest.raises(ConfigError, match="appears in two partition groups"):
        cfg(faults={"partitions": [{"from_ms": 0, "to_ms": 10, "groups": [nodes, nodes]}]})
    with pytest.raises(ConfigError, match="cover every node"):
        cfg(faults={"partitions": [{"from_ms": 0, "to_ms": 10, "groups": [nodes[:3], nodes[3:6]]}]})


def test_valid_fault_plan_parses():
    c = cfg(faults={
        "crashes": [{"at_ms": 500, "proposer_of_height": 2}],
        "byzantine": [{"node": "v1", "strategy": "equivocate"}],
        "partitions": [{"from_ms": 0, "to_ms": 10,
                        "groups": [["v0", "v1"], ["v2", "v3", "m0", "m1", "m2"]]}],
    })
    assert c.faults.crashes[0].proposer_of_height == 2
    assert c.faults.byzantine[0].strategy == "equivocate"
    assert c.faults.partitions[0].groups == (("v0", "v1"), ("v2", "v3", "m0", "m1", "m2"))


# -- run section ------------------------------------------------------


def test_run_section_validation():
    with pytest.raises(ConfigError, match="unknown run keys"):
        cfg(run={"wall_ms": 5})
    with pytest.raises(ConfigError, match="max_virtual_ms must be positive"):
        cfg(run={"max_virtual_ms": 0})
    with pytest.raises(ConfigError, match="grace_ms"):
        cfg(run={"grace_ms": -1})
    with pytest.raises(ConfigError, match="target_heights"):
        cfg(run={"target_heights": 0})
    assert cfg(run={"target_heights": 3}).run.target_heights == 3


# -- YAML loading -----------------------------------------------------


def test_load_config_from_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "preset: smoke\n"
        "block_interval_ms: 750\n"
        "workload:\n"
        "  providers: 3\n"
    )
    c = load_config(str(path))
    assert c.block_interval_ms == 750
    assert c.workload.providers == 3
    assert c.workload.consumers == 2


def test_a_config_from_a_mapping_never_imports_yaml():
    # A fresh interpreter: this one may have imported yaml already.
    code = (
        "import sys\n"
        "import pactsim.scenario\n"
        "from pactsim.config import config_from_dict\n"
        "config_from_dict({'preset': 'smoke'})\n"
        "print('yaml' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/scenario.yaml")


def test_load_config_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("workload: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(str(path))


def test_load_config_empty_file_lacks_required_fields(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    with pytest.raises(ConfigError, match="validators must be an integer"):
        load_config(str(path))


# -- property: every mapping either loads and runs, or is refused -------

WRONG = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)
NAMES = st.sampled_from(("v0", "v1", "v2", "v3", "v5", "m0", "m1", "m2", "m4"))
SMOKE_NODES = ("v0", "v1", "v2", "v3", "m0", "m1", "m2")


def value(valid, out_of_range=None):
    """Mostly a valid value; one time in 60 a wrong type, one in 60 an out-of-range integer."""
    return st.integers(0, 59).flatmap(
        lambda i: WRONG if i == 0 else out_of_range if i == 1 and out_of_range is not None else valid
    )


def misspell(pair):
    mapping, key = pair
    if key in mapping:
        mapping = dict(mapping)
        mapping[key[:-1]] = mapping.pop(key)
    return mapping


def section(keys, required=()):
    """Some of `keys`, each drawn from its strategy; now and then one misspelled."""
    mapping = st.fixed_dictionaries(
        {k: keys[k] for k in required},
        optional={k: s for k, s in keys.items() if k not in required},
    )
    typo = st.integers(0, 39).flatmap(lambda i: st.sampled_from(sorted(keys)) if i == 0 else st.none())
    return st.tuples(mapping, typo).map(misspell)


MS = st.integers(0, 30_000)
MODEL = st.one_of(
    section({"kind": st.just("fixed"), "value": value(st.integers(0, 400), st.just(-1))}),
    section({"kind": st.just("uniform"), "low": value(st.integers(0, 400), st.just(-1)),
             "high": value(st.integers(0, 1200), st.just(2**62 + 1))}),
    section({"kind": st.sampled_from(("lognormal", "pareto")),
             "median": value(st.floats(1, 900), st.just(0)), "sigma": value(st.floats(0, 2), st.just(-1))}),
)
GROUPS = st.one_of(
    st.permutations(SMOKE_NODES).flatmap(lambda p: st.integers(1, 6).map(lambda k: [p[:k], p[k:]])),
    st.lists(st.lists(NAMES, max_size=3), max_size=3),
)
COUNT = value(st.integers(0, 3), st.just(-1))
AT_MS = value(MS, st.just(-1))
HEIGHT = value(st.integers(1, 6), st.just(0))
CRASH_NODE = section({"at_ms": AT_MS, "node": value(NAMES)}, required=("at_ms", "node"))
CRASH_PROPOSER = section({"at_ms": AT_MS, "proposer_of_height": HEIGHT}, required=("at_ms", "proposer_of_height"))
CRASH_ANY = section({"at_ms": AT_MS, "node": value(NAMES), "proposer_of_height": HEIGHT})
BYZANTINE = section(
    {"node": value(st.sampled_from(SMOKE_NODES[:4])), "strategy": value(st.sampled_from(STRATEGY_NAMES))},
    required=("node", "strategy"),
)
PARTITION = section(
    {"from_ms": value(MS, st.just(-1)), "to_ms": value(MS, st.just(2**62 + 1)), "groups": value(GROUPS)},
    required=("from_ms", "to_ms", "groups"),
)
CONFIGS = section(
    {
        "validators": value(st.integers(1, 5), st.sampled_from((0, 65))),
        "member_nodes": value(st.integers(0, 3), st.just(-1)),
        "block_interval_ms": value(st.integers(500, 2000), st.sampled_from((0, 2**62 + 1))),
        "base_round_timeout_ms": value(st.integers(300, 4000), st.just(0)),
        "block_gas_limit": value(st.integers(20_000, 10**7), st.just(0)),
        "gas": value(section({
            "base": value(st.integers(1, 30_000), st.sampled_from((0, 2**64))),
            "per_write": value(st.integers(1, 30_000), st.just(0)),
            "per_read": value(st.integers(1, 3000), st.just(-1)),
        })),
        "latency": value(section({"consensus": MODEL, "rpc": MODEL, "enclave_transfer": MODEL})),
        "enclave_retry_probability": value(st.floats(0, 0.99), st.sampled_from((-0.5, 1.0))),
        "workload": value(section({
            "providers": COUNT,
            "consumers": COUNT,
            "publishes_per_provider": value(st.integers(0, 2), st.just(6)),
            "selects_per_consumer": COUNT,
            "breaches_per_group": COUNT,
            "batches_per_group": COUNT,
            "batch_size": value(st.integers(1, 4), st.just(0)),
        })),
        "faults": value(section({
            "crashes": value(st.lists(st.one_of(CRASH_NODE, CRASH_PROPOSER, CRASH_ANY), max_size=2)),
            "byzantine": value(st.lists(BYZANTINE, max_size=2, unique_by=lambda e: str(e.get("node")))),
            "partitions": value(st.lists(PARTITION, max_size=1)),
        })),
        # The only long-running input is max_virtual_ms: keep it short.
        "run": section(
            {
                "max_virtual_ms": value(st.one_of(st.integers(1, 60_000), st.just(60_000)), st.sampled_from((0, 2**62 + 1))),
                "grace_ms": value(st.integers(0, 2000), st.just(-1)),
                "target_heights": value(st.integers(1, 4), st.just(0)),
            },
            required=("max_virtual_ms",),
        ),
    },
    required=("faults", "run"),
).map(lambda raw: {"preset": "smoke", **raw})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(CONFIGS)
def test_any_mapping_is_refused_or_runs(raw):
    try:
        config = config_from_dict(raw)
    except ConfigError:
        return
    run_scenario(config, seed=1)


# -- property: the gas rules, on both sides of each --------------------

U64 = 2**64
# A gas part is small, or large enough that an operation's price can pass the u64.
GAS_PART = st.one_of(st.integers(1, 30_000), st.integers(2**62, 2**63))


@st.composite
def gas_and_limit(draw):
    """Gas parts, and a block limit one below, at or one above some operation's price,
    the costliest one half the time."""
    gas = {key: draw(GAS_PART) for key in ("base", "per_write", "per_read")}
    prices = sorted(table_prices(gas).values())
    edge = draw(st.one_of(st.just(prices[-1]), st.sampled_from(prices)))
    return gas, max(1, edge + draw(st.integers(-1, 1)))


def table_prices(gas: dict) -> dict:
    """Each operation's price from the table's I/O, independently of `GasSchedule.price`."""
    return {key: gas["base"] + op.writes * gas["per_write"] + op.reads * gas["per_read"] for key, op in OPS.items()}


def first_broken_gas_rule(gas: dict, limit: int) -> str | None:
    for (contract, function), price in table_prices(gas).items():
        if price >= U64:
            return f"{contract}.{function} exceeds the u64"
        if price > limit:
            return f"{contract}.{function} costs {price} gas, more than block_gas_limit {limit};"
    return None


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@example(({"base": U64 - 1 - 40_000, "per_write": 20_000, "per_read": 2_100}, U64 - 1))
@example(({"base": U64 - 40_000, "per_write": 20_000, "per_read": 2_100}, U64))
@given(gas_and_limit())
def test_gas_rules_refuse_exactly_the_unpriceable(drawn):
    gas, limit = drawn
    raw = {"preset": "smoke", "gas": gas, "block_gas_limit": limit}
    broken = first_broken_gas_rule(gas, limit)
    if broken is not None:
        with pytest.raises(ConfigError, match=re.escape(broken)):
            config_from_dict(raw)
        return
    config = config_from_dict(raw)
    assert {key: config.gas.price(*key) for key in OPS} == table_prices(gas)
    result = run_scenario(config, seed=1)
    assert result.completed and result.summary["unresolved_samples"] == 0
    assert result.summary["safety_violations"] == []
