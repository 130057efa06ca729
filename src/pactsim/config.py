"""Scenario configuration: schema, presets, validation, YAML loading.

A configuration fully determines a run together with the seed.  The
`paper-default` preset models a small permissioned deployment: four
validators, three member nodes hosting the provider and consumer
domains, five-second blocks, and enclave transfer times that dominate
private-payload delivery.

`FIELDS` is the schema: every key, with its type, bounds and default.
`config_from_dict` walks a mapping against it, builds the frozen
dataclasses below, and then checks the few rules that span fields.
"""

from __future__ import annotations

import copy
import json
import operator
import re
from dataclasses import dataclass
from typing import Callable

from .consensus import STRATEGY_NAMES
from .contracts import OP_IO, GasSchedule
from .simulation import Fixed, LatencyModel, LogNormal, Uniform


class ConfigError(ValueError):
    """The configuration is structurally or semantically invalid."""


def deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# A preset holds the required keys and what differs from the defaults in `FIELDS`.
PRESETS: dict[str, dict] = {
    "paper-default": {
        "validators": 4,
        "member_nodes": 3,
        "block_interval_ms": 5000,
        "base_round_timeout_ms": 10000,
        "block_gas_limit": 8_000_000,
        "workload": {
            "providers": 40,
            "consumers": 40,
            "publishes_per_provider": 2,
            "selects_per_consumer": 2,
            "breaches_per_group": 3,
        },
    },
}
PRESETS["smoke"] = deep_merge(PRESETS["paper-default"], {
    "block_interval_ms": 1000,
    "base_round_timeout_ms": 4000,
    "workload": {
        "providers": 2,
        "consumers": 2,
        "publishes_per_provider": 1,
        "selects_per_consumer": 1,
        "breaches_per_group": 1,
        "batch_size": 3,
    },
    "run": {"max_virtual_ms": 600_000},
})

LATENCY_KINDS = {"fixed": Fixed, "uniform": Uniform, "lognormal": LogNormal}

# Every millisecond value stays within 2**62: a block timestamp, at most
# max_virtual_ms + block_interval_ms, then fits the u64 a header encodes,
# and a uniform draw fits the int64 numpy samples in.
MAX_MS = 2**62
# A lognormal shape beyond this can draw delays that overflow a float.
MAX_SIGMA = 10


@dataclass(frozen=True)
class WorkloadSpec:
    providers: int
    consumers: int
    publishes_per_provider: int
    selects_per_consumer: int
    breaches_per_group: int
    batches_per_group: int
    batch_size: int

    @property
    def empty(self) -> bool:
        return self.providers == 0 and self.consumers == 0

    @property
    def has_private(self) -> bool:
        return self.selects_per_consumer > 0 and self.consumers > 0


@dataclass(frozen=True)
class CrashSpec:
    at_ms: int
    node: str | None
    proposer_of_height: int | None


@dataclass(frozen=True)
class ByzantineSpec:
    node: str
    strategy: str


@dataclass(frozen=True)
class PartitionSpec:
    from_ms: int
    to_ms: int
    groups: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FaultPlan:
    crashes: tuple[CrashSpec, ...]
    byzantine: tuple[ByzantineSpec, ...]
    partitions: tuple[PartitionSpec, ...]


@dataclass(frozen=True)
class RunSpec:
    max_virtual_ms: int
    grace_ms: int
    target_heights: int | None


@dataclass(frozen=True)
class ScenarioConfig:
    validators: int
    member_nodes: int
    block_interval_ms: int
    base_round_timeout_ms: int
    block_gas_limit: int
    gas: GasSchedule
    consensus_latency: LatencyModel
    rpc_latency: LatencyModel
    enclave_transfer: Uniform
    enclave_retry_probability: float
    workload: WorkloadSpec
    faults: FaultPlan
    run: RunSpec

    @property
    def validator_names(self) -> tuple[str, ...]:
        return tuple(f"v{i}" for i in range(self.validators))

    @property
    def member_names(self) -> tuple[str, ...]:
        return tuple(f"m{i}" for i in range(self.member_nodes))

    @property
    def node_names(self) -> tuple[str, ...]:
        return self.validator_names + self.member_names


REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One configuration key.

    `path` is dotted: `[]` stands for each entry of a list, `*` for each
    latency model (its parameters belong to one model `kind`).  `type`
    names a reader in `_READERS`; `build` makes a map's values, or each
    list entry's, into an object.  `ge`/`gt`/`le`/`lt` bound numbers, and
    `rule`, when set, says why instead of the generic bound message.
    """

    path: str
    type: str
    default: object = REQUIRED
    ge: int | None = None
    gt: int | None = None
    le: int | None = None
    lt: int | None = None
    choices: tuple[str, ...] = ()
    kind: str = ""
    build: Callable | None = None
    rule: str = ""
    doc: str = ""


GAS_RULE = "gas costs must be positive"

FIELDS: tuple[Field, ...] = (
    Field("preset", "enum", None, choices=tuple(PRESETS), doc="the other keys override it"),
    Field("validators", "int", ge=1, le=64, doc="named `v0..v{n-1}`"),
    Field("member_nodes", "int", ge=0, le=64, doc="non-validating nodes, named `m0..m{k-1}`"),
    Field("block_interval_ms", "int", ge=1, le=MAX_MS, doc="IBFT 2.0 block period"),
    Field("base_round_timeout_ms", "int", ge=1, le=MAX_MS, doc="round-0 timeout; doubles per round"),
    Field("block_gas_limit", "int", ge=1, doc="at least the cost of every operation"),
    Field("gas", "map", {}, build=GasSchedule, doc="costs of the metered operations"),
    Field("gas.base", "int", 21_000, ge=1, rule=GAS_RULE, doc="flat cost of any transaction"),
    Field("gas.per_write", "int", 20_000, ge=1, rule=GAS_RULE, doc="cost per state write"),
    Field("gas.per_read", "int", 2_100, ge=1, rule=GAS_RULE, doc="cost per state read"),
    Field("latency", "map", {}, doc="delay models, in ms"),
    Field("latency.consensus", "model", {"kind": "uniform", "low": 600, "high": 1000},
          choices=tuple(LATENCY_KINDS), doc="validator-to-validator message delay"),
    Field("latency.rpc", "model", {"kind": "fixed", "value": 50},
          choices=tuple(LATENCY_KINDS), doc="client submission and gossip delay"),
    Field("latency.enclave_transfer", "model", {"kind": "uniform", "low": 400, "high": 2600},
          choices=("uniform",), doc="one leg of a private payload push or ack"),
    Field("latency.*.value", "int", ge=0, le=MAX_MS, kind="fixed", doc="the delay"),
    Field("latency.*.low", "int", ge=0, le=MAX_MS, kind="uniform", doc="least delay, at most `high`"),
    Field("latency.*.high", "int", ge=0, le=MAX_MS, kind="uniform", doc="greatest delay"),
    Field("latency.*.median", "float", gt=0, le=MAX_MS, kind="lognormal", doc="median delay"),
    Field("latency.*.sigma", "float", ge=0, le=MAX_SIGMA, kind="lognormal", doc="shape"),
    Field("enclave_retry_probability", "float", 0.15, ge=0, lt=1,
          doc="chance a payload push is lost and retried once"),
    Field("workload", "map", {}, build=WorkloadSpec, doc="client activity"),
    Field("workload.providers", "int", 0, ge=0, doc="provider identities to register"),
    Field("workload.consumers", "int", 0, ge=0, doc="consumer identities to register"),
    Field("workload.publishes_per_provider", "int", 0, ge=0, le=5,
          rule="a provider may offer at most five services", doc="services each provider lists"),
    Field("workload.selects_per_consumer", "int", 0, ge=0, doc="services each consumer picks"),
    Field("workload.breaches_per_group", "int", 0, ge=0, doc="single breach reports per privacy group"),
    Field("workload.batches_per_group", "int", 0, ge=0, doc="batched report submissions per group"),
    Field("workload.batch_size", "int", 10, ge=1, doc="reports per batch"),
    Field("faults", "map", {}, build=FaultPlan, doc="adversity"),
    Field("faults.crashes", "list", (), build=CrashSpec, doc="nodes that stop"),
    Field("faults.crashes[].at_ms", "int", ge=0, le=MAX_MS, doc="when the node stops"),
    Field("faults.crashes[].node", "str", None, doc="node to stop, or else"),
    Field("faults.crashes[].proposer_of_height", "int", None, ge=1, doc="stop whoever proposes round 0 of it"),
    Field("faults.byzantine", "list", (), build=ByzantineSpec, doc="misbehaving validators"),
    Field("faults.byzantine[].node", "str", doc="a validator"),
    Field("faults.byzantine[].strategy", "enum", choices=STRATEGY_NAMES, doc="how it misbehaves"),
    Field("faults.partitions", "list", (), build=PartitionSpec, doc="network splits"),
    Field("faults.partitions[].from_ms", "int", ge=0, le=MAX_MS, doc="split starts"),
    Field("faults.partitions[].to_ms", "int", ge=0, le=MAX_MS, doc="split heals; after `from_ms`"),
    Field("faults.partitions[].groups", "groups", doc="lists of node names"),
    Field("run", "map", {}, build=RunSpec, doc="stopping rules"),
    Field("run.max_virtual_ms", "int", 3_600_000, gt=0, le=MAX_MS, doc="hard wall on virtual time"),
    Field("run.grace_ms", "int", 5000, ge=0, le=MAX_MS, doc="settling time after the last operation"),
    Field("run.target_heights", "int", None, ge=1, doc="stop after this many finalized blocks"),
)

# Table path of a mapping -> its keys.
_CHILDREN: dict[str, dict[str, Field]] = {}
for _field in FIELDS:
    _parent, _, _key = _field.path.rpartition(".")
    _CHILDREN.setdefault(_parent, {})[_key] = _field


def preset_dict(name: str) -> dict:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return copy.deepcopy(PRESETS[name])


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# -- the walker -------------------------------------------------------


def _walk(raw: object, fields: dict[str, Field], where: str) -> dict:
    """Check one mapping against `fields`; return every key's value, defaults filled."""
    _require(isinstance(raw, dict), f"{where} must be a mapping")
    unknown = sorted(str(key) for key in raw if key not in fields)
    if unknown:
        paths = f" ({', '.join(f'{where}.{key}' for key in unknown)})" if where else ""
        raise ConfigError(f"unknown {where or 'configuration'} keys: {', '.join(unknown)}{paths}")
    out = {}
    for key, f in fields.items():
        value = raw.get(key, f.default)
        if value is REQUIRED:
            value = None
        at = f"{where}.{key}" if where else key
        out[key] = None if value is None and f.default is None else _READERS[f.type](f, value, at)
    return out


_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le), ("lt", "<", operator.lt))
_SCALARS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"), "str": ((str,), "a string")}


def _bound_phrase(sign: str, limit: int) -> str:
    if (sign, limit) == (">", 0):
        return "positive"
    return f"{sign} {f'2**{MAX_MS.bit_length() - 1}' if limit == MAX_MS else limit}"


def _read_scalar(f: Field, value, where: str):
    types, noun = _SCALARS[f.type]
    _require(isinstance(value, types) and not isinstance(value, bool), f"{where} must be {noun}")
    for name, sign, holds in _BOUNDS:
        limit = getattr(f, name)
        if limit is not None and not holds(value, limit):
            raise ConfigError(f"{where} is {value!r}, but {f.rule}" if f.rule
                              else f"{where} must be {_bound_phrase(sign, limit)}")
    return float(value) if f.type == "float" else value


def _read_enum(f: Field, value, where: str) -> str:
    noun = " ".join(f.path.replace("[]", "").split(".")[-2:])
    _require(isinstance(value, str) and value in f.choices,
             f"unknown {noun} {value!r} at {where}; expected one of {', '.join(f.choices)}")
    return value


def _read_map(f: Field, value, where: str):
    values = _walk(value, _CHILDREN[f.path], where)
    return f.build(**values) if f.build else values


def _read_list(f: Field, value, where: str) -> tuple:
    _require(isinstance(value, (list, tuple)), f"{where} must be a list")
    return tuple(f.build(**_walk(item, _CHILDREN[f.path + "[]"], f"{where}[{i}]")) for i, item in enumerate(value))


def _read_groups(f: Field, value, where: str) -> tuple[tuple[str, ...], ...]:
    ok = isinstance(value, (list, tuple)) and all(
        isinstance(group, (list, tuple)) and group and all(isinstance(name, str) for name in group) for group in value
    )
    _require(ok, f"{where}: partition groups must be non-empty lists of node names")
    return tuple(tuple(group) for group in value)


def _read_model(f: Field, value, where: str) -> LatencyModel:
    """A latency model; one of the default's kind inherits the parameters it leaves out."""
    _require(isinstance(value, dict), f"{where} must be a mapping")
    if value.get("kind", f.default["kind"]) == f.default["kind"]:
        value = {**f.default, **value}
    kind = value["kind"]
    _require(isinstance(kind, str) and kind in f.choices,
             f"bad latency model: {where} must be a {' or '.join(f.choices)} model, got kind {kind!r}")
    params = {key: p for key, p in _CHILDREN["latency.*"].items() if p.kind == kind}
    model = LATENCY_KINDS[kind](**_walk({k: v for k, v in value.items() if k != "kind"}, params, where))
    _require(not isinstance(model, Uniform) or model.low <= model.high, f"{where}: low must be in [0, high]")
    return model


_READERS = {
    "int": _read_scalar,
    "float": _read_scalar,
    "str": _read_scalar,
    "enum": _read_enum,
    "map": _read_map,
    "list": _read_list,
    "groups": _read_groups,
    "model": _read_model,
}


# -- configurations ---------------------------------------------------


def config_from_dict(raw: dict) -> ScenarioConfig:
    _require(isinstance(raw, dict), "configuration must be a mapping")
    if raw.get("preset") is not None:
        raw = deep_merge(preset_dict(raw["preset"]), raw)
    values = _walk(raw, _CHILDREN[""], "")
    del values["preset"]
    latency = values.pop("latency")
    config = ScenarioConfig(
        **values,
        consensus_latency=latency["consensus"],
        rpc_latency=latency["rpc"],
        enclave_transfer=latency["enclave_transfer"],
    )
    _check_rules(config)
    return config


def _check_rules(c: ScenarioConfig) -> None:
    """The rules that span several fields."""
    for (contract, function), (writes, reads) in OP_IO.items():
        cost = c.gas.cost(writes, reads)
        _require(cost < 2**64, f"gas.base + {writes} * gas.per_write + {reads} * gas.per_read = {cost} "
                               f"for {contract}.{function} exceeds the u64 a transaction's gas limit encodes")
        _require(cost <= c.block_gas_limit, f"{contract}.{function} costs {cost} gas, more than "
                                            f"block_gas_limit {c.block_gas_limit}; no block could hold it")

    wl = c.workload
    if wl.selects_per_consumer > 0:
        _require(wl.providers > 0, "selections require at least one provider")
        _require(wl.publishes_per_provider > 0, "selections require published services")
    if not wl.empty:
        _require(c.member_nodes >= 1, "workload requires at least one member node")
    if wl.has_private:
        _require(c.member_nodes >= 2,
                 "private workload requires at least two member nodes so group members sit on distinct nodes")

    for i, crash in enumerate(c.faults.crashes):
        _require((crash.node is None) != (crash.proposer_of_height is None),
                 f"faults.crashes[{i}]: a crash names either a node or a proposer_of_height")
        _require(crash.node in (None, *c.node_names), f"faults.crashes[{i}]: crash target {crash.node!r} is not a node")
    byz_nodes = [entry.node for entry in c.faults.byzantine]
    for i, node in enumerate(byz_nodes):
        _require(node in c.validator_names, f"faults.byzantine[{i}]: byzantine node {node!r} is not a validator")
        _require(node not in byz_nodes[:i], f"faults.byzantine[{i}]: duplicate byzantine entry for {node!r}")
    for i, part in enumerate(c.faults.partitions):
        where = f"faults.partitions[{i}]"
        _require(part.from_ms < part.to_ms, f"{where}: partition needs 0 <= from_ms < to_ms")
        _require(len(part.groups) >= 2, f"{where}: partition needs at least two groups")
        seen: set[str] = set()
        for name in (name for group in part.groups for name in group):
            _require(name in c.node_names, f"{where}: partition member {name!r} is not a node")
            _require(name not in seen, f"{where}: node {name!r} appears in two partition groups")
            seen.add(name)
        _require(seen == set(c.node_names), f"{where}: partition groups must cover every node")


def load_config(path: str) -> ScenarioConfig:
    # Imported here: only a config file needs YAML, and a run built from
    # a mapping should not pay for the import.
    import yaml

    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"invalid YAML in {path}: {err}") from None
    if raw is None:
        raw = {}
    return config_from_dict(raw)


# -- docs/config.md ---------------------------------------------------


def _doc_row(key: str, f: Field) -> str:
    bounds = [_bound_phrase(sign, getattr(f, name)) for name, sign, _ in _BOUNDS if getattr(f, name) is not None]
    if f.choices:
        bounds.append("one of " + ", ".join(f"`{choice}`" for choice in f.choices))
    if f.default is REQUIRED:
        default = "required"
    elif f.default in (None, {}, ()):
        default = ""
    else:
        default = f"`{json.dumps(f.default)}`"
    notes = "; ".join(filter(None, [f.kind and f"`{f.kind}` only", f.doc, f.rule]))
    return f"| `{key}` | {f.type} | {default} | {', '.join(bounds)} | {notes} |\n"


def render_doc(text: str) -> str:
    """Regenerate the key table after each `<!-- fields PATH -->` line of a document from `FIELDS`."""

    def table(match: re.Match) -> str:
        rows = "".join(_doc_row(key, f) for key, f in _CHILDREN[match[1]].items())
        return f"{match[0].splitlines()[0]}\n| key | type | default | bounds | notes |\n|---|---|---|---|---|\n{rows}"

    return re.sub(r"<!-- fields ?(\S*) -->\n(?:\|.*\n)*", table, text)
