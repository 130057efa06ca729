"""Scenario assembly and the staged workload.

A run wires up validators and member nodes, hosts provider domains
round-robin on all member nodes but the last and consumer domains on
the last, then drives the service lifecycle in stages: every domain
registers, providers publish services, consumers select one, each new
consumer/provider pair gets a privacy group, the consumer deploys the
group's private ledger, and providers report breaches, individually or
batched.  Each stage starts once every receipt from the previous stage
has resolved at the submitting node.  A stage only names its
operations: each is either a public call (`WorkloadDriver._submit`) or
a private operation distributed to its group and anchored by a marker
(`WorkloadDriver._submit_private`).  A private operation's enclave
transfer is drawn when it is submitted, so the stage loops' fixed order
fixes each payload's delays.  The driver keeps each private operation
it encodes, with its group and bytes, in the run's `Cluster.sent_ops`
under the hash of the payload that carries it: that table is the run's
one record of what was sent, and a member whose payload opens to those
bytes takes that operation instead of parsing them again.

Submission instants inside a stage are jittered uniformly across one
block interval, so arrivals hit the block cadence at random offsets.

A run is one `RunResult`: `assemble` builds its parts, and
`run_scenario` drives it and records the outcome on the same object.
The driver reads the formed groups from the run's `GroupDirectory`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .config import ScenarioConfig, read_field
from .consensus import IbftValidator, Message, message_wire
from .contracts import (
    MARKER,
    AgreementRecord,
    BreachRecord,
    OpBatch,
    OpBreach,
    OpInit,
    PrivateOp,
    Role,
    public_call,
)
from .encoding import digest, enc_list, enc_u64
from .identity import Credential, ValidatorSet
from .ledger import Block, PrivacyMarker, PublicCall, Transaction, block_wire, make_transaction
from .metrics import LatencySample, MetricsCollector
from .node import Cluster, NodeRuntime
from .privacy import GroupDirectory, GroupInfo, PayloadCourier, StoredPayload, encode_wire
from .simulation import (
    STREAM_CONSENSUS,
    STREAM_KEYS,
    STREAM_RPC,
    STREAM_WORKLOAD,
    Network,
    RngHub,
    Simulator,
    block_draws,
    doubles,
)


@dataclass
class Domain:
    """A provider or consumer organization hosted on one member node."""

    name: str
    credential: Credential
    node_name: str
    role: Role
    next_nonce: int = 0

    @property
    def address(self) -> bytes:
        return self.credential.address

    def take_nonce(self) -> int:
        n = self.next_nonce
        self.next_nonce += 1
        return n


@dataclass
class RunResult:
    """One run: its parts, built by `assemble` before any event fires,
    then its outcome (`driver`, `completed`, `summary`, `out_dir`),
    filled in by `run_scenario`."""

    config: ScenarioConfig
    seed: int
    sim: Simulator
    rng_hub: RngHub
    metrics: MetricsCollector
    cluster: Cluster
    validator_set: ValidatorSet
    directory: GroupDirectory
    courier: PayloadCourier
    providers: list[Domain]
    consumers: list[Domain]
    driver: WorkloadDriver | None = None
    completed: bool = False
    summary: dict = field(default_factory=dict)
    out_dir: Path | None = None


def wire_bytes(item: object) -> bytes:
    """The bytes `item` crosses the network as (docs/encoding.md, "What
    crosses the network").  A run with `capture_wire` logs items, not
    bytes; this is the one place a logged item is serialized."""
    if isinstance(item, Transaction):
        return item.encode()
    if isinstance(item, Block):
        return block_wire(item)
    if isinstance(item, tuple) and all(isinstance(b, Block) for b in item):
        return enc_list(map(block_wire, item))
    if isinstance(item, StoredPayload):
        return encode_wire(item)
    if isinstance(item, int):
        return enc_u64(item)
    if isinstance(item, bytes):
        return item
    if isinstance(item, Message):
        return message_wire(item)
    raise TypeError(f"no wire form for {type(item).__name__}")


def assemble(
    config: ScenarioConfig,
    seed: int,
    trace: bool = False,
    capture_wire: bool = False,
) -> RunResult:
    sim = Simulator(trace_enabled=trace)
    rng_hub = RngHub(seed)
    metrics = MetricsCollector()
    network = Network(sim, rng_hub)
    if capture_wire:
        network.wire_log = []
    network.add_channel("consensus", config.consensus_latency, STREAM_CONSENSUS)
    network.add_channel("rpc", config.rpc_latency, STREAM_RPC)

    validator_creds = [
        Credential.from_seed_bytes(rng_hub.key_bytes(STREAM_KEYS, 1, i, n=32))
        for i in range(config.validators)
    ]
    validator_set = ValidatorSet(tuple((c.address, c.public_key) for c in validator_creds))

    cluster = Cluster(network, metrics, dict(zip(validator_set.addresses, config.validator_names)))
    for name in config.node_names:
        node = NodeRuntime(name, sim, network, validator_set, config.gas, config.block_gas_limit)
        cluster.add_node(node)

    byz_by_node = {b.node: b.strategy for b in config.faults.byzantine}
    for name, credential in zip(config.validator_names, validator_creds):
        node = cluster.nodes[name]
        node.validator = IbftValidator(node, credential, config, byz_by_node.get(name))

    directory = GroupDirectory(rng_hub)
    courier = PayloadCourier(
        network=network,
        rng_hub=rng_hub,
        enclaves={name: cluster.nodes[name].enclave for name in config.node_names},
        transfer_model=config.enclave_transfer,
        retry_probability=config.enclave_retry_probability,
    )

    providers: list[Domain] = []
    consumers: list[Domain] = []
    members = config.member_names
    if members:
        provider_hosts = members[:-1] if len(members) >= 2 else members
        consumer_host = members[-1]
        for i in range(config.workload.providers):
            cred = Credential.from_seed_bytes(rng_hub.key_bytes(STREAM_KEYS, 2, i, n=32))
            providers.append(
                Domain(
                    name=f"p{i}",
                    credential=cred,
                    node_name=provider_hosts[i % len(provider_hosts)],
                    role=Role.PROVIDER,
                )
            )
        for j in range(config.workload.consumers):
            cred = Credential.from_seed_bytes(
                rng_hub.key_bytes(STREAM_KEYS, 2, config.workload.providers + j, n=32)
            )
            consumers.append(
                Domain(name=f"c{j}", credential=cred, node_name=consumer_host, role=Role.CONSUMER)
            )

    _schedule_faults(config, sim, network, cluster, validator_set)

    return RunResult(
        config=config,
        seed=seed,
        sim=sim,
        rng_hub=rng_hub,
        metrics=metrics,
        cluster=cluster,
        validator_set=validator_set,
        directory=directory,
        courier=courier,
        providers=providers,
        consumers=consumers,
    )


def _schedule_faults(
    config: ScenarioConfig,
    sim: Simulator,
    network: Network,
    cluster: Cluster,
    validator_set: ValidatorSet,
) -> None:
    for crash in config.faults.crashes:
        if crash.node is not None:
            target = crash.node
        else:
            target = cluster.name_of[validator_set.proposer_for(crash.proposer_of_height, 0)]
        sim.schedule_at(crash.at_ms, partial(network.crash, target))

    for i, part in enumerate(config.faults.partitions):
        sim.schedule_at(part.from_ms, partial(network.set_partition, part.groups, i))
        sim.schedule_at(part.to_ms, partial(network.set_partition, None, i))


class WorkloadDriver:
    """Drives the service lifecycle through its stages."""

    def __init__(self, run: RunResult):
        self.run = run
        self.config = run.config
        self.sim = run.sim
        self.cluster = run.cluster
        self.metrics = run.metrics
        self._uniforms = block_draws(partial(doubles, run.rng_hub.stream(STREAM_WORKLOAD)))
        self.window = self.config.block_interval_ms
        self._outstanding = 0
        self._stage_queue: list = []
        self.completed = False
        self.stage_log: list[tuple[str, int]] = []
        self.domains = {d.address: d for d in run.providers + run.consumers}

    # -- machinery ----------------------------------------------------

    def start(self) -> None:
        wl = self.config.workload
        stages = []
        if wl.providers or wl.consumers:
            stages.append(self._stage_register)
        if wl.publishes_per_provider and wl.providers:
            stages.append(self._stage_publish)
        if wl.selects_per_consumer and wl.consumers:
            stages.append(self._stage_select)
            stages.append(self._stage_deploy)
            if wl.breaches_per_group:
                stages.append(self._stage_breach)
            if wl.batches_per_group:
                stages.append(self._stage_batch)
        self._stage_queue = stages
        self.sim.schedule(0, self._advance)

    def _advance(self) -> None:
        if not self._stage_queue:
            self.completed = True
            self.sim.trace("workload_done")
            self.sim.schedule(self.config.run.grace_ms, self.sim.stop)
            return
        stage = self._stage_queue.pop(0)
        self.stage_log.append((stage.__name__.removeprefix("_stage_"), self.sim.now))
        stage()

    def _jitter(self) -> int:
        return int(next(self._uniforms) * self.window)

    def _task_done(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self.sim.schedule(0, self._advance)

    def _submit_and_wait(self, domain: Domain, tx: Transaction, on_final: Callable[[], None] | None = None) -> None:
        """Submit at the domain's node; the task ends when its receipt resolves."""
        def on_receipt(entry) -> None:
            if on_final is not None:
                on_final()
            self._task_done()

        self.cluster.nodes[domain.node_name].wait_for_receipt(tx.tx_id, on_receipt)
        self.cluster.submit(domain.node_name, tx)

    def _submit(self, domain: Domain, call: PublicCall, on_final: Callable[[], None] | None = None) -> None:
        """One public call, sampled as its function's kind: signed now, submitted at a jittered instant."""
        gas = self.config.gas.price(call.contract, call.function)
        tx = make_transaction(domain.credential, domain.take_nonce(), gas, call)
        self._outstanding += 1

        def fire() -> None:
            self.metrics.new_sample(tx.tx_id, call.function, self.sim.now)
            self._submit_and_wait(domain, tx, on_final)

        self.sim.schedule(self._jitter(), fire)

    def _submit_private(self, group: GroupInfo, sender: Domain, make_op: Callable[[], PrivateOp]) -> None:
        """One private operation, sampled as its `KIND`: transfer drawn now, sent at a jittered instant, anchored."""
        transfer = self.run.courier.draw_transfer()
        self._outstanding += 1

        def fire() -> None:
            op = make_op()
            # Registered in the event that sends the payload, so delivery
            # time less `submit_ms` is the enclave transfer time.
            sample = self.metrics.new_private_sample(op.KIND, self.sim.now, group.group_id)
            plaintext = op.encode()
            payload_hash = self.run.courier.distribute(
                group, sender.node_name, plaintext, transfer, partial(anchor, sample)
            )
            self.cluster.sent_ops[payload_hash] = (group.group_id, plaintext, op)

        def anchor(sample: LatencySample, payload_hash: bytes) -> None:
            self.metrics.on_delivered(sample, self.sim.now)
            tx = make_transaction(
                sender.credential,
                sender.take_nonce(),
                self.config.gas.price(*MARKER),
                PrivacyMarker(group_id=group.group_id, payload_hash=payload_hash),
            )
            self.metrics.bind_tx(sample, tx.tx_id)
            self._submit_and_wait(sender, tx)

        self.sim.schedule(self._jitter(), fire)

    def _ordered_groups(self) -> list[GroupInfo]:
        return sorted(self.run.directory.by_id.values(), key=lambda g: g.pair_index)

    def _stamped(self, reporter: Domain, details: Sequence[str]) -> tuple[BreachRecord, ...]:
        """Breach records stamped when their operation fires.

        The named tuple's `__new__` only binds the fields, so calling
        `tuple.__new__` on the class builds the same records without a
        Python frame for each.
        """
        address, now, new = reporter.address, self.sim.now, tuple.__new__
        return tuple([new(BreachRecord, (address, d, now)) for d in details])

    # -- stages -------------------------------------------------------

    def _stage_register(self) -> None:
        for domain in self.run.providers + self.run.consumers:
            self._submit(domain, public_call("registry", "register", int(domain.role)))

    def _stage_publish(self) -> None:
        for provider in self.run.providers:
            for j in range(self.config.workload.publishes_per_provider):
                name = f"{provider.name}-svc{j}"
                sla_hash = digest(f"sla terms for {name}".encode())
                self._submit(provider, public_call("catalog", "publish", name, sla_hash))

    def _stage_select(self) -> None:
        wl = self.config.workload
        for i, consumer in enumerate(self.run.consumers):
            for j in range(wl.selects_per_consumer):
                pair_index = wl.selects_per_consumer * i + j
                provider = self.run.providers[pair_index % len(self.run.providers)]
                call = public_call("selection", "select", provider.address, j % wl.publishes_per_provider)
                self._submit(consumer, call, partial(self._form_group, consumer, provider, pair_index))

    def _form_group(self, consumer: Domain, provider: Domain, pair_index: int) -> None:
        info, formed = self.run.directory.get_or_form(
            consumer=consumer.address,
            provider=provider.address,
            member_pubkeys=[consumer.credential.public_key, provider.credential.public_key],
            member_nodes=(consumer.node_name, provider.node_name),
            pair_index=pair_index,
        )
        if formed:
            for node_name in info.member_nodes:
                self.cluster.nodes[node_name].join_group(info)
            if self.sim.trace_enabled:
                self.sim.trace("group_formed", group=info.group_id.hex()[:16], pair=pair_index)

    def _stage_deploy(self) -> None:
        for group in self._ordered_groups():
            agreement = AgreementRecord(
                consumer=group.consumer,
                provider=group.provider,
                service_index=0,
                terms=(
                    f"pair {group.pair_index}: availability >= 99.9%, "
                    f"latency <= {150 + 10 * group.pair_index}ms, penalty tier B"
                ),
            )
            self._submit_private(group, self.domains[group.consumer], partial(OpInit, agreement))

    def _stage_breach(self) -> None:
        for group in self._ordered_groups():
            provider = self.domains[group.provider]
            for k in range(self.config.workload.breaches_per_group):
                details = (f"sla violation pair={group.pair_index} seq={k} by {provider.name}",)
                self._submit_private(group, provider, lambda p=provider, ds=details: OpBreach(*self._stamped(p, ds)))

    def _stage_batch(self) -> None:
        wl = self.config.workload
        for group in self._ordered_groups():
            provider = self.domains[group.provider]
            for b in range(wl.batches_per_group):
                details = [
                    f"batched violation pair={group.pair_index} batch={b} item={i}" for i in range(wl.batch_size)
                ]
                self._submit_private(group, provider, lambda p=provider, ds=details: OpBatch(self._stamped(p, ds)))


def run_scenario(
    config: ScenarioConfig,
    seed: int,
    out_dir: str | Path | None = None,
    trace: bool = False,
    capture_wire: bool = False,
) -> RunResult:
    result = assemble(config, seed, trace=trace, capture_wire=capture_wire)
    sim, metrics = result.sim, result.metrics

    if not config.workload.empty:
        result.driver = WorkloadDriver(result)
        result.driver.start()

    target = config.run.target_heights
    if target is not None:
        def on_height(height: int) -> None:
            if height >= target:
                sim.schedule(config.run.grace_ms, sim.stop)

        metrics.height_callbacks.append(on_height)

    result.cluster.start_validators()
    sim.run(until=config.run.max_virtual_ms)

    if result.driver is not None:
        result.completed = result.driver.completed
    elif target is not None:
        result.completed = metrics.finalized_heights >= target
    else:
        result.completed = True

    summary = result.summary = metrics.summary(seed)
    summary["completed"] = result.completed
    summary["sync_requests"] = sum(node.sync_requests for node in result.cluster.nodes.values())
    summary["config"] = {
        "validators": config.validators,
        "member_nodes": config.member_nodes,
        "block_interval_ms": config.block_interval_ms,
        "base_round_timeout_ms": config.base_round_timeout_ms,
        "block_gas_limit": config.block_gas_limit,
    }

    if out_dir is not None:
        out = result.out_dir = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        metrics.write_csv(out / "latency.csv")
        with open(out / "summary.json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        if trace:
            with open(out / "trace.jsonl", "w") as f:
                for entry in sim.trace_log:
                    f.write(json.dumps(entry, sort_keys=True))
                    f.write("\n")
    return result


def run_sweep(
    config: ScenarioConfig,
    seed: int,
    values: list[int],
    out_dir: str | Path | None = None,
    trace: bool = False,
) -> tuple[list[RunResult], dict]:
    """Re-run the same seeded scenario at each block interval.

    Every value is read as the schema reads `block_interval_ms` before
    any point runs, so a value it refuses raises `ConfigError`.
    """
    values = [read_field("block_interval_ms", v, "--values") for v in values]
    results = []
    for value in values:
        sub = Path(out_dir) / f"block-interval-{value}" if out_dir is not None else None
        results.append(run_scenario(replace(config, block_interval_ms=value), seed, sub, trace))
    comparison = {
        "param": "block-interval",
        "seed": seed,
        "points": [
            {
                "value": value,
                "public_mean_ms": (r.summary["public"] or {}).get("mean_ms"),
                "private_deploy_mean_ms": (r.summary["kinds"].get(OpInit.KIND) or {}).get("mean_ms"),
                "breach_mean_ms": (r.summary["kinds"].get(OpBreach.KIND) or {}).get("mean_ms"),
                "completed": r.completed,
            }
            for value, r in zip(values, results)
        ],
    }
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        with open(Path(out_dir) / "sweep.json", "w") as f:
            json.dump(comparison, f, indent=2, sort_keys=True)
            f.write("\n")
    return results, comparison
