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
(`WorkloadDriver._submit_private`).

Submission instants inside a stage are jittered uniformly across one
block interval, so arrivals hit the block cadence at random offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable

from .config import ScenarioConfig
from .consensus import IbftValidator
from .contracts import (
    OP_IO,
    AgreementRecord,
    BreachRecord,
    GasSchedule,
    OpBatch,
    OpBreach,
    OpInit,
    PrivateOp,
    Role,
)
from .encoding import digest, enc_args
from .identity import Credential, ValidatorSet
from .ledger import PrivacyMarker, PublicCall, Transaction, make_transaction
from .metrics import OFF_CHAIN_FINAL_KINDS, MetricsCollector
from .node import Cluster, NodeRuntime
from .privacy import DistributionResult, GroupDirectory, GroupInfo, PayloadCourier
from .simulation import (
    STREAM_CONSENSUS,
    STREAM_KEYS,
    STREAM_RPC,
    STREAM_WORKLOAD,
    Network,
    RngHub,
    Simulator,
)


def gas_for(schedule: GasSchedule, contract: str, function: str) -> int:
    return schedule.cost(*OP_IO[(contract, function)])


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
class Assembly:
    """Everything a run is made of, before any event has fired."""

    config: ScenarioConfig
    seed: int
    sim: Simulator
    rng_hub: RngHub
    network: Network
    metrics: MetricsCollector
    cluster: Cluster
    validator_set: ValidatorSet
    directory: GroupDirectory
    courier: PayloadCourier
    providers: list[Domain]
    consumers: list[Domain]


def assemble(
    config: ScenarioConfig,
    seed: int,
    trace: bool = False,
    capture_wire: bool = False,
) -> Assembly:
    sim = Simulator(trace_enabled=trace)
    rng_hub = RngHub(seed)
    metrics = MetricsCollector()
    network = Network(sim, rng_hub)
    if capture_wire:
        network.wire_log = []
    network.add_channel("consensus", config.consensus_latency, STREAM_CONSENSUS)
    network.add_channel("rpc", config.rpc_latency, STREAM_RPC)

    validator_creds = [
        Credential.from_seed_bytes(rng_hub.derived(STREAM_KEYS, 1, i).bytes(32))
        for i in range(config.validators)
    ]
    validator_set = ValidatorSet(tuple((c.address, c.public_key) for c in validator_creds))

    cluster = Cluster(sim, network, metrics)
    for name in config.node_names:
        node = NodeRuntime(name, sim, network, validator_set, config.gas)
        cluster.add_node(node)

    byz_by_node = {b.node: b.strategy for b in config.faults.byzantine}
    for i, name in enumerate(config.validator_names):
        node = cluster.nodes[name]
        node.validator = IbftValidator(
            node=node,
            credential=validator_creds[i],
            validators=validator_set,
            sim=sim,
            network=network,
            block_interval=config.block_interval_ms,
            base_round_timeout=config.base_round_timeout_ms,
            block_gas_limit=config.block_gas_limit,
            peers=tuple(n for n in config.validator_names if n != name),
            strategy=byz_by_node.get(name),
        )

    directory = GroupDirectory(rng_hub)
    courier = PayloadCourier(
        sim=sim,
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
            cred = Credential.from_seed_bytes(rng_hub.derived(STREAM_KEYS, 2, i).bytes(32))
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
                rng_hub.derived(STREAM_KEYS, 2, config.workload.providers + j).bytes(32)
            )
            consumers.append(
                Domain(name=f"c{j}", credential=cred, node_name=consumer_host, role=Role.CONSUMER)
            )

    _schedule_faults(config, sim, network, cluster, validator_set)

    return Assembly(
        config=config,
        seed=seed,
        sim=sim,
        rng_hub=rng_hub,
        network=network,
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
    name_of = dict(zip(validator_set.addresses, config.validator_names))
    for crash in config.faults.crashes:
        if crash.node is not None:
            target = crash.node
        else:
            target = name_of[validator_set.proposer_for(crash.proposer_of_height, 0)]

        def do_crash(name=target) -> None:
            network.crash(name)
            node = cluster.nodes[name]
            if node.validator is not None:
                node.validator.halt()

        sim.schedule_at(crash.at_ms, do_crash)

    for part in config.faults.partitions:
        sim.schedule_at(part.from_ms, lambda p=part: network.set_partition(p.groups))
        sim.schedule_at(part.to_ms, lambda: network.set_partition(None))


class WorkloadDriver:
    """Drives the service lifecycle through its stages."""

    def __init__(self, assembly: Assembly):
        self.a = assembly
        self.config = assembly.config
        self.sim = assembly.sim
        self.cluster = assembly.cluster
        self.metrics = assembly.metrics
        self.rng = assembly.rng_hub.stream(STREAM_WORKLOAD)
        self.window = self.config.block_interval_ms
        self.groups: list[GroupInfo] = []
        self.payload_log: list[tuple[bytes, bytes]] = []
        self._payload_seq = 0
        self._outstanding = 0
        self._stage_queue: list = []
        self.completed = False
        self.completed_at: int | None = None
        self.stage_log: list[tuple[str, int]] = []
        self.domains = {d.address: d for d in assembly.providers + assembly.consumers}

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
            self.completed_at = self.sim.now
            self.sim.trace("workload_done")
            self.sim.schedule(self.config.run.grace_ms, self.sim.stop)
            return
        stage = self._stage_queue.pop(0)
        self.stage_log.append((stage.__name__.removeprefix("_stage_"), self.sim.now))
        stage()

    def _jitter(self) -> int:
        return int(self.rng.random() * self.window)

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

    def _submit(self, domain: Domain, kind: str, call: PublicCall, on_final: Callable[[], None] | None = None) -> None:
        """One public call: signed now, submitted at a jittered instant."""
        gas = gas_for(self.config.gas, call.contract, call.function)
        tx = make_transaction(domain.credential, domain.take_nonce(), gas, call)
        self._outstanding += 1

        def fire() -> None:
            self.metrics.new_sample(tx.tx_id, kind, self.sim.now)
            self._submit_and_wait(domain, tx, on_final)

        self.sim.schedule(self._jitter(), fire)

    def _submit_private(self, group: GroupInfo, sender: Domain, kind: str, make_op: Callable[[], PrivateOp]) -> None:
        """One private operation: built at a jittered instant, then distributed and anchored."""
        payload_index = self._payload_seq
        self._payload_seq += 1
        self._outstanding += 1
        self.sim.schedule(
            self._jitter(), lambda: self._distribute_then_anchor(group, sender, make_op(), payload_index, kind)
        )

    def _distribute_then_anchor(
        self, group: GroupInfo, sender: Domain, op: PrivateOp, payload_index: int, kind: str
    ) -> None:
        """One private operation: sample, distribute, anchor a marker."""
        sample = self.metrics.new_private_sample(kind, self.sim.now, group.group_id)
        plaintext = op.encode()
        self.payload_log.append((group.group_id, plaintext))

        def on_complete(result: DistributionResult) -> None:
            sample.enclave_ms = result.enclave_ms
            if kind in OFF_CHAIN_FINAL_KINDS:
                # Delivery to every counterparty enclave is the
                # operation's completion; the marker anchors it later.
                sample.final_ms = result.completed_at
            tx = make_transaction(
                sender.credential,
                sender.take_nonce(),
                gas_for(self.config.gas, "marker", "anchor"),
                PrivacyMarker(group_id=group.group_id, payload_hash=result.payload_hash),
            )
            self.metrics.bind_tx(sample, tx.tx_id)
            self._submit_and_wait(sender, tx)

        self.a.courier.distribute(group, sender.node_name, plaintext, payload_index, on_complete)

    def _ordered_groups(self) -> list[GroupInfo]:
        return sorted(self.groups, key=lambda g: g.pair_index)

    def _breach(self, provider: Domain, details: str) -> BreachRecord:
        """A breach record stamped when the operation fires."""
        return BreachRecord(reporter=provider.address, details=details, reported_at=self.sim.now)

    # -- stages -------------------------------------------------------

    def _stage_register(self) -> None:
        for domain in self.a.providers + self.a.consumers:
            args = enc_args(("u8",), (int(domain.role),))
            self._submit(domain, "register", PublicCall("registry", "register", args))

    def _stage_publish(self) -> None:
        for provider in self.a.providers:
            for j in range(self.config.workload.publishes_per_provider):
                name = f"{provider.name}-svc{j}"
                args = enc_args(("str", "hash"), (name, digest(f"sla terms for {name}".encode())))
                self._submit(provider, "publish", PublicCall("catalog", "publish", args))

    def _stage_select(self) -> None:
        wl = self.config.workload
        for i, consumer in enumerate(self.a.consumers):
            for j in range(wl.selects_per_consumer):
                pair_index = wl.selects_per_consumer * i + j
                provider = self.a.providers[pair_index % len(self.a.providers)]
                args = enc_args(("address", "u64"), (provider.address, j % wl.publishes_per_provider))
                on_final = partial(self._form_group, consumer, provider, pair_index)
                self._submit(consumer, "select", PublicCall("selection", "select", args), on_final)

    def _form_group(self, consumer: Domain, provider: Domain, pair_index: int) -> None:
        info, formed = self.a.directory.get_or_form(
            consumer=consumer.address,
            provider=provider.address,
            member_pubkeys=[consumer.credential.public_key, provider.credential.public_key],
            member_nodes=(consumer.node_name, provider.node_name),
            pair_index=pair_index,
        )
        if formed:
            for node_name in info.member_nodes:
                self.cluster.nodes[node_name].join_group(info)
            self.groups.append(info)
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
            self._submit_private(group, self.domains[group.consumer], "deploy_private", partial(OpInit, agreement))

    def _stage_breach(self) -> None:
        for group in self._ordered_groups():
            provider = self.domains[group.provider]
            for k in range(self.config.workload.breaches_per_group):
                details = f"sla violation pair={group.pair_index} seq={k} by {provider.name}"
                self._submit_private(
                    group, provider, "register_breach", lambda p=provider, d=details: OpBreach(self._breach(p, d))
                )

    def _stage_batch(self) -> None:
        wl = self.config.workload
        for group in self._ordered_groups():
            provider = self.domains[group.provider]
            for b in range(wl.batches_per_group):
                details = [
                    f"batched violation pair={group.pair_index} batch={b} item={i}" for i in range(wl.batch_size)
                ]
                self._submit_private(
                    group,
                    provider,
                    "breach_batch",
                    lambda p=provider, ds=details: OpBatch(tuple(self._breach(p, d) for d in ds)),
                )


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    sim: Simulator
    cluster: Cluster
    metrics: MetricsCollector
    directory: GroupDirectory
    driver: WorkloadDriver | None
    completed: bool
    summary: dict
    out_dir: Path | None = None


def run_scenario(
    config: ScenarioConfig,
    seed: int,
    out_dir: str | Path | None = None,
    trace: bool = False,
    capture_wire: bool = False,
) -> RunResult:
    assembly = assemble(config, seed, trace=trace, capture_wire=capture_wire)
    sim = assembly.sim

    driver: WorkloadDriver | None = None
    if not config.workload.empty:
        driver = WorkloadDriver(assembly)
        driver.start()

    target = config.run.target_heights
    if target is not None:
        def on_height(height: int) -> None:
            if height >= target:
                sim.schedule(config.run.grace_ms, sim.stop)

        assembly.metrics.height_callbacks.append(on_height)

    assembly.cluster.start_validators()
    sim.run(until=config.run.max_virtual_ms)

    if driver is not None:
        completed = driver.completed
    elif target is not None:
        completed = assembly.metrics.finalized_heights >= target
    else:
        completed = True

    summary = assembly.metrics.summary(seed)
    summary["completed"] = completed
    summary["config"] = {
        "validators": config.validators,
        "member_nodes": config.member_nodes,
        "block_interval_ms": config.block_interval_ms,
        "base_round_timeout_ms": config.base_round_timeout_ms,
        "block_gas_limit": config.block_gas_limit,
    }

    result = RunResult(
        config=config,
        seed=seed,
        sim=sim,
        cluster=assembly.cluster,
        metrics=assembly.metrics,
        directory=assembly.directory,
        driver=driver,
        completed=completed,
        summary=summary,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        assembly.metrics.write_csv(out / "latency.csv")
        with open(out / "summary.json", "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        if trace:
            with open(out / "trace.jsonl", "w") as f:
                for entry in sim.trace_log:
                    f.write(json.dumps(entry, sort_keys=True))
                    f.write("\n")
        result.out_dir = out
    return result


def run_sweep(
    config: ScenarioConfig,
    seed: int,
    values: list[int],
    out_dir: str | Path | None = None,
    trace: bool = False,
) -> tuple[list[RunResult], dict]:
    """Re-run the same seeded scenario at each block interval."""
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
                "private_deploy_mean_ms": (r.summary["kinds"].get("deploy_private") or {}).get("mean_ms"),
                "breach_mean_ms": (r.summary["kinds"].get("register_breach") or {}).get("mean_ms"),
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
