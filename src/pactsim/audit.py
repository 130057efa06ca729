"""Post-run audits over a finished scenario.

These inspect the final object graph the way an examiner would inspect
captured disk and memory images: raw bytes for the isolation scan,
independent re-derivation for authorization, and cross-node comparison
for convergence.  They return findings instead of raising, so tests
can assert emptiness and tools can report details.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import PrivacyMarker, block_wire
from .scenario import RunResult, wire_bytes


@dataclass(frozen=True)
class Finding:
    check: str
    node: str
    detail: str


def node_byte_image(result: RunResult, name: str) -> bytes:
    """Everything a node persists: chain, world state, enclave store."""
    node = result.cluster.nodes[name]
    chain = b"".join(block_wire(block) for block in node.store.blocks)
    return chain + node.state.encode() + node.enclave.dump_bytes()


def isolation_scan(result: RunResult) -> list[Finding]:
    """Look for private plaintext or group keys outside the group.

    For every private payload, every node that hosts neither group
    member must show no trace of the plaintext bytes or the group key
    anywhere in its byte image.  When the run captured wire traffic,
    every message is scanned as well: keys and plaintexts must never
    cross the network at all, only ciphertext does.
    """
    findings: list[Finding] = []
    if result.driver is None:
        return findings
    images = {name: node_byte_image(result, name) for name in result.config.node_names}
    wire_log = result.cluster.network.wire_log
    wire_image = b"\x00".join(wire_bytes(item) for _, _, item in wire_log) if wire_log else b""
    plaintexts_of: dict[bytes, list[bytes]] = {}
    for gid, plaintext in result.driver.payload_log:
        plaintexts_of.setdefault(gid, []).append(plaintext)
    for group in result.directory.by_id.values():
        outsiders = [n for n in result.config.node_names if n not in group.member_nodes]
        plaintexts = plaintexts_of.get(group.group_id, [])
        for name in outsiders:
            image = images[name]
            if group.key in image:
                findings.append(Finding("isolation", name, f"group key of {group.group_id.hex()[:16]} present"))
            for i, plaintext in enumerate(plaintexts):
                if plaintext in image:
                    findings.append(
                        Finding("isolation", name, f"plaintext {i} of group {group.group_id.hex()[:16]} present")
                    )
        if group.key in wire_image:
            findings.append(Finding("isolation", "wire", f"group key of {group.group_id.hex()[:16]} on the wire"))
        for i, plaintext in enumerate(plaintexts):
            if plaintext in wire_image:
                findings.append(
                    Finding("isolation", "wire", f"plaintext {i} of group {group.group_id.hex()[:16]} on the wire")
                )
    return findings


def member_state_consistency(result: RunResult) -> list[Finding]:
    """Each group's private ledger must be byte-identical at both members."""
    findings: list[Finding] = []
    for group in result.directory.by_id.values():
        encodings = {}
        for name in group.member_nodes:
            ledger = result.cluster.nodes[name].group_ledgers.get(group.group_id)
            if ledger is None:
                findings.append(Finding("member-state", name, f"no ledger for group {group.group_id.hex()[:16]}"))
                continue
            encodings[name] = ledger.encode()
        values = set(encodings.values())
        if len(values) > 1:
            findings.append(
                Finding(
                    "member-state",
                    ",".join(sorted(encodings)),
                    f"divergent private state for group {group.group_id.hex()[:16]}",
                )
            )
    return findings


def convergence(result: RunResult) -> list[Finding]:
    """All alive nodes must hold one chain and one state, and keep up.

    A block first finalized at least `grace_ms` before the run ended is
    settled, and an alive node short of it is a laggard; a later block
    may still be on its way.  Byzantine validators are held to both: every
    strategy counts the commits of its own height, and an `echo`
    validator, which stores no proposal, syncs a block once a quorum
    has committed it.
    """
    findings: list[Finding] = []
    nodes = result.cluster.nodes
    alive = [n for n in nodes if n not in result.cluster.network.crashed]
    if not alive:
        return findings
    heights = {name: nodes[name].store.height for name in alive}
    top = nodes[max(alive, key=heights.__getitem__)].store
    for name in alive:
        store = nodes[name].store
        for h in range(heights[name] + 1):
            if store.hash_at(h) != top.hash_at(h):
                findings.append(Finding("convergence", name, f"chain hash differs at height {h}"))
                break
    cutoff = result.sim.now - result.config.run.grace_ms
    settled = 0
    for h in range(1, top.height + 1):
        at = result.metrics.first_finalized_at(h)
        if at is not None and at <= cutoff:
            settled = h
    for name in alive:
        if heights[name] < settled:
            findings.append(Finding("convergence", name, f"at height {heights[name]}, below settled height {settled}"))
    # State digests may only be compared between nodes at equal height.
    by_height: dict[int, dict[str, bytes]] = {}
    for name in alive:
        by_height.setdefault(heights[name], {})[name] = nodes[name].state.state_digest()
    for height, digests in by_height.items():
        if len(set(digests.values())) > 1:
            findings.append(
                Finding("convergence", ",".join(sorted(digests)), f"state digest differs at height {height}")
            )
    return findings


def authorization_replay(result: RunResult) -> list[Finding]:
    """Re-derive every authorization decision from chain and group data.

    Every anchored marker for a known group must have been sent by a
    group member, and every breach record in a member ledger must name
    a member as its reporter.
    """
    findings: list[Finding] = []
    directory = result.directory
    ref_name = result.config.node_names[0]
    ref_node = result.cluster.nodes[ref_name]
    for block in ref_node.store.blocks:
        for tx in block.txs:
            if isinstance(tx.payload, PrivacyMarker):
                group = directory.by_id.get(tx.payload.group_id)
                if group is not None and tx.sender not in group.members:
                    findings.append(
                        Finding(
                            "authorization",
                            ref_name,
                            f"marker at height {block.height} sent by non-member {tx.sender.hex()[:12]}",
                        )
                    )
    for name, node in result.cluster.nodes.items():
        for gid, ledger in node.group_ledgers.items():
            for i, record in enumerate(ledger.records):
                if record.reporter not in ledger.members:
                    findings.append(
                        Finding("authorization", name, f"record {i} in group {gid.hex()[:16]} from non-member")
                    )
    return findings
