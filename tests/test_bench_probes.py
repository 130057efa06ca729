"""The benchmark's probes still name real code.

`perfbench/layers.py` wraps pactsim functions by module, class and
attribute name, and `perfbench/child.py` reads a few internals by name.
A rename in `src/` would only show when the benchmark runs; these
checks make it fail here instead.  The benchmark files are loaded by
path and never edited.  One small finished run exposes every attribute
path `perfbench/child.py` reads of a `RunResult`, so a reshaped result,
receipt or validator fails here too.

The consensus probe wraps `IbftValidator.on_message` on the class, so
its call count is the layer's `consensus.messages`.  That count must be
the network's deliveries exactly: a validator's own broadcasts and its
replays of buffered messages take the same code under another name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pactsim import config, identity, metrics, scenario
from pactsim.consensus import Commit, IbftValidator, Prepare, PrePrepare
from pactsim.ledger import Block, seal_preimage
from pactsim.scenario import assemble, run_scenario
from pactsim.simulation import Simulator

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.PROBES


@pytest.mark.parametrize("probe", load_probes(), ids=lambda p: ".".join(x for x in p[:3] if x))
def test_layer_probe_resolves(probe):
    module_name, cls, attr, _ = probe
    owner = importlib.import_module(module_name)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def test_child_reads_resolve():
    assert identity._verify_cached.cache_info().maxsize > 0
    assert Simulator()._fired == 0
    assert callable(Simulator.run)
    assert callable(scenario.assemble)
    assert callable(scenario.run_scenario)
    assert callable(config.config_from_dict)
    assert metrics.PUBLIC_KINDS and metrics.PRIVATE_KINDS


def test_child_reads_resolve_on_a_finished_run():
    crash = {"crashes": [{"node": "v3", "at_ms": 5000}]}
    result = run_scenario(config.config_from_dict({"preset": "smoke", "faults": crash}), 1)
    assert result.completed is True
    assert result.sim._fired > 0

    network = result.cluster.network
    assert network.crashed == {"v3"}
    assert network.delivered > 0 and network.dropped_crash > 0
    assert isinstance(network.dropped_partition, int)

    nodes = list(result.cluster.nodes.values())
    ref = next(node for name, node in result.cluster.nodes.items() if name not in network.crashed)
    assert ref.receipts and all(entry.receipt.ok is True for entry in ref.receipts.values())
    assert sum(len(block.txs) for block in ref.store.blocks) == len(ref.receipts)
    assert all(node.private_op_failures == [] for node in nodes)
    validators = [node.validator for node in nodes if node.validator is not None]
    assert len(validators) == 4 and all(v.dropped_invalid == 0 for v in validators)

    m = result.metrics
    assert m.finalized_heights > 0
    finals = [m.first_finalized_at(h) for h in range(1, m.finalized_heights + 1)]
    assert all(isinstance(t, int) for t in finals) and finals == sorted(finals)
    assert {s.kind for s in m.samples} >= {"register", "deploy_private"}
    assert all(s.latency_ms is not None for s in m.samples)
    assert any(s.kind in metrics.PRIVATE_KINDS and s.enclave_ms is not None for s in m.samples)

    summary = result.summary
    assert summary["safety_violations"] == [] and summary["unresolved_samples"] == 0
    assert summary["public"]["p50_ms"] > 0 and summary["private"]["p50_ms"] > 0


NO_WORKLOAD = {
    "providers": 0,
    "consumers": 0,
    "publishes_per_provider": 0,
    "selects_per_consumer": 0,
    "breaches_per_group": 0,
}


def consensus_only(validators):
    return config.config_from_dict(
        {"preset": "smoke", "validators": validators, "member_nodes": 0, "workload": NO_WORKLOAD}
    )


def probe_calls(monkeypatch, name):
    """Wrap `IbftValidator.<name>` on the class, as perfbench's tracer does; return the (validator, msg) log."""
    calls = []
    real = getattr(IbftValidator, name)

    def probe(self, msg, *args):
        calls.append((self, msg))
        return real(self, msg, *args)

    monkeypatch.setattr(IbftValidator, name, probe)
    return calls


def test_the_consensus_probe_counts_exactly_the_network_deliveries(monkeypatch):
    delivered = probe_calls(monkeypatch, "on_message")
    processed = probe_calls(monkeypatch, "_process")
    result = run_scenario(consensus_only(7), 3)
    assert result.completed is True
    nodes = result.cluster.nodes.values()
    # Every delivery of this run is a consensus message: no transactions,
    # no member pushes, no sync.
    assert all(node.sync_requests == 0 for node in nodes)
    assert len(delivered) == result.cluster.network.delivered > 0
    assert all(msg.sender != v.address for v, msg in delivered)
    # Each validator took its own votes in, past the probe.
    own = {v.name for v, msg in processed if msg.sender == v.address}
    assert own == {node.name for node in nodes}


def test_buffered_replays_bypass_the_consensus_probe(monkeypatch):
    cluster = assemble(consensus_only(4), 5).cluster
    validators = [node.validator for node in cluster.nodes.values()]
    for v in validators:
        v.start()
    vset = validators[0].validators
    proposer = next(v for v in validators if v.address == vset.proposer_for(1, 0))
    holder, *others = [v for v in validators if v is not proposer]
    delivered = probe_calls(monkeypatch, "on_message")

    def prepare(signer, height, digest):
        return Prepare(height, 0, digest, signer.address, signer.credential.sign(Prepare.preimage(height, 0, digest)))

    def commit(signer, digest):
        seal = signer.credential.sign(seal_preimage(digest))
        return Commit(1, 0, digest, seal, signer.address, signer.credential.sign(Commit.preimage(1, 0, digest, seal)))

    later = b"\x22" * 32
    early = prepare(others[0], 2, later)
    head = holder.store.head
    block = Block(1, head.timestamp + 1000, head.hash, proposer.address, 0, ())
    digest = block.hash
    proposal = PrePrepare(1, 0, block, (), proposer.address, proposer.credential.sign(PrePrepare.preimage(1, 0, digest)))
    fed = [early, proposal] + [commit(v, digest) for v in (proposer, *others)]
    for msg in fed:
        holder.on_message(msg)
    assert holder.store.height == 1
    # The buffered height-2 prepare was replayed on entering height 2.
    assert holder.future == {}
    assert holder.state.prepares[(0, later)] == {others[0].address: early}
    # Only what the test delivered passed the probe: not the holder's own
    # prepare and commit for height 1, nor the replay.
    assert delivered == [(holder, msg) for msg in fed]
