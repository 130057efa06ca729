"""The benchmark's probes still name real code.

`perfbench/layers.py` wraps pactsim functions by module, class and
attribute name, and `perfbench/child.py` reads a few internals by name.
A rename in `src/` would only show when the benchmark runs; these
checks make it fail here instead.  The benchmark files are loaded by
path and never edited.  One small finished run exposes every attribute
path `perfbench/child.py` reads of a `RunResult`, so a reshaped result,
receipt or validator fails here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pactsim import config, identity, metrics, scenario
from pactsim.scenario import run_scenario
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
