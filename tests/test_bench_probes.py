"""The benchmark's probes still name real code.

`perfbench/layers.py` wraps pactsim functions by module, class and
attribute name, and `perfbench/child.py` reads a few internals by name.
A rename in `src/` would only show when the benchmark runs; these
checks make it fail here instead.  The benchmark files are loaded by
path and never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pactsim import config, identity, metrics, scenario
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
