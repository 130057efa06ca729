"""Checks on the benchmark itself.

    python3 -m pytest perfbench/tests -q

These start real samples (about half a minute in all) and are kept out
of the main suite's `testpaths`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from layers import PROBES, Tracer, resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.HOST_METRICS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_METRICS
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {k: v["why"] for k, v in WORKLOADS.items()}
    assert set(bench.PREDICTIONS) == {name.split(".", 1)[0] for name in bench.LAYER_METRICS}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_by_name(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "private-burst", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    for name, _ in bench.HOST_METRICS + bench.SIMULATED_METRICS:
        assert any(line.startswith(name + " ") for line in proc.stdout.splitlines()), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_parse(name):
    from pactsim.config import config_from_dict

    config = config_from_dict(WORKLOADS[name]["config"])
    assert not config.faults.partitions


def test_digest_check_trips_on_another_seed(tmp_path):
    seven = bench.run_child(ROOT, tmp_path, "private-burst", 7, "timed", 0)
    eight = bench.run_child(ROOT, tmp_path, "private-burst", 8, "timed", 1)
    assert bench.check_records([seven]) == []
    problems = bench.check_records([seven, eight])
    assert any("digests differ" in p for p in problems), problems


def _bindings() -> dict[tuple[str, str], object]:
    """Every module and class attribute a probe may replace, by (owner, name)."""
    import pactsim  # noqa: F401

    found = {}
    for module, cls, attr, _ in PROBES:
        owner = resolve(module, cls)
        found[(repr(owner), attr)] = owner.__dict__[attr]
        if cls is None:
            for key, mod in sys.modules.items():
                if key.startswith("pactsim.") and attr in vars(mod):
                    found[(repr(mod), attr)] = vars(mod)[attr]
    return found


def test_tracer_restores_every_binding():
    from pactsim.config import config_from_dict
    from pactsim.scenario import run_scenario

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        import pactsim.consensus
        import pactsim.identity
        import pactsim.ledger

        assert pactsim.ledger.verify is pactsim.identity.verify is pactsim.consensus.verify
        assert pactsim.identity.verify.__wrapped__ is before[(repr(pactsim.identity), "verify")]
        run_scenario(config_from_dict({"preset": "smoke"}), seed=3)
        assert tracer.spans["simulation.Simulator.run"].calls == 1
        assert tracer.spans["identity.verify"].calls > 0
    finally:
        tracer.remove()
    originals = {id(before[(repr(resolve(m, c)), a)]) for m, c, a, _ in PROBES}
    for key, value in before.items():
        if id(value) in originals:
            assert during[key].__wrapped__ is value, key
    assert _bindings() == before
    calls = {name: s.calls for name, s in tracer.spans.items()}
    run_scenario(config_from_dict({"preset": "smoke"}), seed=3)
    assert {name: s.calls for name, s in tracer.spans.items()} == calls


def test_reference_seconds_rescales_between_probes():
    from hostspeed import NOMINAL_PROBE_S, SpeedProbe

    speed = SpeedProbe()
    slow = 2 * NOMINAL_PROBE_S
    # Probes every 10 ms on a host at half the nominal speed: each 10 ms of
    # program time counts as 5 ms, and the probes' own time is left out.
    speed.marks = [(0.01 * i, 0.01 * i + slow) for i in range(1, 11)]
    span = speed.reference_seconds(0.0, 0.1 + slow)
    assert span == pytest.approx((0.1 - 9 * slow) / 2)
    assert speed.probe_median_s(0.0, 1.0) == pytest.approx(slow)
