"""The benchmark's workloads.

Each workload is a set of overrides handed to
`pactsim.config.config_from_dict`.  Every workload is a closed loop:
`WorkloadDriver` submits a stage's operations at jittered instants
across one block interval and starts the next stage only when every
receipt of the current one has resolved.  The seed passed to the
benchmark is the scenario seed; the program receives nothing else.

Partitions are deliberately absent: catch-up after a healed partition
is broken, so such a run would idle until `max_virtual_ms` and time a
known stall rather than the program.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "lifecycle-400": {
        "why": "full service lifecycle with 400 domains; ledger, encoding, contracts, pool and gossip verification carry the run",
        "config": {
            "preset": "paper-default",
            "workload": {"providers": 200, "consumers": 200},
        },
    },
    "bft-31-faults": {
        "why": "31 validators, empty blocks, a crashed proposer and two Byzantine nodes; event kernel, network and consensus carry the run",
        "config": {
            "preset": "smoke",
            "validators": 31,
            "member_nodes": 0,
            "workload": {
                "providers": 0,
                "consumers": 0,
                "publishes_per_provider": 0,
                "selects_per_consumer": 0,
                "breaches_per_group": 0,
            },
            "run": {"max_virtual_ms": 600_000, "grace_ms": 1000, "target_heights": 50},
            "faults": {
                "crashes": [{"proposer_of_height": 20, "at_ms": 15_000}],
                "byzantine": [
                    {"node": "v5", "strategy": "equivocate"},
                    {"node": "v9", "strategy": "withhold"},
                ],
            },
        },
    },
    "private-burst": {
        "why": "40 groups sending breaches and 50-record batches; enclave traffic, private apply and long per-sender nonce chains in the pool",
        "config": {
            "preset": "paper-default",
            "workload": {
                "providers": 20,
                "consumers": 20,
                "publishes_per_provider": 1,
                "selects_per_consumer": 2,
                "breaches_per_group": 20,
                "batches_per_group": 5,
                "batch_size": 50,
            },
        },
    },
}
