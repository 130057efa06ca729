"""Golden digests of run outputs: a (config, seed) pair gives the same bytes.

Each case runs with tracing on and compares SHA-256 digests of
`latency.csv`, `summary.json`, `trace.jsonl` and every node's
`chain_dump()` against committed values.  A change that moves any of
them must say why and re-baseline here; print the current digests with
`PYTHONPATH=src python tests/test_golden.py`.

Two more digests hold no hash, address or signature: `latency-shape`
is `latency.csv` without its `tx_id` and `group_id` columns, and
`shape:<node>` is `chain_dump()` reduced to height, round, transaction
count and gas.  A change to how keys, signatures or hashes are derived
moves the full digests but must leave these, and `summary.json`, alone.

`events` is the number of events the kernel fired.  `events_per_s`
divides by it, so a refactor that claims to keep behaviour must also
keep this count.

`WIRE_CASE` pins what crosses the network: the run captures the wire,
and `wire_digest` gives the log's entry count and a SHA-256 over every
entry as `src|dst|len|` followed by its `wire_bytes`.  The case carries
every kind of item the network does, so each branch of `wire_bytes` is
pinned.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from pactsim.config import config_from_dict
from pactsim.scenario import run_scenario, wire_bytes

CASES: dict[str, tuple[dict, int]] = {
    "paper-default": ({"preset": "paper-default"}, 7),
    "smoke-batches": ({"preset": "smoke", "workload": {"batches_per_group": 2}}, 7),
    "smoke-equivocate": (
        {"preset": "smoke", "faults": {"byzantine": [{"node": "v1", "strategy": "equivocate"}]}},
        7,
    ),
    "smoke-proposer-crash": (
        {"preset": "smoke", "faults": {"crashes": [{"proposer_of_height": 2, "at_ms": 500}]}},
        7,
    ),
    "smoke-multigroup": (
        {
            "preset": "smoke",
            "workload": {
                "providers": 3,
                "consumers": 3,
                "publishes_per_provider": 2,
                "selects_per_consumer": 2,
                "breaches_per_group": 2,
                "batches_per_group": 2,
            },
        },
        7,
    ),
    # Quorum arithmetic at n = 31 under a crashed proposer and three
    # Byzantine strategies; the other cases have at most 4 validators.
    "validators-31-faults": (
        {
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
            "run": {"target_heights": 8},
            "faults": {
                "crashes": [{"proposer_of_height": 3, "at_ms": 2500}],
                "byzantine": [
                    {"node": "v5", "strategy": "equivocate"},
                    {"node": "v9", "strategy": "withhold"},
                    {"node": "v13", "strategy": "echo"},
                ],
            },
        },
        7,
    ),
}

# A crashed validator, an equivocating proposer and a member cut off for
# 15 s: round changes, sync requests and replies, pushes and enclave
# traffic all cross the network.
WIRE_CASE: tuple[dict, int] = (
    {
        "preset": "smoke",
        "faults": {
            "crashes": [{"node": "v2", "at_ms": 3000}],
            "byzantine": [{"node": "v1", "strategy": "equivocate"}],
            "partitions": [
                {"from_ms": 5000, "to_ms": 20000, "groups": [["m0"], ["v0", "v1", "v2", "v3", "m1", "m2"]]},
            ],
        },
    },
    3,
)

WIRE_GOLDEN = (525, 'b772beda89c689712dd2033ef2c486a051ae41bbc7c9858679a958b999a54ed4')

GOLDEN: dict[str, dict[str, str | int]] = {
    'paper-default': {
        'latency.csv': '04647e5637a02a34df67aae83ff175e2b5e85488358b2d7295b66a6f05c3aebf',
        'summary.json': 'dfd6af00dc07954f7ace591a170627c283303af8b327399ceb98c2c25c78d019',
        'trace.jsonl': '381a2b4573c30a1bc876048b342095ec18b07afb1d927999de45865ce6808d8c',
        'events': 5642,
        'latency-shape': '83cd587c70290a964f5ff815e8275ece46a74133edba58e04233a6448507fb72',
        'chain:m0': '04391cd7ef21e945be1c6880bb1eb78e83c7f5c81d9b141bb859a66adb142609',
        'shape:m0': 'ecc8847a0adc2d7538f243369e6afe104cdfb46fc52cbf37641ef6622a5b495a',
        'chain:m1': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:m1': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
        'chain:m2': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:m2': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
        'chain:v0': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:v0': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
        'chain:v1': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:v1': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
        'chain:v2': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:v2': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
        'chain:v3': '34280482f69eb25fc9d7483b2155bb1239edaa79fb9ac7da81d8c7b7f3cec3c9',
        'shape:v3': '0ff73f3573f525d646ed6335706c9a5c91bfd9a46b7ba8737ec132aa0e3faea1',
    },
    'smoke-batches': {
        'latency.csv': '790a005ba0166a1ec5b7b084098b39bc8890ff259341b4c5094d64b9b1511698',
        'summary.json': '07bf6a1fac9f39686b647ad56f5eda2991219ef91aae899d32b46ca41c124594',
        'trace.jsonl': 'a1dd6e5519f96a369260494b6777822e3280bf2ac963a2d9b68970b6b3153810',
        'events': 848,
        'latency-shape': '9ddd4590dcd64ee2fdbe4fd375bf258022d51ee935a07ae115ad9252c543e095',
        'chain:m0': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:m0': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:m1': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:m1': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:m2': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:m2': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:v0': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:v0': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:v1': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:v1': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:v2': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:v2': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
        'chain:v3': '31651723e4f185f5da0772a83667953b3e250bd86f68a40bd60e5527fbb96c6b',
        'shape:v3': '0e3356ba90fc7fd8d80944e3e455f5e2ff3ad1589e22725bebc3e132848c1571',
    },
    'smoke-equivocate': {
        'latency.csv': 'dc71e421ba9e671e657f3210680a215ef0b9f305cdeb9462b0ae83b0d00df33e',
        'summary.json': 'ce728552751c8513421f18ee918cbca257b51faaef6c59ee47b7c1eea304a513',
        'trace.jsonl': '2203f7f2981576ccf55ad296d5e5b8185a1799df0dc4261a91edc1ad37aca144',
        'events': 653,
        'latency-shape': 'c47e78233f018dde280d72574d264a665816cf203f2b44979ca214de704ef73c',
        'chain:m0': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:m0': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:m1': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:m1': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:m2': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:m2': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:v0': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:v0': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:v1': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:v1': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:v2': 'edf92359891211645016893d2d67fd976b0d8332ac5ecb18e468f2def5b862a6',
        'shape:v2': 'cb9c889191bdfd66e0effad4acae2fad0b9fc67d0b95001e3af10e01098b5a59',
        'chain:v3': '94f7f6d3ce3d5a06e7b07e7c84fbc90484c6d972b3b60619509282ec1f3508e3',
        'shape:v3': '34347738f74cf90f3d4dd8925c0b572c07ec2292fbe8d8261258a9175c461fee',
    },
    'smoke-multigroup': {
        'latency.csv': 'ad893ee6f44b3b81936f1b16d84feb93064dcfde64904ae5ff68d5b1d16a2bce',
        'summary.json': '2df28a859667551639d5d733d3fe0eae19d5eb4e12af58b9284c440fd7da4222',
        'trace.jsonl': '7fa2ef227842df7811017312e748649a329097c26a15261044ffb7349cc655bf',
        'events': 1218,
        'latency-shape': '55796690f2e02e4d5551d0fed4c864dc484adfac41dd2d4cec39894a432f7618',
        'chain:m0': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:m0': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
        'chain:m1': '749894e5cd5139f73b3bda07f5f9b17b4a6a0cffdcd4bc285fa713387f692a09',
        'shape:m1': '7503ca7fd13b26bf979d5fca7563091d44ff49afdbc65839f5a0c0bccfb9e1c6',
        'chain:m2': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:m2': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
        'chain:v0': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:v0': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
        'chain:v1': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:v1': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
        'chain:v2': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:v2': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
        'chain:v3': '4a7c1db94ec4f24c9cff1d3ba0c484d50862a312c3bd570318cb4cb64fb7c3b5',
        'shape:v3': 'b2186d23a095fd20d047977c55ae8ab9ea640765e991390ac8342b7b64af403f',
    },
    'smoke-proposer-crash': {
        'latency.csv': '0457324f15eb79e671a5178799fdd0138b805aed25c7304c2116624c5cb3d42f',
        'summary.json': '070ba0182fa6a7d053a36326871ae620394a800783b54c6c07adddb5269db07a',
        'trace.jsonl': '38f00fb487e723eac16d1e0acdb8964f35f98e950ee952518bb73378b9d89d14',
        'events': 351,
        'latency-shape': '7c090f1761954c6814cdede58696915ce1c68493b1a69c6ab6eb7cb156566e41',
        'chain:m0': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:m0': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:m1': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:m1': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:m2': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:m2': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v0': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:v0': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v1': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:v1': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v2': 'cab0a5eafc4ef82a07232e9ec3132bc9d26921f513af1f0d9aa8a4811bbbbf57',
        'shape:v2': 'f7a6c106dd2f1b3f0931bc9333e6d8772a1b7399f07ccd8b030952c1341aab16',
        'chain:v3': '49fe52afe43fe002c311495a3f078d1d9ffbb9f4e72ce23db3e5f2064cae208f',
        'shape:v3': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
    },
    'validators-31-faults': {
        'latency.csv': 'ef0c1cce541b5f4189e117f68b10fb29a7cb2e92d6982ee3005dfbaf1f51dffc',
        'summary.json': '5019249d8e30bf01887e10ebb02bc70cb5101483b156f12b0445981d05962a1e',
        'trace.jsonl': '64db6b4b33f6b36c4e4fa0840c64b9d39c84c1d76b26152ae89fc373bc82995a',
        'events': 17389,
        'latency-shape': '23b4c38c3f89275dfe913f3f6dfca35a6325c5e877e4c97874effcf26d72fc36',
        'chain:v0': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v0': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v1': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v1': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v10': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v10': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v11': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v11': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v12': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v12': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v13': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v13': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v14': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v14': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v15': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v15': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v16': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v16': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v17': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v17': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v18': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v18': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v19': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v19': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v2': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v2': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v20': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v20': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v21': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v21': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v22': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v22': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v23': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v23': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v24': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v24': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v25': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v25': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v26': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v26': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v27': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v27': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v28': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v28': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v29': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v29': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v3': 'cab0a5eafc4ef82a07232e9ec3132bc9d26921f513af1f0d9aa8a4811bbbbf57',
        'shape:v3': 'f7a6c106dd2f1b3f0931bc9333e6d8772a1b7399f07ccd8b030952c1341aab16',
        'chain:v30': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v30': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v4': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v4': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v5': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v5': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v6': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v6': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v7': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v7': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v8': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v8': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
        'chain:v9': '318af1146093e4430c6b9ba13393a3cb9efd8faa883596ee5fdfd84a2f4b74c2',
        'shape:v9': 'c726aa458b9b1270b4801f86c7c3be07a7694aaf56fc25940ee7be6c6df49860',
    },
}


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def drop_columns(lines: list[str], keep: tuple[int, ...], sep: str) -> str:
    return "\n".join(sep.join(line.split(sep)[i] for i in keep) for line in lines)


def run_digests(raw: dict, seed: int, out_dir: Path) -> dict[str, str | int]:
    result = run_scenario(config_from_dict(raw), seed, out_dir=out_dir, trace=True)
    digests: dict[str, str | int] = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("latency.csv", "summary.json", "trace.jsonl")
    }
    digests["events"] = result.sim._fired
    # latency.csv columns: tx_id kind submit final latency enclave height group_id
    csv_lines = (out_dir / "latency.csv").read_text().splitlines()
    digests["latency-shape"] = sha256_hex(drop_columns(csv_lines, (1, 2, 3, 4, 5, 6), ","))
    for node_name, node in sorted(result.cluster.nodes.items()):
        dump = node.chain_dump()
        digests[f"chain:{node_name}"] = sha256_hex(dump)
        # chain_dump columns: height hash parent proposer round txs gas
        digests[f"shape:{node_name}"] = sha256_hex(drop_columns(dump.splitlines(), (0, 4, 5, 6), " "))
    return digests


def capture(raw: dict, seed: int) -> list:
    return run_scenario(config_from_dict(raw), seed, capture_wire=True).cluster.network.wire_log


def wire_digest(log: list) -> tuple[int, str]:
    h = hashlib.sha256()
    for src, dst, item in log:
        wire = wire_bytes(item)
        h.update(f"{src}|{dst}|{len(wire)}|".encode() + wire)
    return len(log), h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path):
    raw, seed = CASES[case]
    assert run_digests(raw, seed, tmp_path) == GOLDEN[case]


@pytest.fixture(scope="module")
def wire_log():
    return capture(*WIRE_CASE)


def test_wire_image_digest(wire_log):
    assert wire_digest(wire_log) == WIRE_GOLDEN


def test_wire_case_carries_every_item_kind(wire_log):
    kinds = {type(item).__name__ for _, _, item in wire_log}
    assert kinds == {
        "Transaction", "Block", "tuple", "StoredPayload", "int", "bytes",
        "PrePrepare", "Prepare", "Commit", "RoundChange",
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, (raw, seed) in sorted(CASES.items()):
            print(f"    {case!r}: {{")
            for name, value in run_digests(raw, seed, Path(tmp) / case).items():
                print(f"        {name!r}: {value!r},")
            print("    },")
    print(f"WIRE_GOLDEN = {wire_digest(capture(*WIRE_CASE))!r}")
