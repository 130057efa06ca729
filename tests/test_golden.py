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
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from pactsim.config import config_from_dict
from pactsim.scenario import run_scenario

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
}

GOLDEN: dict[str, dict[str, str | int]] = {
    'paper-default': {
        'latency.csv': '3990ed0be68ebf820e0df0b94c48217809e81af5e8ee37826fd1f0846ba9362d',
        'summary.json': '523f06904d1f1e7a2cd89249d6723b50588f02209c40f9db62d904dbb516d8d8',
        'trace.jsonl': '122c57fb454ffe4dc37a341201811aaabf8f5cba7687b1997735b231f1fce8b8',
        'events': 5727,
        'latency-shape': '325e66358848804fe44e6b872f9e2089c5df975f0e41e2d46ede02da566e75b3',
        'chain:m0': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:m0': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:m1': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:m1': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:m2': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:m2': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:v0': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:v0': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:v1': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:v1': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:v2': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:v2': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
        'chain:v3': '4850406f71bceefda96018cbedc3169c1808534eeda73ab6ef9f533a33030efb',
        'shape:v3': 'f7936bf9cf23822a719f806150d5a2bbea16d06fa71a258e907c5c8a17ec52d4',
    },
    'smoke-batches': {
        'latency.csv': 'c5c88a9deb5e71cac2750a740e2f884be470cf3b99c5086545479fcdfd6930a6',
        'summary.json': 'f269c43f3134c9435c93d814483ffc5a6f043d1ce0718dfec35808b1461214a0',
        'trace.jsonl': 'e70ee83a31bf1e0c96f6bdd9322fdea8a872996d7c6ac16ea5b253ceaa949070',
        'events': 884,
        'latency-shape': '12ca05fb5732b390592caffa3ddecf1a4ad34b205d58d84a931e4c5fad9323dc',
        'chain:m0': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:m0': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:m1': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:m1': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:m2': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:m2': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:v0': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:v0': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:v1': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:v1': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:v2': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:v2': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
        'chain:v3': '1e4caf4384e63a92b32c35d677bdd39cc1bb811a68ba25fda542aae70c2fb737',
        'shape:v3': 'be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb',
    },
    'smoke-equivocate': {
        'latency.csv': '20fd5f25d7628fc0fc532b5019976d31c852b7e4487d073b0c75c1d96eab9dde',
        'summary.json': 'e6f703e9adf8ac4d32c3073b30e2694785870f2d791fdeedd8f701f4682c65ce',
        'trace.jsonl': '9f9b9f17ff25c795cafc620883fffe77e8f296737bd6d01422f91708182de860',
        'events': 672,
        'latency-shape': 'a8efd0681d0e6673ffabd179b8956d7014569b53027b11ddde6a5b3fc8a48e85',
        'chain:m0': '02b5938dac7d5113e90764918aa37532d8556a8d977225ce7ac7356fdfd39645',
        'shape:m0': 'eaa145e3dbf62ece9eda4573cfdbf917161586012a605d16635d0c731bfa31e5',
        'chain:m1': '02b5938dac7d5113e90764918aa37532d8556a8d977225ce7ac7356fdfd39645',
        'shape:m1': 'eaa145e3dbf62ece9eda4573cfdbf917161586012a605d16635d0c731bfa31e5',
        'chain:m2': '02b5938dac7d5113e90764918aa37532d8556a8d977225ce7ac7356fdfd39645',
        'shape:m2': 'eaa145e3dbf62ece9eda4573cfdbf917161586012a605d16635d0c731bfa31e5',
        'chain:v0': '304f5644694a529404be8480ec261c1de8fb54b5a497fc59629ff30213043f07',
        'shape:v0': '25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed',
        'chain:v1': '304f5644694a529404be8480ec261c1de8fb54b5a497fc59629ff30213043f07',
        'shape:v1': '25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed',
        'chain:v2': '304f5644694a529404be8480ec261c1de8fb54b5a497fc59629ff30213043f07',
        'shape:v2': '25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed',
        'chain:v3': '304f5644694a529404be8480ec261c1de8fb54b5a497fc59629ff30213043f07',
        'shape:v3': '25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed',
    },
    'smoke-multigroup': {
        'latency.csv': 'f937e1cb1564816800d88844e5765c14e2d623e740ed0b7a627142b55a60f1bf',
        'summary.json': '84e6540e086a853d9d551754250d5c4f8c28a53e543f12d2762a163c14dfc2d2',
        'trace.jsonl': 'fff4d4077ba30f75b60f03d7c9438aec5483de8dde3bd5268d368babbbf31498',
        'events': 1354,
        'latency-shape': '298eee7e3cfedf00335c7678a4cf99c9ddf6dd4ce76aaab7b62b893734b0a74e',
        'chain:m0': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:m0': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:m1': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:m1': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:m2': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:m2': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:v0': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:v0': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:v1': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:v1': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:v2': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:v2': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
        'chain:v3': 'a374aa601c180ec0666d7d500f3a3beea63708bad951b2f11caf6318d614faa1',
        'shape:v3': '5cfcab320b69e4019497188d076867e54ab3e89477f5668a0065a3d50547fe08',
    },
    'smoke-proposer-crash': {
        'latency.csv': 'a39734895e80d1e65fc5913fa9fb84adeea7c20a20afdb2720fc133408410c1e',
        'summary.json': 'e52639331559a51188487d2ede48b5faa7c0099501bb0294318520f9463522ea',
        'trace.jsonl': 'f1e3d63dbb7bb694daba54905d3d4b25e788bd3f21240e2e1ef0df67b3f107ed',
        'events': 351,
        'latency-shape': 'f22a679ac49b78db62398f706f76f3016fdc9d28db857693ec41e37ebf6e553d',
        'chain:m0': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:m0': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:m1': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:m1': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:m2': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:m2': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v0': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:v0': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v1': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:v1': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
        'chain:v2': 'cab0a5eafc4ef82a07232e9ec3132bc9d26921f513af1f0d9aa8a4811bbbbf57',
        'shape:v2': 'f7a6c106dd2f1b3f0931bc9333e6d8772a1b7399f07ccd8b030952c1341aab16',
        'chain:v3': 'db6e82f16dd85ac65c2a8a5c941541fc9bdb2e4983b3db0fe16185ad276319c9',
        'shape:v3': 'c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1',
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case, tmp_path):
    raw, seed = CASES[case]
    assert run_digests(raw, seed, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case, (raw, seed) in sorted(CASES.items()):
            print(f"    {case!r}: {{")
            for name, value in run_digests(raw, seed, Path(tmp) / case).items():
                print(f"        {name!r}: {value!r},")
            print("    },")
