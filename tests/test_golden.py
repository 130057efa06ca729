"""Golden digests of run outputs: a (config, seed) pair gives the same bytes.

Each case runs with tracing on and compares SHA-256 digests of
`latency.csv`, `summary.json`, `trace.jsonl` and every node's
`chain_dump()` against committed values.  A change that moves any of
them must say why and re-baseline here; print the current digests with
`PYTHONPATH=src python tests/test_golden.py`.
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

GOLDEN: dict[str, dict[str, str]] = {
    "paper-default": {
        "latency.csv": "5414c6db52c7d39ecc6d2cc74bdc91ad1eeefe54007d599ac40acf6edec1d6e5",
        "summary.json": "0302c819f88c244190f397e71d7e0befbe10c75ab9dd46ac033792c88c33b45c",
        "trace.jsonl": "f444ac5b04d2041204241b4f9fe8dfa2d6286e17ad83fb4f5e1f51c3d5b3db33",
        "chain:m0": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:m1": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:m2": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:v0": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:v1": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:v2": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
        "chain:v3": "a854a267494b2c91264faf7a82cd1a6391c3041e542c879b6b61f9c51b8d3e4b",
    },
    "smoke-batches": {
        "latency.csv": "6e10438a169434bd15f3a4466b625fbc03777d090006520ba5076d9187b53c5c",
        "summary.json": "2fddbce9027cf63d6b4f13ab84624cc5ffa669e9077cc66a61a79073e9907426",
        "trace.jsonl": "a2e1a65adf2d81f02109432c55e411d0d7bd4180090a9a4c4bdd312e4c195933",
        "chain:m0": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:m1": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:m2": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:v0": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:v1": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:v2": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
        "chain:v3": "3cec5ef6036df3d20ecd2ad5c2ff553907d0911f3a20bcb7153cad3c018e103d",
    },
    "smoke-equivocate": {
        "latency.csv": "3f1ca5c86af07f293367978abcaec5e5d64bee0e361ee3bec993aec2b693fd1e",
        "summary.json": "7cc91d7350c4c9baf26a206c509a5e12297a46f4ee09754225afa9ea74593a05",
        "trace.jsonl": "7f0ee99a4e48c94e6d327553e716a2e071701c69d39acb0a16126be00ce4c617",
        "chain:m0": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:m1": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:m2": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:v0": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:v1": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:v2": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
        "chain:v3": "07e599e9e12e2dfe0bb8cfd473a3f4668bf0f7628efa8c260a557ec3a34fee5a",
    },
    "smoke-multigroup": {
        "latency.csv": "1f3f4dc63cf5705c1f450d4d967cee56b4b088adea581cdda999baaedd195797",
        "summary.json": "f454a5103ac1ebdee66d77cd9990b229aa5268d6a8889e007e4ca093a9455c17",
        "trace.jsonl": "24c46930562eef34499a5b6af0a9f205f1f8b473ff592bf647fb4a67398432da",
        "chain:m0": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:m1": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:m2": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:v0": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:v1": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:v2": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
        "chain:v3": "2f74fd5f13159162a4ac637cd635d4a7acf77cd5f186ff5b89e9478b6a5768d1",
    },
    "smoke-proposer-crash": {
        "latency.csv": "d1af7ad3f05421b1edb6bb30a97c09dd237671e075f9e74ea8b3635264607a3f",
        "summary.json": "35477da66f8de8f6c29de2f6666b01172c90c363ad53c004c54ce6dab4659ab8",
        "trace.jsonl": "d715c88c7190b8701c463db958841f55752c0b219ee9472c7c285f066d4e9c0f",
        "chain:m0": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
        "chain:m1": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
        "chain:m2": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
        "chain:v0": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
        "chain:v1": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
        "chain:v2": "cab0a5eafc4ef82a07232e9ec3132bc9d26921f513af1f0d9aa8a4811bbbbf57",
        "chain:v3": "eb387a12cd350cf57e604f361d182c425201372e198ba7da1114a846ee90cda7",
    },
}


def run_digests(raw: dict, seed: int, out_dir: Path) -> dict[str, str]:
    result = run_scenario(config_from_dict(raw), seed, out_dir=out_dir, trace=True)
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("latency.csv", "summary.json", "trace.jsonl")
    }
    for node_name, node in sorted(result.cluster.nodes.items()):
        digests[f"chain:{node_name}"] = hashlib.sha256(node.chain_dump().encode()).hexdigest()
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
