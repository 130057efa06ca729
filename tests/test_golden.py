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
    "paper-default": {
        "latency.csv": "0aad04d54a4e06e6ad59fa254e367860954fd5d8c035af5a1e7a10ce9ca4dec8",
        "summary.json": "0302c819f88c244190f397e71d7e0befbe10c75ab9dd46ac033792c88c33b45c",
        "trace.jsonl": "e2b71ef36a23ac5d61a67aeae5320d561a92a32aa23b08225e59f7067de2f974",
        "events": 5900,
        "latency-shape": "37e7c12d1a6675a2697b084775479a8e5bcd7b2acf1522c08fb2da306bc6a438",
        "chain:m0": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:m0": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:m1": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:m1": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:m2": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:m2": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:v0": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:v0": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:v1": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:v1": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:v2": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:v2": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
        "chain:v3": "2e32cdf385d1bfaa77d84623e6b2ffd3f81bd38e414e502af5dadaa373bb5337",
        "shape:v3": "52806a6ab88a75a13a10095acf7dcf5e0381b224229d09f6c5b0f1bae36056e7",
    },
    "smoke-batches": {
        "latency.csv": "a399fcf807e36d6b1dcb590b1b65d8d3f6622c7cfe5f2f756bf998227b0a5c08",
        "summary.json": "2fddbce9027cf63d6b4f13ab84624cc5ffa669e9077cc66a61a79073e9907426",
        "trace.jsonl": "8ccf06e48ed8a970c2ed3845d6b9f8f69dcbb87b7d2de674f44fc3bd4035473d",
        "events": 1090,
        "latency-shape": "d1d7586f3b10854761584d92a73a566af9ba4c12ab2f7359b4d9998614b33c32",
        "chain:m0": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:m0": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:m1": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:m1": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:m2": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:m2": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:v0": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:v0": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:v1": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:v1": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:v2": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:v2": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
        "chain:v3": "7ea2002acf8e3f8d08c78b12c90ba934943972d2e0f4e3ff6a333fa5b10e6dcd",
        "shape:v3": "be94739145f3702fd96dabb6de124be2f7bea2e74dc7274d360707fc1a67dfdb",
    },
    "smoke-equivocate": {
        "latency.csv": "334a62c3f2483fc03cb7250d1e35628d6dc634239f57f8fcae296f0ca77b08cc",
        "summary.json": "7cc91d7350c4c9baf26a206c509a5e12297a46f4ee09754225afa9ea74593a05",
        "trace.jsonl": "31e89ed3f852ae28e6179ebd0568825b24d110bc97fdeb615d4e25f460ed2a64",
        "events": 796,
        "latency-shape": "9f0e8bcdc71d81e286ea3c1a5c76ff9abae3103544a93de0071464a89490da17",
        "chain:m0": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:m0": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:m1": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:m1": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:m2": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:m2": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:v0": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:v0": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:v1": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:v1": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:v2": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:v2": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
        "chain:v3": "0384baad70124ecb3a56af0ad331f7252cf80e79d3d61a5157fbbe046f1e8e2a",
        "shape:v3": "25c8246c2fe96570d74f5c253011d6093bb48a7387c1e9c8caeebc1feb8e62ed",
    },
    "smoke-multigroup": {
        "latency.csv": "51f6d2dfac8416378fd2d33094bdf65924e0cb1664449f79e2fa2f1a994bf02b",
        "summary.json": "f454a5103ac1ebdee66d77cd9990b229aa5268d6a8889e007e4ca093a9455c17",
        "trace.jsonl": "8be0be7b5aa810719908938989abaa58d469f6cef186317c052622c709242b49",
        "events": 1552,
        "latency-shape": "2ca9b3ed3490ea83ee52b082c7428fb328016db6d2b11ca4219e8bd0528091d4",
        "chain:m0": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:m0": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:m1": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:m1": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:m2": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:m2": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:v0": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:v0": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:v1": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:v1": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:v2": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:v2": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
        "chain:v3": "0db561517124a5a7426df672dabead47e8cf3d10a4555380c5a56246bd19499e",
        "shape:v3": "33dc22782ffdc105a90e546a4019932493e4cdaab47f16b9ae462e31858e4c77",
    },
    "smoke-proposer-crash": {
        "latency.csv": "32e732e274f00b9d4f694c15946797c036c619ac0f761fca32e79f2e7943ab3a",
        "summary.json": "35477da66f8de8f6c29de2f6666b01172c90c363ad53c004c54ce6dab4659ab8",
        "trace.jsonl": "36d54ffd94041971006161aaf7303a10266f6b673a902810474cf87145249474",
        "events": 407,
        "latency-shape": "44181db8776bb6ad265239b663887f300e82a1665d05d98ab08f7b79c7da89a8",
        "chain:m0": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:m0": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
        "chain:m1": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:m1": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
        "chain:m2": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:m2": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
        "chain:v0": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:v0": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
        "chain:v1": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:v1": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
        "chain:v2": "cab0a5eafc4ef82a07232e9ec3132bc9d26921f513af1f0d9aa8a4811bbbbf57",
        "shape:v2": "f7a6c106dd2f1b3f0931bc9333e6d8772a1b7399f07ccd8b030952c1341aab16",
        "chain:v3": "577de18c878040dff46a9e1d89f8fd5a3a5887fc7b58c638698b65d073eb403c",
        "shape:v3": "c473865fab6053bbbd40ac953be9c5d8a6a0e6316bc6bcc438738d67c07b58c1",
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
