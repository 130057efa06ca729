"""Whole runs that open payloads from their sealing memo equal runs that decrypt.

`PayloadCourier.distribute` leaves on each payload object it seals the
key and plaintext it sealed it with (`StoredPayload.sealed`), and
`Enclave.open` returns that plaintext when the key it holds is the
sealing key instead of decrypting again.  Each case runs twice: as is,
and with `Enclave.open` made to decrypt every copy, and must write the
same `latency.csv` and `summary.json`.  After the first run every memo
held by any enclave must be what decryption under the group's key gives.
"""

from __future__ import annotations

import dataclasses

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from pactsim import privacy, scenario
from pactsim.config import config_from_dict
from pactsim.privacy import Enclave

from .test_golden import CASES

OPEN = Enclave.open

# The benchmark's `private-burst` workload (`perfbench/workloads.py`).
PRIVATE_BURST = {
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
}

RUNS: dict[str, tuple[dict, int]] = {
    **{case: CASES[case] for case in ("paper-default", "smoke-batches", "smoke-multigroup")},
    "private-burst": (PRIVATE_BURST, 29),
}


def open_by_decrypting(enclave: Enclave, group_id: bytes, payload_hash: bytes) -> bytes | None:
    """`Enclave.open` over copies that carry no memo, so every one is decrypted."""
    bare = Enclave()
    bare.keys = enclave.keys
    for copy in enclave.copies(payload_hash):
        bare.receive(dataclasses.replace(copy))
    return OPEN(bare, group_id, payload_hash)


class CountingCipher:
    """`ChaCha20Poly1305` as the privacy module uses it, counting decrypts."""

    decrypts = 0

    def __init__(self, key: bytes):
        self._cipher = ChaCha20Poly1305(key)

    def encrypt(self, nonce: bytes, data: bytes, aad: bytes) -> bytes:
        return self._cipher.encrypt(nonce, data, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes) -> bytes:
        CountingCipher.decrypts += 1
        return self._cipher.decrypt(nonce, data, aad)


def run(raw: dict, seed: int, out_dir) -> tuple[scenario.RunResult, dict[str, bytes]]:
    result = scenario.run_scenario(config_from_dict(raw), seed, out_dir=out_dir)
    return result, {name: (out_dir / name).read_bytes() for name in ("latency.csv", "summary.json")}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_opening_from_the_memo_writes_the_bytes_decryption_writes(case, tmp_path, monkeypatch):
    raw, seed = RUNS[case]
    result, files = run(raw, seed, tmp_path / "memo")
    sealed = {}
    for node in result.cluster.nodes.values():
        for h in node.enclave.payloads:
            for copy in node.enclave.copies(h):
                if copy.sealed is not None:
                    key = result.groups[copy.group_id].key
                    assert copy.sealed[0] == key
                    assert ChaCha20Poly1305(key).decrypt(copy.nonce, copy.ciphertext, copy.group_id) == copy.sealed[1]
                    sealed[h] = copy
    # Every payload sent in the run was sealed by the courier, one object per payload.
    assert sealed and sealed.keys() == result.cluster.sent_ops.keys()
    assert all(sent[1] is sealed[h].sealed[1] for h, sent in result.cluster.sent_ops.items())

    opens = []
    monkeypatch.setattr(Enclave, "open", lambda *args: opens.append(args) or open_by_decrypting(*args))
    monkeypatch.setattr(CountingCipher, "decrypts", 0)
    monkeypatch.setattr(privacy, "ChaCha20Poly1305", CountingCipher)
    _, decrypted_files = run(raw, seed, tmp_path / "decrypted")
    assert decrypted_files == files
    # Every open ran the cipher.
    assert CountingCipher.decrypts == len(opens) > 0


def test_a_run_opening_every_payload_runs_no_decryption(tmp_path, monkeypatch):
    opens = []
    monkeypatch.setattr(Enclave, "open", lambda *args: opens.append(args) or OPEN(*args))
    monkeypatch.setattr(CountingCipher, "decrypts", 0)
    monkeypatch.setattr(privacy, "ChaCha20Poly1305", CountingCipher)
    raw, seed = CASES["smoke-batches"]
    run(raw, seed, tmp_path)
    assert opens and CountingCipher.decrypts == 0
