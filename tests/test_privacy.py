"""Group formation, payload encryption, enclaves, and distribution."""

import hashlib
import statistics

import pytest
from cryptography.exceptions import InvalidTag

from pactsim.identity import Credential
from pactsim.privacy import (
    GROUP_KEY_LEN,
    NONCE_LEN,
    Enclave,
    GroupDirectory,
    GroupInfo,
    PayloadCourier,
    StoredPayload,
    encrypt_payload,
    group_id_for,
)
from pactsim.simulation import STREAM_ENCLAVE, Network, RngHub, Simulator, Uniform

from .conftest import cred

CONSUMER = cred(50)
PROVIDER = cred(51)
KEY = bytes(range(32))
GID = hashlib.sha256(b"group").digest()


def test_group_id_is_order_invariant_but_pair_specific():
    pubs = [CONSUMER.public_key, PROVIDER.public_key]
    gid = group_id_for(pubs, CONSUMER.address, PROVIDER.address)
    assert gid == group_id_for(list(reversed(pubs)), CONSUMER.address, PROVIDER.address)
    assert gid != group_id_for(pubs, PROVIDER.address, CONSUMER.address)
    other = cred(52)
    assert gid != group_id_for([CONSUMER.public_key, other.public_key], CONSUMER.address, other.address)


def test_encrypt_round_trip_and_tamper_rejection():
    nonce = (0).to_bytes(NONCE_LEN, "big")
    ct = encrypt_payload(KEY, nonce, b"secret terms", GID)
    assert b"secret terms" not in ct
    other = hashlib.sha256(b"other").digest()
    cases = [(KEY, GID, ct), (KEY, other, ct), (bytes(32), GID, ct), (KEY, GID, bytes([ct[0] ^ 1]) + ct[1:])]
    opened = []
    for key, gid, data in cases:
        enclave = Enclave()
        enclave.store_key(gid, key)
        h = enclave.receive(StoredPayload(gid, nonce, data))
        try:
            opened.append(enclave.open(h))
        except InvalidTag:
            opened.append("refused")
    # Bound to the key, the group id and every ciphertext byte.
    assert opened == [b"secret terms", "refused", "refused", "refused"]


def test_nonce_counter_increments():
    info = GroupInfo(
        group_id=GID,
        consumer=CONSUMER.address,
        provider=PROVIDER.address,
        members=frozenset((CONSUMER.address, PROVIDER.address)),
        member_nodes=("m0", "m1"),
        key=KEY,
        pair_index=0,
    )
    assert info.take_nonce() == (0).to_bytes(NONCE_LEN, "big")
    assert info.take_nonce() == (1).to_bytes(NONCE_LEN, "big")


def test_directory_forms_once_per_pair():
    directory = GroupDirectory(RngHub(3))
    pubs = [CONSUMER.public_key, PROVIDER.public_key]
    info, formed = directory.get_or_form(
        CONSUMER.address, PROVIDER.address, pubs, ("m0", "m1"), pair_index=0
    )
    assert formed and len(info.key) == GROUP_KEY_LEN
    again, formed2 = directory.get_or_form(
        CONSUMER.address, PROVIDER.address, pubs, ("m0", "m1"), pair_index=0
    )
    assert not formed2 and again is info
    # Keys are bound to the pair index, not to formation order.
    other_dir = GroupDirectory(RngHub(3))
    other_dir.get_or_form(CONSUMER.address, cred(60).address, pubs, ("m0", "m1"), pair_index=5)
    redo, _ = other_dir.get_or_form(
        CONSUMER.address, PROVIDER.address, pubs, ("m0", "m1"), pair_index=0
    )
    assert redo.key == info.key


def test_enclave_opens_only_with_key():
    nonce = (0).to_bytes(NONCE_LEN, "big")
    ct = encrypt_payload(KEY, nonce, b"plain", GID)
    holder = Enclave()
    holder.store_key(GID, KEY)
    h = holder.receive(StoredPayload(GID, nonce, ct))
    assert holder.open(h) == b"plain"
    outsider = Enclave()
    outsider.receive(StoredPayload(GID, nonce, ct))
    assert outsider.open(h) is None
    assert holder.open(b"\x00" * 32) is None


def test_enclave_put_is_idempotent():
    e = Enclave()
    nonce = (0).to_bytes(NONCE_LEN, "big")
    ct = encrypt_payload(KEY, nonce, b"x", GID)
    h = e.receive(StoredPayload(GID, nonce, ct))
    assert e.receive(StoredPayload(GID, nonce, ct)) == h
    assert list(e.payloads) == [h]
    assert h == hashlib.sha256(ct).digest()


def test_enclave_dump_contains_key_and_payload():
    e = Enclave()
    e.store_key(GID, KEY)
    nonce = (0).to_bytes(NONCE_LEN, "big")
    ct = encrypt_payload(KEY, nonce, b"x", GID)
    e.receive(StoredPayload(GID, nonce, ct))
    blob = e.dump_bytes()
    assert KEY in blob and ct in blob


# -- distribution -----------------------------------------------------


def courier_env(retry=0.15, hub=None):
    sim = Simulator()
    net = Network(sim, RngHub(21))
    enclaves = {n: Enclave() for n in ("m0", "m1", "m2")}
    courier = PayloadCourier(net, hub or RngHub(21), enclaves, Uniform(400, 2600), retry_probability=retry)
    return sim, enclaves, courier


def group_for(nodes) -> GroupInfo:
    return GroupInfo(
        group_id=GID,
        consumer=CONSUMER.address,
        provider=PROVIDER.address,
        members=frozenset((CONSUMER.address, PROVIDER.address)),
        member_nodes=nodes,
        key=KEY,
        pair_index=0,
    )


def test_distribute_delivers_ciphertext_and_completes():
    sim, enclaves, courier = courier_env()
    group = group_for(("m0", "m1"))
    acks = []
    h = courier.distribute(group, "m0", b"private op", 0, lambda ack: acks.append((ack, sim.now)))
    assert enclaves["m0"].payloads.get(h) is not None
    sim.run()
    # Sent at time 0, so the acknowledgement's arrival time is the transfer time.
    ((ack, acked_at),) = acks
    assert ack == h and acked_at >= 800
    stored = enclaves["m1"].payloads.get(h)
    assert stored is not None and b"private op" not in stored.ciphertext
    assert enclaves["m2"].payloads.get(h) is None
    # Receiver holds no key yet, so the payload stays opaque until joined.
    assert enclaves["m1"].open(h) is None
    enclaves["m1"].store_key(GID, KEY)
    assert enclaves["m1"].open(h) == b"private op"


def reference_enclave_ms(indices, retry=0.15) -> dict[int, int]:
    """Each payload's duration from scalar draws: legs 4k..4k+3 of sub-stream 1, coin k of sub-stream 2."""
    hub = RngHub(21)
    legs_rng, coins_rng = hub.derived(STREAM_ENCLAVE, 1), hub.derived(STREAM_ENCLAVE, 2)
    last = max(indices)
    legs = [Uniform(400, 2600).sample(legs_rng) for _ in range(4 * last + 4)]
    coins = [coins_rng.random() for _ in range(last + 1)]
    return {
        k: sum(legs[4 * k : 4 * k + 4]) if coins[k] < retry else legs[4 * k] + legs[4 * k + 1] for k in indices
    }


def distribution_delays(indices, hub=None):
    """Each payload's transfer time: every payload is sent at time 0, so it is the acknowledgement's arrival."""
    sim, _, courier = courier_env(hub=hub)
    out = {}
    for i in indices:
        courier.distribute(group_for(("m0", "m1")), "m0", b"p%d" % i, i, lambda _h, i=i: out.__setitem__(i, sim.now))
    sim.run()
    return out


def test_distribution_delays_are_keyed_by_payload_index():
    a = distribution_delays([0, 1, 2])
    b = distribution_delays([2, 0])
    assert a[0] == b[0] and a[2] == b[2]


# Legs are drawn 1024 at a time, 256 payloads' worth; coins 1024 payloads' worth.
@pytest.mark.parametrize(
    "indices",
    [[0, 255, 256, 1024, 1500], [1500, 1024, 256, 255, 0], list(range(40, 300)) + [3, 1030], [1030, 3]],
)
def test_each_payload_reads_its_own_legs_and_coin_in_any_order(indices):
    hub = RngHub(21)
    assert distribution_delays(indices, hub) == reference_enclave_ms(indices)
    # Two generators serve every payload of the run.
    assert sorted(hub._streams) == [(STREAM_ENCLAVE, 1), (STREAM_ENCLAVE, 2)]


def test_distribution_delay_envelope():
    # One recipient: no-retry span is 800..5200, retry span up to 10400;
    # with p=0.15 the long-run mean sits near 3450.  Every payload is sent at
    # time 0, so an acknowledgement's arrival time is its transfer time.
    sim, _, courier = courier_env()
    samples = []
    for i in range(600):
        courier.distribute(group_for(("m0", "m1")), "m0", b"x%d" % i, i, lambda _h: samples.append(sim.now))
    sim.run()
    assert min(samples) >= 800
    assert max(samples) <= 10400
    assert max(samples) > 5200  # some retries happened
    assert abs(statistics.mean(samples) - 3450) < 150


def test_retry_probability_zero_tightens_envelope():
    sim, _, courier = courier_env(retry=0.0)
    samples = []
    for i in range(200):
        courier.distribute(group_for(("m0", "m1")), "m0", b"y%d" % i, i, lambda _h: samples.append(sim.now))
    sim.run()
    assert max(samples) <= 5200

