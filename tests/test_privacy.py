"""Group formation, payload encryption, enclaves, and distribution."""

import hashlib
import statistics
from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidTag

from pactsim.identity import Credential
from pactsim.scenario import wire_bytes
from pactsim.privacy import (
    GROUP_KEY_LEN,
    NONCE_LEN,
    Enclave,
    GroupInfo,
    PayloadCourier,
    StoredPayload,
    encode_wire,
    encrypt_payload,
    form_group,
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
            opened.append(enclave.open(gid, h))
        except InvalidTag:
            opened.append("refused")
    # Bound to the key, the group id and every ciphertext byte.
    assert opened == [b"secret terms", "refused", "refused", "refused"]


def test_a_copy_under_another_nonce_shares_the_hash_and_fails_the_tag():
    ct = encrypt_payload(KEY, (0).to_bytes(NONCE_LEN, "big"), b"secret terms", GID)
    wrong = StoredPayload(GID, (1).to_bytes(NONCE_LEN, "big"), ct)
    right = StoredPayload(GID, (0).to_bytes(NONCE_LEN, "big"), ct)
    # The hash binds only the ciphertext, so both copies are stored under it.
    assert wrong.payload_hash == right.payload_hash == hashlib.sha256(ct).digest()
    for arrivals in ([wrong, right], [right, wrong]):
        enclave = Enclave()
        enclave.store_key(GID, KEY)
        (h,) = {enclave.receive(copy) for copy in arrivals}
        # Neither copy shadows the other, in either order.
        assert enclave.copies(h) == arrivals
        assert enclave.open(GID, h) == b"secret terms"
    enclave = Enclave()
    enclave.store_key(GID, KEY)
    h = enclave.receive(wrong)
    assert enclave.payloads == {h: wrong}
    with pytest.raises(InvalidTag):
        enclave.open(GID, h)


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


def test_form_group_depends_only_on_the_pair_and_its_index():
    pubs = [CONSUMER.public_key, PROVIDER.public_key]
    info = form_group(RngHub(3), CONSUMER.address, PROVIDER.address, pubs, ("m0", "m1"), pair_index=0)
    assert len(info.key) == GROUP_KEY_LEN
    assert info.group_id == group_id_for(pubs, CONSUMER.address, PROVIDER.address)
    assert info.members == {CONSUMER.address, PROVIDER.address} and info.next_nonce == 0
    # Keys are bound to the pair index, not to formation order.
    hub = RngHub(3)
    form_group(hub, CONSUMER.address, cred(60).address, pubs, ("m0", "m1"), pair_index=5)
    assert form_group(hub, CONSUMER.address, PROVIDER.address, pubs, ("m0", "m1"), pair_index=0) == info


def test_enclave_opens_only_with_key():
    nonce = (0).to_bytes(NONCE_LEN, "big")
    ct = encrypt_payload(KEY, nonce, b"plain", GID)
    holder = Enclave()
    holder.store_key(GID, KEY)
    h = holder.receive(StoredPayload(GID, nonce, ct))
    assert holder.open(GID, h) == b"plain"
    outsider = Enclave()
    outsider.receive(StoredPayload(GID, nonce, ct))
    assert outsider.open(GID, h) is None
    assert holder.open(GID, b"\x00" * 32) is None
    # Holding another group's key does not open this group's payload under it.
    other = hashlib.sha256(b"other").digest()
    holder.store_key(other, KEY)
    assert holder.open(other, h) is None


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
    transfer = courier.draw_transfer()
    h = courier.distribute(group, "m0", b"private op", transfer, lambda ack: acks.append((ack, sim.now)))
    assert enclaves["m0"].payloads.get(h) is not None
    sim.run()
    # Sent at time 0, so the acknowledgement's arrival time is the transfer time.
    ((ack, acked_at),) = acks
    assert ack == h and acked_at >= 800
    stored = enclaves["m1"].payloads.get(h)
    assert stored is not None and b"private op" not in stored.ciphertext
    assert enclaves["m2"].payloads.get(h) is None
    # Receiver holds no key yet, so the payload stays opaque until joined.
    assert enclaves["m1"].open(GID, h) is None
    enclaves["m1"].store_key(GID, KEY)
    assert enclaves["m1"].open(GID, h) == b"private op"


def sealed_payload(plaintext=b"private op") -> StoredPayload:
    """The payload object the courier seals and hands to both members."""
    _, enclaves, courier = courier_env()
    h = courier.distribute(group_for(("m0", "m1")), "m0", plaintext, courier.draw_transfer(), lambda ack: None)
    return enclaves["m0"].payloads[h]


def enclave_with(key, gid, *payloads) -> Enclave:
    enclave = Enclave()
    if key is not None:
        enclave.store_key(gid, key)
    for payload in payloads:
        enclave.receive(payload)
    return enclave


def test_only_the_object_the_courier_sealed_carries_the_memo():
    sealed = sealed_payload()
    assert sealed.sealed == (KEY, b"private op")
    moved = replace(sealed, nonce=(1).to_bytes(NONCE_LEN, "big"))
    plain = StoredPayload(sealed.group_id, sealed.nonce, sealed.ciphertext)
    assert moved.sealed is None and plain.sealed is None and replace(sealed).sealed is None
    assert moved.payload_hash == plain.payload_hash == sealed.payload_hash
    with pytest.raises(InvalidTag):
        enclave_with(KEY, GID, moved).open(GID, sealed.payload_hash)
    assert enclave_with(KEY, GID, plain).open(GID, sealed.payload_hash) == b"private op"


def test_the_memo_opens_only_under_the_sealing_key_and_group():
    sealed = sealed_payload()
    h = sealed.payload_hash
    assert enclave_with(KEY, GID, sealed).open(GID, h) == b"private op"
    with pytest.raises(InvalidTag):
        enclave_with(bytes(32), GID, sealed).open(GID, h)
    assert enclave_with(None, GID, sealed).open(GID, h) is None
    other = hashlib.sha256(b"other").digest()
    assert enclave_with(KEY, other, sealed).open(other, h) is None


def test_a_sealed_copy_and_a_plain_copy_are_equal_on_every_encoding():
    sealed = sealed_payload()
    plain = StoredPayload(sealed.group_id, sealed.nonce, sealed.ciphertext)
    assert sealed == plain and hash(sealed) == hash(plain) and repr(sealed) == repr(plain)
    images = [
        (encode_wire(p), wire_bytes(p), enclave_with(KEY, GID, p).dump_bytes()) for p in (sealed, plain)
    ]
    assert images[0] == images[1]
    assert not any(b"private op" in blob for blob in images[0])


def test_an_enclave_keeps_every_distinct_copy_and_opens_the_first_of_its_group_that_passes():
    ct = encrypt_payload(KEY, (0).to_bytes(NONCE_LEN, "big"), b"secret terms", GID)
    other = hashlib.sha256(b"other").digest()
    wrong = StoredPayload(GID, (1).to_bytes(NONCE_LEN, "big"), ct)
    elsewhere = StoredPayload(other, (0).to_bytes(NONCE_LEN, "big"), ct)
    right = StoredPayload(GID, (0).to_bytes(NONCE_LEN, "big"), ct)
    enclave = enclave_with(KEY, GID, wrong, elsewhere, right, wrong, replace(right))
    enclave.store_key(other, KEY)
    h = right.payload_hash
    # Repeats of a held copy are not kept again; the first copy stays in `payloads`.
    assert enclave.copies(h) == [wrong, elsewhere, right] and enclave.payloads == {h: wrong}
    assert enclave.open(GID, h) == b"secret terms"
    # The other group's copy was sealed under GID, so it fails its tag.
    with pytest.raises(InvalidTag):
        enclave.open(other, h)
    # Every copy is in the enclave's image, in arrival order, once.
    image = enclave.dump_bytes()
    wires = b"".join(encode_wire(p) for p in (wrong, elsewhere, right))
    assert image.endswith(wires) and image.count(ct) == 3
    # A hash held only under another group opens nothing for this one.
    assert enclave_with(KEY, GID, elsewhere).open(GID, h) is None


def reference_transfers(n, seed=21, model=Uniform(400, 2600), retry=0.15) -> list[tuple[int, int]]:
    """The first `n` payloads' (arrival, acknowledgement) delays from scalar draws:
    payload k takes legs 4k..4k+3 of sub-stream 1 and coin k of sub-stream 2."""
    hub = RngHub(seed)
    legs_rng, coins_rng = hub.derived(STREAM_ENCLAVE, 1), hub.derived(STREAM_ENCLAVE, 2)
    legs = [model.sample(legs_rng) for _ in range(4 * n)]
    out = []
    for k in range(n):
        push1, ack1, push2, ack2 = legs[4 * k : 4 * k + 4]
        if coins_rng.random() < retry:
            out.append((push1 + ack1 + push2, push1 + ack1 + push2 + ack2))
        else:
            out.append((push1, push1 + ack1))
    return out


def distribution_delays(indices):
    """Each payload's transfer time, its transfer drawn in index order and the payload distributed in
    the order of `indices`: every payload is sent at time 0, so it is the acknowledgement's arrival."""
    sim, _, courier = courier_env()
    transfers = [courier.draw_transfer() for _ in range(max(indices) + 1)]
    out = {}
    for i in indices:
        courier.distribute(
            group_for(("m0", "m1")), "m0", b"p%d" % i, transfers[i], lambda _h, i=i: out.__setitem__(i, sim.now)
        )
    sim.run()
    return out


def test_distribution_delays_are_keyed_by_payload_index():
    a = distribution_delays([0, 1, 2])
    b = distribution_delays([2, 0])
    assert a[0] == b[0] and a[2] == b[2]


# Legs are drawn 1024 at a time, 256 payloads' worth; coins 1024 payloads' worth.
def test_kth_drawn_transfer_is_row_k_of_the_scalar_draws():
    hub = RngHub(21)
    _, _, courier = courier_env(hub=hub)
    drawn = [courier.draw_transfer() for _ in range(1501)]
    reference = reference_transfers(1501)
    assert drawn == reference
    # Without a retry a transfer takes at most 5200 ms, so the retry branch was compared too.
    assert max(done for _, done in drawn) > 5200
    # Two generators serve every payload of the run.
    assert sorted(hub._streams) == [(STREAM_ENCLAVE, 1), (STREAM_ENCLAVE, 2)]


@pytest.mark.parametrize(
    "indices",
    [[0, 255, 256, 1024, 1500], [1500, 1024, 256, 255, 0], list(range(40, 300)) + [3, 1030], [1030, 3]],
)
def test_each_payload_reads_its_own_legs_and_coin_in_any_order(indices):
    reference = reference_transfers(max(indices) + 1)
    assert distribution_delays(indices) == {k: reference[k][1] for k in indices}


def test_distribution_delay_envelope():
    # One recipient: no-retry span is 800..5200, retry span up to 10400;
    # with p=0.15 the long-run mean sits near 3450.  Every payload is sent at
    # time 0, so an acknowledgement's arrival time is its transfer time.
    sim, _, courier = courier_env()
    samples = []
    for i in range(600):
        transfer = courier.draw_transfer()
        courier.distribute(group_for(("m0", "m1")), "m0", b"x%d" % i, transfer, lambda _h: samples.append(sim.now))
    sim.run()
    assert min(samples) >= 800
    assert max(samples) <= 10400
    assert max(samples) > 5200  # some retries happened
    assert abs(statistics.mean(samples) - 3450) < 150


def test_retry_probability_zero_tightens_envelope():
    sim, _, courier = courier_env(retry=0.0)
    samples = []
    for i in range(200):
        transfer = courier.draw_transfer()
        courier.distribute(group_for(("m0", "m1")), "m0", b"y%d" % i, transfer, lambda _h: samples.append(sim.now))
    sim.run()
    assert max(samples) <= 5200

