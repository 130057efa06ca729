"""Public contract rules, gas accounting, and the private breach ledger."""

import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pactsim import contracts
from pactsim.config import config_from_dict
from pactsim.contracts import (
    MAX_SERVICES_PER_PROVIDER,
    OPS,
    AgreementRecord,
    BatchSummary,
    BreachRecord,
    GasSchedule,
    OpBatch,
    OpBreach,
    OpInit,
    PublicState,
    Role,
    SelectionRecord,
    ServiceRecord,
    abi_description,
    decode_private_op,
    enc_breaches,
    public_call,
)
from pactsim.encoding import ADDRESS_LEN, ARG_TYPES, DecodeError, digest, enc_bytes, enc_u32, enc_u64
from pactsim.ledger import PrivacyMarker, PublicCall, make_transaction
from pactsim.scenario import run_scenario

from .conftest import call_tx, cred

PROVIDER = cred(30)
CONSUMER = cred(31)
OTHER = cred(32)

SLA = bytes(range(32))

# Frozen costs under the default schedule: base 21000, write 20000,
# read 2100.
GAS_REGISTER = 41_000
GAS_PUBLISH = 61_000
GAS_SELECT = 45_200
GAS_MARKER = 41_000


def register(state, who, role, nonce=0):
    return state.execute(call_tx(who, nonce, "registry", "register", int(role)))


def publish(state, who, nonce, name="svc", sla=SLA):
    return state.execute(call_tx(who, nonce, "catalog", "publish", name, sla))


def select(state, who, nonce, provider, index=0):
    return state.execute(call_tx(who, nonce, "selection", "select", provider.address, index))


def test_gas_costs_are_frozen():
    s = GasSchedule()
    assert s.price("registry", "register") == GAS_REGISTER
    assert s.price("catalog", "publish") == GAS_PUBLISH
    assert s.price("selection", "select") == GAS_SELECT
    assert s.price("marker", "anchor") == GAS_MARKER


def test_register_and_reregister(state):
    r = register(state, PROVIDER, Role.PROVIDER)
    assert r.ok and r.gas_used == GAS_REGISTER
    again = register(state, PROVIDER, Role.CONSUMER, nonce=1)
    assert not again.ok and again.reason == "already registered"
    assert again.gas_used == GasSchedule().base
    assert state.roles[PROVIDER.address] == Role.PROVIDER


def test_register_unknown_role(state):
    r = state.execute(call_tx(PROVIDER, 0, "registry", "register", 9))
    assert not r.ok and "unknown role" in r.reason


def test_publish_requires_provider_role(state):
    register(state, CONSUMER, Role.CONSUMER)
    r = publish(state, CONSUMER, nonce=1)
    assert not r.ok and r.reason == "publish requires provider role"
    unregistered = publish(state, OTHER, nonce=0)
    assert not unregistered.ok


def test_sixth_publish_fails(state):
    register(state, PROVIDER, Role.PROVIDER)
    for i in range(MAX_SERVICES_PER_PROVIDER):
        r = publish(state, PROVIDER, nonce=1 + i, name=f"svc-{i}", sla=bytes([i]) * 32)
        assert r.ok
    sixth = publish(state, PROVIDER, nonce=6, name="svc-5", sla=bytes([99]) * 32)
    assert not sixth.ok and "5 services" in sixth.reason
    assert len(state.services[PROVIDER.address]) == 5


def test_duplicate_service_metadata_fails(state):
    register(state, PROVIDER, Role.PROVIDER)
    assert publish(state, PROVIDER, nonce=1, name="a").ok
    dup = publish(state, PROVIDER, nonce=2, name="b", sla=SLA)
    assert not dup.ok and dup.reason == "duplicate service metadata"


def test_select_requires_consumer_role(state):
    register(state, PROVIDER, Role.PROVIDER)
    publish(state, PROVIDER, nonce=1)
    r = select(state, PROVIDER, 2, PROVIDER)
    assert not r.ok and r.reason == "select requires consumer role"


def test_select_target_must_be_provider(state):
    register(state, CONSUMER, Role.CONSUMER)
    r = select(state, CONSUMER, 1, OTHER)
    assert not r.ok and r.reason == "selection target is not a provider"


def test_select_index_bounds(state):
    register(state, PROVIDER, Role.PROVIDER)
    register(state, CONSUMER, Role.CONSUMER)
    publish(state, PROVIDER, nonce=1)
    bad = select(state, CONSUMER, 1, PROVIDER, index=1)
    assert not bad.ok and "no service 1" in bad.reason
    good = select(state, CONSUMER, 2, PROVIDER, index=0)
    assert good.ok and good.gas_used == GAS_SELECT
    assert state.agreements[0].consumer == CONSUMER.address


def test_stored_public_records_are_immutable_named_tuples(state):
    register(state, PROVIDER, Role.PROVIDER)
    register(state, CONSUMER, Role.CONSUMER)
    assert publish(state, PROVIDER, nonce=1).ok
    assert select(state, CONSUMER, 1, PROVIDER).ok
    (service,) = state.services[PROVIDER.address]
    (selection,) = state.agreements
    assert type(service) is ServiceRecord and service == (PROVIDER.address, "svc", SLA)
    assert type(selection) is SelectionRecord and selection == (CONSUMER.address, PROVIDER.address, 0)
    for record, name in ((service, "name"), (selection, "service_index")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_nonce_gap_fails_without_consuming(state):
    r = register(state, PROVIDER, Role.PROVIDER, nonce=1)
    assert not r.ok and "expected 0" in r.reason
    assert r.gas_used == 0
    assert state.nonces.get(PROVIDER.address) is None
    assert register(state, PROVIDER, Role.PROVIDER, nonce=0).ok


def test_failed_call_still_consumes_nonce(state):
    register(state, CONSUMER, Role.CONSUMER)
    failed = publish(state, CONSUMER, nonce=1)
    assert not failed.ok
    assert state.nonces[CONSUMER.address] == 2


def test_out_of_gas_consumes_whole_limit(state):
    tx = call_tx(PROVIDER, 0, "registry", "register", 1, gas_limit=30_000)
    r = state.execute(tx)
    assert not r.ok and r.reason == "out of gas"
    assert r.gas_used == 30_000
    assert PROVIDER.address not in state.roles
    assert state.nonces[PROVIDER.address] == 1


def test_unknown_function_fails_with_base_gas(state):
    from pactsim.ledger import PublicCall

    tx = make_transaction(PROVIDER, 0, 100_000, PublicCall("registry", "destroy", b""))
    r = state.execute(tx)
    assert not r.ok and "unknown call" in r.reason
    assert r.gas_used == GasSchedule().base


def test_malformed_args_fail_closed(state):
    from pactsim.ledger import PublicCall

    tx = make_transaction(PROVIDER, 0, 100_000, PublicCall("registry", "register", b"\x01\x02"))
    r = state.execute(tx)
    assert not r.ok and "malformed args" in r.reason


def test_marker_anchor_is_not_a_public_call(state):
    # A call naming marker.anchor once ran as a selection, charged marker gas.
    register(state, PROVIDER, Role.PROVIDER)
    publish(state, PROVIDER, nonce=1)
    register(state, CONSUMER, Role.CONSUMER)
    args = public_call("selection", "select", PROVIDER.address, 0).args
    tx = make_transaction(CONSUMER, 1, 100_000, PublicCall("marker", "anchor", args))
    r = state.execute(tx)
    assert (r.ok, r.gas_used, r.reason) == (False, GasSchedule().base, "unknown call marker.anchor")
    # The marker's own arguments, well formed, are refused the same way.
    r = state.execute(call_tx(CONSUMER, 2, "marker", "anchor", b"\x07" * 32, b"\x08" * 32))
    assert (r.ok, r.gas_used, r.reason) == (False, GasSchedule().base, "unknown call marker.anchor")
    assert state.agreements == [] and state.markers == []
    assert state.nonces[CONSUMER.address] == 3


def counting_dec_args(monkeypatch) -> list:
    calls = []
    real = contracts.dec_args
    monkeypatch.setattr(contracts, "dec_args", lambda *a: calls.append(a) or real(*a))
    return calls


def test_malformed_args_fail_at_every_node(monkeypatch):
    calls = counting_dec_args(monkeypatch)
    tx = make_transaction(PROVIDER, 0, 100_000, PublicCall("registry", "register", b"\x01\x02"))
    receipts = [PublicState(GasSchedule()).execute(tx) for _ in range(3)]
    assert len(calls) == 3
    assert len(set(receipts)) == 1
    assert not receipts[0].ok and receipts[0].reason.startswith("malformed args: ")
    assert receipts[0].gas_used == GasSchedule().base


# -- one execution per block, adopted elsewhere -----------------------

NEWCOMER = cred(33)
LATE = cred(34)
MARKER_TX = PrivacyMarker(group_id=b"\x07" * 32, payload_hash=b"\x08" * 32)


def prefix_txs() -> list:
    """A provider with one service and a consumer, both registered."""
    return [
        call_tx(PROVIDER, 0, "registry", "register", int(Role.PROVIDER)),
        call_tx(PROVIDER, 1, "catalog", "publish", "svc", SLA),
        call_tx(CONSUMER, 0, "registry", "register", int(Role.CONSUMER)),
    ]


def mixed_block() -> list:
    """Every op kind and every way a transaction fails, in one block."""
    return [
        # A new sender's first transaction carries a bad nonce; another
        # new sender enters `nonces` before its nonce-0 register does.
        call_tx(LATE, 3, "registry", "register", int(Role.CONSUMER)),
        # Register and publish from one new sender: two of its txs.
        call_tx(NEWCOMER, 0, "registry", "register", int(Role.PROVIDER)),
        call_tx(NEWCOMER, 1, "catalog", "publish", "fresh", bytes([5]) * 32),
        call_tx(LATE, 0, "registry", "register", int(Role.CONSUMER)),
        call_tx(PROVIDER, 2, "catalog", "publish", "second", bytes([6]) * 32),
        call_tx(CONSUMER, 1, "selection", "select", PROVIDER.address, 1),
        make_transaction(OTHER, 0, GAS_MARKER, MARKER_TX),
        make_transaction(OTHER, 1, 100_000, PublicCall("registry", "destroy", b"")),
        call_tx(CONSUMER, 2, "selection", "select", NEWCOMER.address, 0, gas_limit=30_000),
        call_tx(PROVIDER, 3, "registry", "register", int(Role.CONSUMER)),
        make_transaction(CONSUMER, 3, 100_000, PublicCall("registry", "register", b"\x01\x02")),
        call_tx(NEWCOMER, 2, "catalog", "publish", "fresh", bytes([5]) * 32),
    ]


def all_failing_block() -> list:
    return [
        call_tx(LATE, 3, "registry", "register", int(Role.CONSUMER)),
        call_tx(PROVIDER, 9, "catalog", "publish", "gap", SLA),
        make_transaction(OTHER, 0, 100_000, PublicCall("catalog", "destroy", b"")),
        call_tx(CONSUMER, 1, "catalog", "publish", "not-a-provider", SLA),
        call_tx(PROVIDER, 2, "registry", "register", 1, gas_limit=1),
        make_transaction(CONSUMER, 2, 100_000, PublicCall("selection", "select", b"\x00")),
    ]


@pytest.mark.parametrize("block", [mixed_block, all_failing_block])
def test_adopting_a_blocks_writes_matches_executing_it(block):
    txs = block()
    executor, adopter, reference = (PublicState(GasSchedule()) for _ in range(3))
    for s in (executor, adopter, reference):
        s.run_block(prefix_txs())
    receipts, writes = executor.run_block(txs)
    adopter.adopt(writes)

    assert receipts == [reference.execute(tx) for tx in txs]
    assert adopter.encode() == executor.encode() == reference.encode()
    for name in ("nonces", "roles", "services"):
        assert list(getattr(adopter, name).items()) == list(getattr(executor, name).items()), name
    # Each state keeps its own lists.
    for provider, records in executor.services.items():
        assert adopter.services[provider] is not records


def test_the_mixed_block_covers_every_op_and_failure():
    state = PublicState(GasSchedule())
    state.run_block(prefix_txs())
    receipts, writes = state.run_block(mixed_block())
    ok = [r.ok for r in receipts]
    assert ok == [False, True, True, True, True, True, True, False, False, False, False, False]
    reasons = [r.reason for r in receipts if not r.ok]
    assert reasons[0] == "nonce 3, expected 0"
    assert reasons[1:4] == ["unknown call registry.destroy", "out of gas", "already registered"]
    assert reasons[4].startswith("malformed args: ") and reasons[5] == "duplicate service metadata"
    assert list(writes.nonces) == [NEWCOMER.address, LATE.address, PROVIDER.address, CONSUMER.address, OTHER.address]
    assert writes.roles == {NEWCOMER.address: Role.PROVIDER, LATE.address: Role.CONSUMER}
    assert [len(v) for v in writes.services.values()] == [1, 1]
    assert writes.agreements == [(CONSUMER.address, PROVIDER.address, 1)]
    assert writes.markers == [(MARKER_TX.group_id, MARKER_TX.payload_hash)]


def test_an_all_failing_block_writes_only_nonces():
    state = PublicState(GasSchedule())
    state.run_block(prefix_txs())
    receipts, writes = state.run_block(all_failing_block())
    assert not any(r.ok for r in receipts)
    # LATE's only transaction has a bad nonce, so it is no sender yet.
    assert writes == ({PROVIDER.address: 3, OTHER.address: 1, CONSUMER.address: 3}, {}, {}, [], [])


def test_marker_anchors_for_any_sender(state):
    marker = PrivacyMarker(group_id=b"\x07" * 32, payload_hash=b"\x08" * 32)
    r = state.execute(make_transaction(OTHER, 0, GAS_MARKER, marker))
    assert r.ok and r.gas_used == GAS_MARKER
    assert state.markers == [(marker.group_id, marker.payload_hash)]


def test_state_digest_tracks_content(state):
    d0 = state.state_digest()
    register(state, PROVIDER, Role.PROVIDER)
    d1 = state.state_digest()
    assert d0 != d1
    twin = PublicState(GasSchedule())
    register(twin, PROVIDER, Role.PROVIDER)
    assert twin.state_digest() == d1


def test_abi_description_lists_all_operations():
    text = abi_description()
    for needle in ("registry.register", "catalog.publish", "selection.select", "privacy marker"):
        assert needle in text
    assert f"gas={GAS_PUBLISH}" in text


def test_every_parameter_type_is_an_encoding_arg_type():
    assert {ty for op in OPS.values() for _, ty in op.params} <= ARG_TYPES.keys()


def test_abi_doc_file_matches_code():
    # docs/contract-abi.txt is generated output; regenerate it if this fails
    doc = Path(__file__).resolve().parent.parent / "docs" / "contract-abi.txt"
    assert doc.read_text() == abi_description()


# -- private operations -----------------------------------------------


def agreement() -> AgreementRecord:
    return AgreementRecord(
        consumer=CONSUMER.address,
        provider=PROVIDER.address,
        service_index=0,
        terms="availability >= 99.9%",
    )


def breach(reporter, i=0) -> BreachRecord:
    return BreachRecord(reporter=reporter.address, details=f"violation {i}", reported_at=1000 + i)


def test_private_op_round_trip():
    for op in (
        OpInit(agreement()),
        OpBreach(breach(PROVIDER)),
        OpBatch(tuple(breach(PROVIDER, i) for i in range(3))),
    ):
        assert decode_private_op(op.encode()) == op


ADDRESSES = st.binary(min_size=ADDRESS_LEN, max_size=ADDRESS_LEN)
U64S = st.integers(0, 2**64 - 1)
RECORDS = st.builds(BreachRecord, ADDRESSES, st.text(max_size=20), U64S)
PRIVATE_OPS = st.one_of(
    st.builds(OpInit, st.builds(AgreementRecord, ADDRESSES, ADDRESSES, U64S, st.text(max_size=20))),
    st.builds(OpBreach, RECORDS),
    st.builds(OpBatch, st.lists(RECORDS, max_size=4).map(tuple)),
)


@given(PRIVATE_OPS)
@example(OpBreach(BreachRecord(b"\x01" * ADDRESS_LEN, "", 0)))
@example(OpBatch(()))
@example(OpBatch((BreachRecord(b"\x02" * ADDRESS_LEN, "Verf\u00fcgbarkeit < 99,9 % \u2014 \u2713", 2**64 - 1),)))
@example(OpInit(AgreementRecord(b"\x03" * ADDRESS_LEN, b"\x04" * ADDRESS_LEN, 7, "\u53ef\u7528\u6027 \U0001f4c8")))
def test_private_op_round_trip_property(op):
    # A named tuple equals a plain tuple, so equality alone would pass a
    # decoder that returned tuples: the types are checked too.
    parsed = decode_private_op(op.encode())
    assert parsed == op
    if isinstance(parsed, OpInit):
        assert type(parsed.agreement) is AgreementRecord
        assert [type(v) for v in vars(parsed.agreement).values()] == [bytes, bytes, int, str]
        records = ()
    else:
        records = parsed.records if isinstance(parsed, OpBatch) else (parsed.record,)
    for record in records:
        assert type(record) is BreachRecord
        assert [type(v) for v in record] == [bytes, str, int]
        with pytest.raises(AttributeError):
            record.details = "rewritten"


# Records drawn from a few reporters and stamps, so that runs sharing
# both are common, mixed with arbitrary ones.
SHARED_REPORTERS = (b"\x05" * ADDRESS_LEN, b"\x06" * ADDRESS_LEN)
RUN_RECORDS = st.lists(
    st.builds(
        BreachRecord,
        st.sampled_from(SHARED_REPORTERS) | ADDRESSES,
        st.text(max_size=6),
        st.sampled_from((0, 40, 2**64 - 1)) | U64S,
    ),
    max_size=8,
)


def breach_grammar(record: BreachRecord) -> bytes:
    """docs/encoding.md's `breach`, field by field."""
    text = record.details.encode("utf-8")
    assert len(record.reporter) == ADDRESS_LEN
    return record.reporter + len(text).to_bytes(4, "big") + text + record.reported_at.to_bytes(8, "big")


A, B = SHARED_REPORTERS


@given(RUN_RECORDS)
@example([])
@example(
    [
        BreachRecord(A, "late", 40),
        BreachRecord(A, "Verf\u00fcgbarkeit \u2713", 40),
        BreachRecord(B, "", 40),
        BreachRecord(B, "\U0001f4c8", 41),
        BreachRecord(A, "again", 40),
        BreachRecord(A, "again", 40),
    ]
)
def test_breach_encoder_writes_the_grammar(records):
    assert enc_breaches(records) == b"".join(map(breach_grammar, records))
    op = OpBatch(tuple(records))
    assert decode_private_op(op.encode()) == op


BAD_FIELDS = [
    ("reporter", b"\x05" * (ADDRESS_LEN - 1), "expected 20 bytes, got 19"),
    ("reporter", b"\x05" * (ADDRESS_LEN + 1), "expected 20 bytes, got 21"),
    ("reported_at", -1, "u64 out of range: -1"),
    ("reported_at", 2**64, f"u64 out of range: {2**64}"),
]


@given(RUN_RECORDS.filter(bool), st.data())
def test_breach_encoder_refuses_one_bad_field(records, data):
    i = data.draw(st.integers(0, len(records) - 1))
    name, value, message = data.draw(st.sampled_from(BAD_FIELDS))
    records[i] = records[i]._replace(**{name: value})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enc_breaches(records)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        OpBatch(tuple(records)).encode()


@given(PRIVATE_OPS)
def test_every_proper_prefix_of_a_private_op_fails(op):
    data = op.encode()
    for cut in range(len(data)):
        with pytest.raises(DecodeError, match="truncated input"):
            decode_private_op(data[:cut])


@given(st.lists(RECORDS, min_size=3, max_size=3), st.binary(max_size=8))
def test_invalid_utf8_in_the_last_batch_record_fails(records, tail):
    last = records[-1]
    planted = last.reporter + enc_bytes(b"\xff" + tail) + enc_u64(last.reported_at)
    data = bytes([contracts.OP_BATCH]) + enc_u32(3) + enc_breaches(records[:2]) + planted
    with pytest.raises(DecodeError, match="invalid utf-8 string field"):
        decode_private_op(data)


def test_private_op_rejects_trailing_bytes():
    with pytest.raises(DecodeError, match="1 trailing bytes"):
        decode_private_op(OpInit(agreement()).encode() + b"\x00")


def test_private_op_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown private op 9"):
        decode_private_op(b"\x09")


# One op of each kind, batches of 0, 1 and 3 records, multi-byte UTF-8
# text and the largest stamp.
READER_CASES = {
    "init": OpInit(AgreementRecord(b"\x03" * ADDRESS_LEN, b"\x04" * ADDRESS_LEN, 7, "\u53ef\u7528\u6027 \U0001f4c8")),
    "breach": OpBreach(BreachRecord(b"\x01" * ADDRESS_LEN, "Verf\u00fcgbarkeit \u2713", 2**64 - 1)),
    "batch of 0": OpBatch(()),
    "batch of 1": OpBatch((BreachRecord(b"\x02" * ADDRESS_LEN, "late", 40),)),
    "batch of 3": OpBatch(
        (
            BreachRecord(b"\x02" * ADDRESS_LEN, "\u2014", 2**64 - 1),
            BreachRecord(b"\x02" * ADDRESS_LEN, "", 2**64 - 1),
            BreachRecord(b"\x05" * ADDRESS_LEN, "\U0001f4c8 down", 0),
        )
    ),
}


def reader_outcome(data: bytes) -> str:
    """Decode `data`: an op that encodes back to `data`, or a refusal of the two documented classes."""
    try:
        op = decode_private_op(data)
    except Exception as exc:
        # `UnicodeDecodeError` is a `ValueError` too, so the class must match exactly.
        assert type(exc) in (DecodeError, ValueError), repr(exc)
        assert type(exc) is DecodeError or str(exc) == f"unknown private op {data[0]}"
        return type(exc).__name__
    assert op.encode() == data
    return "decoded"


@pytest.mark.parametrize("case", READER_CASES)
def test_every_prefix_and_single_byte_change_decodes_exactly_or_is_refused(case):
    data = READER_CASES[case].encode()
    assert reader_outcome(data) == "decoded"
    for cut in range(len(data)):
        assert reader_outcome(data[:cut]) == "DecodeError"
    for i in range(len(data)):
        for value in range(256):
            if value != data[i]:
                reader_outcome(data[:i] + bytes([value]) + data[i + 1 :])


def test_a_batch_count_with_no_records_behind_it_fails_without_allocating():
    header = bytes([contracts.OP_BATCH]) + enc_u32(2**32 - 1)
    record = enc_breaches((BreachRecord(b"\x02" * ADDRESS_LEN, "late", 40),))
    tracemalloc.start()
    try:
        for data in (header, header + record):
            with pytest.raises(DecodeError, match="truncated input"):
                decode_private_op(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("workload", [{}, {"batches_per_group": 2}], ids=["smoke", "smoke-batches"])
def test_two_runs_in_one_process_write_identical_bytes(workload, tmp_path):
    config = config_from_dict({"preset": "smoke", "workload": workload})
    run_scenario(config, 7, tmp_path / "first")
    run_scenario(config, 7, tmp_path / "second")
    for name in ("latency.csv", "summary.json"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


def fresh_ledger():
    from pactsim.contracts import BreachLedger

    return BreachLedger(
        group_id=b"\x01" * 32,
        members=frozenset((CONSUMER.address, PROVIDER.address)),
    )


def test_ledger_lifecycle_and_digest():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    ledger.apply(PROVIDER.address, OpBreach(breach(PROVIDER)), b"\x00" * 32)
    batch = OpBatch(tuple(breach(PROVIDER, i) for i in range(10)))
    ledger.apply(PROVIDER.address, batch, digest(b"batch"))
    assert len(ledger.records) == 11
    assert ledger.batches == [BatchSummary(summary_hash=digest(b"batch"), count=10)]
    twin = fresh_ledger()
    twin.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    twin.apply(PROVIDER.address, OpBreach(breach(PROVIDER)), b"\x00" * 32)
    twin.apply(PROVIDER.address, batch, digest(b"batch"))
    assert twin.state_digest() == ledger.state_digest()


def test_breach_by_non_member_fails():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    with pytest.raises(Exception) as e:
        ledger.apply(OTHER.address, OpBreach(breach(OTHER)), b"\x00" * 32)
    assert "not a group member" in str(e.value)
    assert ledger.records == []


def test_membership_is_checked_before_anything_else():
    ledger = fresh_ledger()
    # Uninitialized ledger: an outsider must still see the membership
    # error, not the initialization error.
    with pytest.raises(Exception) as e:
        ledger.apply(OTHER.address, OpBreach(breach(OTHER)), b"\x00" * 32)
    assert "not a group member" in str(e.value)


def test_breach_reporter_must_be_sender():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    with pytest.raises(Exception) as e:
        ledger.apply(CONSUMER.address, OpBreach(breach(PROVIDER)), b"\x00" * 32)
    assert "reporter must be the sender" in str(e.value)


def test_batch_reporters_must_all_be_the_sender():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    before = ledger.state_digest()
    # One forged record among honest ones refuses the whole batch.
    batch = OpBatch((breach(CONSUMER, 0), breach(PROVIDER, 1), breach(CONSUMER, 2)))
    with pytest.raises(Exception) as e:
        ledger.apply(CONSUMER.address, batch, digest(b"batch"))
    assert "reporter must be the sender" in str(e.value)
    assert ledger.records == [] and ledger.batches == []
    assert ledger.state_digest() == before


def test_breach_before_init_fails():
    ledger = fresh_ledger()
    with pytest.raises(Exception) as e:
        ledger.apply(PROVIDER.address, OpBreach(breach(PROVIDER)), b"\x00" * 32)
    assert "not initialized" in str(e.value)


def test_double_init_fails():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    with pytest.raises(Exception) as e:
        ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    assert "already initialized" in str(e.value)


def test_halted_ledger_rejects_members():
    ledger = fresh_ledger()
    ledger.apply(CONSUMER.address, OpInit(agreement()), b"\x00" * 32)
    ledger.halted = True
    with pytest.raises(Exception) as e:
        ledger.apply(PROVIDER.address, OpBreach(breach(PROVIDER)), b"\x00" * 32)
    assert "halted" in str(e.value)
