"""Contract rules: public registry flow and the private breach ledger.

Public side: domains register a role, providers publish services (at
most five each, metadata digests unique per provider), consumers select
a published service, and privacy markers anchor off-chain payloads.
Gas is metered against a fixed schedule with price zero, so gas caps
block capacity without moving balances.  `OPS` declares each metered
operation once: its parameters, and the state I/O its gas is priced by.

A block is executed once per run (`PublicState.run_block`, from
`node.Cluster.execute_block`): the first node to append it runs its
transactions, and every other node applies the block's writes to its
own state (`PublicState.adopt`).  Each `PublicState` looks a call's
handler and gas up in a table built when it is created.  A privacy
marker is not a public call: a call naming `marker.anchor` is unknown
like any other.

Private side: each privacy group runs a breach ledger whose operations
(initialize, record a breach, commit a batch) travel encrypted and are
replayed by every group member; every operation checks membership
before touching state.  Records are named tuples, hence immutable, and
one encoder writes them (`enc_breaches`): a run of records that share a
reporter and a stamp, as a batch's do, has that reporter and stamp
checked and encoded once, with the bytes each record would give alone.
A run keeps each op a sender encoded, with its group and bytes, under
the hash of the payload that carries them (`node.Cluster.sent_ops`),
its one record of the private ops it sent: a member whose opened
payload matches those bytes byte for byte takes the sender's op, and a
member holding any other bytes parses them through `encoding.Cursor`
(`decode_private_op`).  Sharing the op is sound: it is frozen, its
records are named tuples and `decode_private_op(op.encode()) == op`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, NamedTuple, Sequence

from .encoding import (
    ADDRESS_LEN,
    HASH_LEN,
    TAG_STATE,
    Cursor,
    digest,
    enc_bytes,
    enc_fixed,
    enc_list,
    enc_str,
    enc_u8,
    enc_u32,
    enc_u64,
    dec_args,
    enc_args,
)
from .ledger import PrivacyMarker, PublicCall, Transaction

MAX_SERVICES_PER_PROVIDER = 5


class Role(enum.IntEnum):
    PROVIDER = 1
    CONSUMER = 2


@dataclass(frozen=True)
class GasSchedule:
    base: int = 21_000
    per_write: int = 20_000
    per_read: int = 2_100

    def price(self, contract: str, function: str) -> int:
        """The gas a metered operation costs: the one pricing rule."""
        op = OPS[(contract, function)]
        return self.base + op.writes * self.per_write + op.reads * self.per_read


class OpSpec(NamedTuple):
    params: tuple[tuple[str, str], ...]
    writes: int
    reads: int


MARKER = ("marker", "anchor")

# Every metered operation: its parameters as (name, ABI type), and the
# state writes and reads it is charged for.  The privacy marker is priced
# here but is not a public call: `PublicState` has no handler for it.
OPS = {
    ("registry", "register"): OpSpec((("role", "u8"),), 1, 0),
    ("catalog", "publish"): OpSpec((("name", "str"), ("sla_hash", "hash")), 2, 0),
    ("selection", "select"): OpSpec((("provider", "address"), ("service_index", "u64")), 1, 2),
    MARKER: OpSpec((("group_id", "hash"), ("payload_hash", "hash")), 1, 0),
}


def abi_arg_schema(contract: str, function: str) -> tuple[str, ...]:
    return tuple(t for _, t in OPS[(contract, function)].params)


def public_call(contract: str, function: str, *values) -> PublicCall:
    """A public call with its arguments encoded by the operation's schema."""
    return PublicCall(contract, function, enc_args(abi_arg_schema(contract, function), values))


def decode_call_args(contract: str, function: str, args: bytes) -> tuple:
    """Decode a public call's arguments by the operation's schema."""
    return dec_args(abi_arg_schema(contract, function), args)


def abi_description(schedule: GasSchedule | None = None) -> str:
    """Stable text rendering of the public call surface, the marker last."""
    schedule = schedule or GasSchedule()
    lines = ["public contract interface", ""]
    for key in sorted(OPS, key=lambda k: (k == MARKER, k)):
        op = OPS[key]
        params = ", ".join(f"{n}: {t}" for n, t in op.params)
        name = "privacy marker " if key == MARKER else ".".join(key)
        lines.append(f"{name}({params})  [writes={op.writes} reads={op.reads} gas={schedule.price(*key)}]")
    return "\n".join(lines) + "\n"


class ExecError(Exception):
    """Rule violation; the transaction fails but still consumes gas."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Receipt(NamedTuple):
    tx_id: bytes
    ok: bool
    gas_used: int
    reason: str | None = None


class ServiceRecord(NamedTuple):
    provider: bytes
    name: str
    sla_hash: bytes

    def encode(self) -> bytes:
        return enc_fixed(self.provider, ADDRESS_LEN) + enc_str(self.name) + enc_fixed(self.sla_hash, HASH_LEN)


class SelectionRecord(NamedTuple):
    """Public fact that a consumer selected a provider's service."""

    consumer: bytes
    provider: bytes
    service_index: int

    def encode(self) -> bytes:
        return (
            enc_fixed(self.consumer, ADDRESS_LEN)
            + enc_fixed(self.provider, ADDRESS_LEN)
            + enc_u64(self.service_index)
        )


@dataclass(frozen=True)
class AgreementRecord:
    """The agreement as the two parties privately record it.

    The terms text is the part that never touches the public chain;
    publicly only the fact of selection is visible.
    """

    consumer: bytes
    provider: bytes
    service_index: int
    terms: str

    def encode(self) -> bytes:
        return (
            enc_fixed(self.consumer, ADDRESS_LEN)
            + enc_fixed(self.provider, ADDRESS_LEN)
            + enc_u64(self.service_index)
            + enc_str(self.terms)
        )


class BlockWrites(NamedTuple):
    """What one block changed in the world state (`PublicState.run_block`).

    Each sender's final nonce, the roles registered, each provider's
    appended services, and the agreements and markers added.  Keys come
    in the order the executing state first wrote them.
    """

    nonces: dict[bytes, int]
    roles: dict[bytes, Role]
    services: dict[bytes, list[ServiceRecord]]
    agreements: list[SelectionRecord]
    markers: list[tuple[bytes, bytes]]


class PublicState:
    """World state replicated at every node: one executes each block, the rest adopt its writes."""

    def __init__(self, schedule: GasSchedule):
        self.schedule = schedule
        self.roles: dict[bytes, Role] = {}
        self.services: dict[bytes, list[ServiceRecord]] = {}
        self.agreements: list[SelectionRecord] = []
        self.markers: list[tuple[bytes, bytes]] = []
        self.nonces: dict[bytes, int] = {}
        # (contract, function) -> (handler, gas) for each public call; the
        # handler of `contract.function` is the method `_op_<function>`.
        self._calls = {op: (getattr(PublicState, f"_op_{op[1]}"), schedule.price(*op)) for op in OPS if op != MARKER}
        self._marker = (PublicState._op_marker, schedule.price(*MARKER))

    # -- operations ---------------------------------------------------

    def _op_register(self, sender: bytes, call: PublicCall) -> None:
        (role_val,) = decode_call_args("registry", "register", call.args)
        if sender in self.roles:
            raise ExecError("already registered")
        try:
            role = Role(role_val)
        except ValueError:
            raise ExecError(f"unknown role {role_val}") from None
        self.roles[sender] = role

    def _op_publish(self, sender: bytes, call: PublicCall) -> None:
        if self.roles.get(sender) != Role.PROVIDER:
            raise ExecError("publish requires provider role")
        name, sla_hash = decode_call_args("catalog", "publish", call.args)
        existing = self.services.setdefault(sender, [])
        if len(existing) >= MAX_SERVICES_PER_PROVIDER:
            raise ExecError(f"provider already has {MAX_SERVICES_PER_PROVIDER} services")
        if any(s.sla_hash == sla_hash for s in existing):
            raise ExecError("duplicate service metadata")
        existing.append(ServiceRecord(sender, name, sla_hash))

    def _op_select(self, sender: bytes, call: PublicCall) -> None:
        if self.roles.get(sender) != Role.CONSUMER:
            raise ExecError("select requires consumer role")
        provider, index = decode_call_args("selection", "select", call.args)
        if self.roles.get(provider) != Role.PROVIDER:
            raise ExecError("selection target is not a provider")
        services = self.services.get(provider, [])
        if index >= len(services):
            raise ExecError(f"provider has no service {index}")
        self.agreements.append(SelectionRecord(sender, provider, index))

    def _op_marker(self, sender: bytes, marker: PrivacyMarker) -> None:
        self.markers.append((marker.group_id, marker.payload_hash))

    # -- execution ----------------------------------------------------

    def execute(self, tx: Transaction) -> Receipt:
        expected = self.nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            return Receipt(tx.tx_id, False, 0, f"nonce {tx.nonce}, expected {expected}")
        # A sequenced transaction consumes its nonce whether or not the
        # call succeeds.
        self.nonces[tx.sender] = expected + 1

        payload = tx.payload
        if isinstance(payload, PrivacyMarker):
            handler, cost = self._marker
        else:
            call = self._calls.get((payload.contract, payload.function))
            if call is None:
                reason = f"unknown call {payload.contract}.{payload.function}"
                return Receipt(tx.tx_id, False, min(self.schedule.base, tx.gas_limit), reason)
            handler, cost = call
        if tx.gas_limit < cost:
            return Receipt(tx.tx_id, False, tx.gas_limit, "out of gas")

        try:
            handler(self, tx.sender, payload)
        except ExecError as err:
            return Receipt(tx.tx_id, False, self.schedule.base, err.reason)
        except ValueError as err:
            return Receipt(tx.tx_id, False, self.schedule.base, f"malformed args: {err}")
        return Receipt(tx.tx_id, True, cost)

    def run_block(self, txs: Sequence[Transaction]) -> tuple[list[Receipt], BlockWrites]:
        """Execute `txs` in order; return their receipts and the block's writes.

        The writes are gathered in block order, never from a set, so a
        state that adopts them gains dict keys in this state's order.
        """
        execute, nonces, roles, services = self.execute, self.nonces, self.roles, self.services
        agreements, markers = len(self.agreements), len(self.markers)
        receipts = []
        final_nonces: dict[bytes, int] = {}
        new_roles: dict[bytes, Role] = {}
        published: dict[bytes, int] = {}
        for tx in txs:
            receipt = execute(tx)
            receipts.append(receipt)
            sender = tx.sender
            # A new sender enters `nonces` at its first sequenced
            # transaction, so this records it at the same point.
            if sender in nonces:
                final_nonces[sender] = nonces[sender]
            if receipt.ok and not isinstance(tx.payload, PrivacyMarker):
                function = tx.payload.function
                if function == "register":
                    new_roles[sender] = roles[sender]
                elif function == "publish":
                    published[sender] = published.get(sender, 0) + 1
        appended = {provider: services[provider][-count:] for provider, count in published.items()}
        writes = BlockWrites(final_nonces, new_roles, appended, self.agreements[agreements:], self.markers[markers:])
        return receipts, writes

    def adopt(self, writes: BlockWrites) -> None:
        """Apply a block's writes, from `run_block` at a state equal to this one."""
        self.nonces.update(writes.nonces)
        self.roles.update(writes.roles)
        for provider, records in writes.services.items():
            self.services.setdefault(provider, []).extend(records)
        self.agreements.extend(writes.agreements)
        self.markers.extend(writes.markers)

    # -- snapshots ----------------------------------------------------

    def encode(self) -> bytes:
        roles = enc_list(
            enc_fixed(a, ADDRESS_LEN) + enc_u8(int(r)) for a, r in sorted(self.roles.items())
        )
        services = enc_list(
            enc_fixed(p, ADDRESS_LEN) + enc_list(s.encode() for s in recs)
            for p, recs in sorted(self.services.items())
        )
        agreements = enc_list(a.encode() for a in self.agreements)
        markers = enc_list(
            enc_fixed(g, HASH_LEN) + enc_fixed(h, HASH_LEN) for g, h in self.markers
        )
        nonces = enc_list(
            enc_fixed(a, ADDRESS_LEN) + enc_u64(n) for a, n in sorted(self.nonces.items())
        )
        return TAG_STATE + roles + services + agreements + markers + nonces

    def state_digest(self) -> bytes:
        return digest(self.encode())


# -- private breach ledger --------------------------------------------

OP_INIT = 0
OP_BREACH = 1
OP_BATCH = 2


class BreachRecord(NamedTuple):
    reporter: bytes
    details: str
    reported_at: int


def enc_breaches(records: Iterable[BreachRecord]) -> bytes:
    """Breach records back to back, each as docs/encoding.md's `breach`.

    A run of consecutive records that share a reporter and a stamp
    checks and encodes them once and repeats their bytes; each record
    still gets its own u32-prefixed UTF-8 details.
    """
    parts: list[bytes] = []
    reporter = reported_at = None
    for who, details, at in records:
        if at != reported_at or who != reporter:
            reporter, reported_at = who, at
            head = enc_fixed(who, ADDRESS_LEN)
            stamp = enc_u64(at)
        text = details.encode("utf-8")
        parts += (head, enc_u32(len(text)), text, stamp)
    return b"".join(parts)


# `KIND`: the latency sample kind an operation is measured as (`metrics`).
@dataclass(frozen=True)
class OpInit:
    KIND: ClassVar[str] = "deploy_private"
    agreement: AgreementRecord

    def encode(self) -> bytes:
        return enc_u8(OP_INIT) + self.agreement.encode()


@dataclass(frozen=True)
class OpBreach:
    KIND: ClassVar[str] = "register_breach"
    record: BreachRecord

    def encode(self) -> bytes:
        return enc_u8(OP_BREACH) + enc_breaches((self.record,))


@dataclass(frozen=True)
class OpBatch:
    KIND: ClassVar[str] = "breach_batch"
    records: tuple[BreachRecord, ...]

    def encode(self) -> bytes:
        return enc_u8(OP_BATCH) + enc_u32(len(self.records)) + enc_breaches(self.records)


PrivateOp = OpInit | OpBreach | OpBatch


def _breach(cur: Cursor) -> BreachRecord:
    return BreachRecord(cur.fixed(ADDRESS_LEN), cur.str_(), cur.u64())


def decode_private_op(data: bytes) -> PrivateOp:
    """Parse a private operation's bytes through `Cursor`, as every decoder does.

    Truncated input, trailing bytes and bad UTF-8 raise `DecodeError`; an unknown kind `ValueError`.
    """
    cur = Cursor(data)
    kind = cur.u8()
    if kind == OP_INIT:
        op: PrivateOp = OpInit(AgreementRecord(cur.fixed(ADDRESS_LEN), cur.fixed(ADDRESS_LEN), cur.u64(), cur.str_()))
    elif kind == OP_BREACH:
        op = OpBreach(_breach(cur))
    elif kind == OP_BATCH:
        op = OpBatch(tuple([_breach(cur) for _ in range(cur.u32())]))
    else:
        raise ValueError(f"unknown private op {kind}")
    cur.finish()
    return op


@dataclass(frozen=True)
class BatchSummary:
    summary_hash: bytes
    count: int

    def encode(self) -> bytes:
        return enc_fixed(self.summary_hash, HASH_LEN) + enc_u32(self.count)


@dataclass
class BreachLedger:
    """Per-group private state, replicated only at group members."""

    group_id: bytes
    members: frozenset[bytes]
    agreement: AgreementRecord | None = None
    records: list[BreachRecord] = field(default_factory=list)
    batches: list[BatchSummary] = field(default_factory=list)
    halted: bool = False

    def check_member(self, sender: bytes) -> None:
        # Membership gates every operation before any state is read.
        if sender not in self.members:
            raise ExecError("sender is not a group member")

    def apply(self, sender: bytes, op: PrivateOp, payload_hash: bytes) -> None:
        self.check_member(sender)
        if self.halted:
            raise ExecError("group is halted")
        if isinstance(op, OpInit):
            if self.agreement is not None:
                raise ExecError("ledger already initialized")
            self.agreement = op.agreement
        elif self.agreement is None:
            raise ExecError("ledger not initialized")
        else:
            records = (op.record,) if isinstance(op, OpBreach) else op.records
            # Every record is checked before any is stored.
            for r in records:
                if r.reporter != sender:
                    raise ExecError("breach reporter must be the sender")
            self.records.extend(records)
            if isinstance(op, OpBatch):
                self.batches.append(BatchSummary(summary_hash=payload_hash, count=len(records)))

    def encode(self) -> bytes:
        agreement = self.agreement.encode() if self.agreement is not None else b""
        return (
            TAG_STATE
            + enc_fixed(self.group_id, HASH_LEN)
            + enc_list(enc_fixed(m, ADDRESS_LEN) for m in sorted(self.members))
            + enc_bytes(agreement)
            + enc_u32(len(self.records))
            + enc_breaches(self.records)
            + enc_list(b.encode() for b in self.batches)
            + enc_u8(1 if self.halted else 0)
        )

    def state_digest(self) -> bytes:
        return digest(self.encode())
