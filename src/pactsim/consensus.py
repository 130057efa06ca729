"""Validator agreement on blocks.

Four-phase rounds (proposal, prepare, commit, finalize) with rotating
proposers, a quorum of 2f+1 out of n = 3f+1 validators, and round
changes on timeout with exponentially growing timeouts.  A proposal is
implicitly its proposer's prepare vote.  Once a validator has prepared
a block it carries that block in its round-change messages, and a new
proposer holding such a certificate must re-propose the same block, so
a block that may have been committed anywhere can never be displaced.
A re-proposed block keeps its original `proposer` (the field is part of
the block hash), so peers accept a proposal whose block names someone
other than the sender only when the round-change certificate binds that
block.

A validator that assembles a commit quorum appends the sealed block
itself without checking it again (`append_block` with `checked`): it
ran `ChainStore.check_extends` on the block as a proposal, against the
same head since any append ends the height, and `_authentic` on each
seal's `Commit`.  It pushes the block to non-validator nodes
only.  A validator that falls behind pulls what it lacks: a correctly
signed message for a height above its own, or a commit quorum for a
block it never saw proposed, makes it ask that message's sender for
the blocks above its head (`NodeRuntime.request_sync`).  Such
messages are kept for the height they name, at most
`FUTURE_BUFFER_FACTOR` per sender per height and `FUTURE_HEIGHTS`
heights ahead.  Conflicting finalizations are caught where validators
report them (`MetricsCollector`) and where a node appends a block.

Every message a validator takes in goes down one function.  The
network delivers to `IbftValidator.on_message`; the validator's own
broadcasts and its buffered replays call the same function as
`_process`, with `verified` set, so a probe that wraps `on_message`
(perfbench's `consensus.handle`) counts network deliveries only, and an
`echo` validator's own messages take the honest path.  Quorum checks
run only at the crossing: a prepare or commit is recorded inline, then
checked only at `quorum` votes (a prepare also only in the current
round and before that round's commit is sent).

Senders, prepared-certificate signers and seals are checked against
the genesis `ValidatorSet` alone (`ValidatorSet.signed`).

A message carries the bytes its sender signed as a cached attribute
(`signed`; a commit's `sealed` holds its seal preimage).  Every
recipient of a broadcast gets the same object, so the bytes are built,
and the signatures checked (`_authentic`), once per message, not once
per recipient; a `replace` copy builds and checks its own.  Likewise a
commit builds its `(sender, seal)` entry (`seal_entry`) when it is
created, and every validator that counts it seals its copy of the block
with that one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable

from .encoding import (
    HASH_LEN,
    TAG_MSG,
    enc_bytes,
    enc_fixed,
    enc_u32,
    enc_u64,
    enc_u8,
)
# `verify` is unused here but stays importable from this module;
# perfbench's tracer test reads `consensus.verify`.
from .identity import Credential, ValidatorSet, fault_tolerance, verify
from .ledger import Block, LedgerError, block_wire, seal_preimage
from .simulation import Targets

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .node import NodeRuntime

MSG_PREPREPARE = 1
MSG_PREPARE = 2
MSG_COMMIT = 3
MSG_ROUND_CHANGE = 4

# Messages buffered per sender per future height, and how many heights
# ahead of its own a validator buffers at all.
FUTURE_BUFFER_FACTOR = 4
FUTURE_HEIGHTS = 4


def _vote_preimage(msg_type: int, height: int, round_: int, digest: bytes) -> bytes:
    return TAG_MSG + enc_u8(msg_type) + enc_u64(height) + enc_u32(round_) + enc_fixed(digest, HASH_LEN)


@dataclass(frozen=True)
class PrePrepare:
    height: int
    round: int
    block: Block
    rc_cert: tuple["RoundChange", ...]
    sender: bytes
    signature: bytes

    @staticmethod
    def preimage(height: int, round_: int, digest: bytes) -> bytes:
        return _vote_preimage(MSG_PREPREPARE, height, round_, digest)

    @cached_property
    def signed(self) -> bytes:
        return PrePrepare.preimage(self.height, self.round, self.block.hash)


@dataclass(frozen=True)
class Prepare:
    height: int
    round: int
    digest: bytes
    sender: bytes
    signature: bytes

    @staticmethod
    def preimage(height: int, round_: int, digest: bytes) -> bytes:
        return _vote_preimage(MSG_PREPARE, height, round_, digest)

    @cached_property
    def signed(self) -> bytes:
        return Prepare.preimage(self.height, self.round, self.digest)


@dataclass(frozen=True)
class Commit:
    height: int
    round: int
    digest: bytes
    seal: bytes
    sender: bytes
    signature: bytes
    # `(sender, seal)`, the entry a sealed block holds for this commit.
    seal_entry: tuple[bytes, bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seal_entry", (self.sender, self.seal))

    @staticmethod
    def preimage(height: int, round_: int, digest: bytes, seal: bytes) -> bytes:
        return _vote_preimage(MSG_COMMIT, height, round_, digest) + enc_bytes(seal)

    @cached_property
    def signed(self) -> bytes:
        return Commit.preimage(self.height, self.round, self.digest, self.seal)

    @cached_property
    def sealed(self) -> bytes:
        """The bytes `seal` signs: the block hash this commit votes for."""
        return seal_preimage(self.digest)


@dataclass(frozen=True)
class PreparedCert:
    """Proof that a block gathered a prepare quorum in some round.

    The proposer's proposal signature stands in for its prepare, so the
    quorum is that signature plus the explicit prepare messages of the
    other validators.  A `Prepare` the proposer sent for its own block
    is left out: `verify` counts the proposer once, through its
    proposal, and refuses a certificate that names it twice.
    """

    block: Block
    round: int
    proposer_sig: bytes
    prepares: tuple[Prepare, ...]

    def verify(self, height: int, validators: ValidatorSet) -> bool:
        digest = self.block.hash
        proposer = validators.proposer_for(height, self.round)
        if not validators.signed(proposer, PrePrepare.preimage(height, self.round, digest), self.proposer_sig):
            return False
        senders = {proposer}
        for p in self.prepares:
            if p.height != height or p.round != self.round or p.digest != digest:
                return False
            if p.sender in senders or not _authentic(p, validators):
                return False
            senders.add(p.sender)
        return len(senders) >= validators.quorum


@dataclass(frozen=True)
class RoundChange:
    height: int
    target_round: int
    prepared: PreparedCert | None
    sender: bytes
    signature: bytes

    @staticmethod
    def preimage(height: int, target_round: int, prepared: PreparedCert | None) -> bytes:
        base = TAG_MSG + enc_u8(MSG_ROUND_CHANGE) + enc_u64(height) + enc_u32(target_round)
        if prepared is None:
            return base + enc_u8(0)
        return (
            base
            + enc_u8(1)
            + enc_u32(prepared.round)
            + enc_fixed(prepared.block.hash, HASH_LEN)
        )

    @cached_property
    def signed(self) -> bytes:
        return RoundChange.preimage(self.height, self.target_round, self.prepared)


Message = PrePrepare | Prepare | Commit | RoundChange


def _authentic(msg: Message, validators: ValidatorSet) -> bool:
    """Whether a member of `validators` signed `msg` (and, for a commit, sealed its digest).

    Derived once per message object and set, and kept on the message.
    """
    checked = msg.__dict__.get("_authentic")
    if checked is None or checked[0] is not validators:
        ok = validators.signed(msg.sender, msg.signed, msg.signature) and (
            not isinstance(msg, Commit) or validators.signed(msg.sender, msg.sealed, msg.seal)
        )
        checked = msg.__dict__["_authentic"] = (validators, ok)
    return checked[1]


def message_wire(msg: Message) -> bytes:
    """Serialized form of a consensus message as it crosses the network."""
    wire = msg.signed + enc_bytes(msg.signature)
    if isinstance(msg, PrePrepare):
        return wire + block_wire(msg.block) + b"".join(message_wire(rc) for rc in msg.rc_cert)
    if isinstance(msg, RoundChange) and msg.prepared is not None:
        cert = msg.prepared
        wire += block_wire(cert.block) + enc_bytes(cert.proposer_sig)
        wire += b"".join(message_wire(p) for p in cert.prepares)
    return wire


# What a Byzantine validator does instead of following the protocol:
# `equivocate` as proposer shows half its peers a twin block, `echo`
# votes for every digest it sees without validating, and `withhold`
# receives everything but sends nothing.
STRATEGY_NAMES = ("equivocate", "echo", "withhold")


@dataclass
class _HeightState:
    height: int
    round: int = 0
    proposals: dict[int, PrePrepare] = field(default_factory=dict)
    prepares: dict[tuple[int, bytes], dict[bytes, Prepare | None]] = field(default_factory=dict)
    commits: dict[tuple[int, bytes], dict[bytes, Commit]] = field(default_factory=dict)
    round_changes: dict[int, dict[bytes, RoundChange]] = field(default_factory=dict)
    prepared: PreparedCert | None = None
    proposed_rounds: set[int] = field(default_factory=set)


class IbftValidator:
    """One validator's consensus engine, driven by network events.

    Built from its node, which supplies the name, the simulator, the
    network, the chain store and the genesis validator set
    (`node.store.validators`), and from the run's config, which supplies
    the block interval, the base round timeout, the block gas limit and
    the peer order (`config.validator_names` without this node).  The
    node calls `start` after each block it appends.  A crash is recorded
    only in `Network.crashed`: the kernel drops every message to a
    crashed node, and every timer of this validator is `_guarded`.
    """

    def __init__(self, node: "NodeRuntime", credential: Credential, config: "ScenarioConfig", strategy: str | None):
        self.node = node
        self.credential = credential
        self.address = credential.address
        self.config = config
        self.strategy = strategy
        self.name = node.name
        self.sim = node.sim
        self.network = node.network
        self.store = node.store
        self.validators = node.store.validators
        self.future: dict[int, list[Message]] = {}
        self.state = _HeightState(height=0)
        self.dropped_invalid = 0
        self.echoed: set[tuple[int, int, bytes]] = set()

    @cached_property
    def _targets(self) -> Targets:
        """`(peer, on_message)` per other validator in config order, resolved on the first send."""
        nodes = self.node.cluster.nodes
        peers = (peer for peer in self.config.validator_names if peer != self.name)
        return tuple((peer, nodes[peer].validator.on_message) for peer in peers)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Enter the height above the store's head."""
        h = self.store.height + 1
        if self.state.height == h:
            return
        parent = self.store.head
        start_at = max(self.sim.now, parent.timestamp + self.config.block_interval_ms)
        self.state = _HeightState(height=h)
        if self.sim.trace_enabled:
            self.sim.trace("height_start", node=self.name, height=h, at=start_at)
        if self.validators.proposer_for(h, 0) == self.address:
            self.sim.schedule_at(start_at, self._guarded(h, 0, partial(self._propose, 0, ())))
        self.sim.schedule_at(start_at + self.config.base_round_timeout_ms, self._guarded(h, 0, self._on_timeout))
        for msg in self.future.pop(h, []):
            self._process(msg, True)
        # A sync can jump past buffered heights; their messages are stale.
        for stale in [k for k in self.future if k < h]:
            del self.future[stale]

    def _guarded(self, height: int, round_: int, fn: Callable[[], None]) -> Callable[[], None]:
        """`fn` as a timer that does nothing once this node has crashed or left (height, round)."""
        def run() -> None:
            if self.name in self.network.crashed or self.state.height != height or self.state.round != round_:
                return
            if self.store.height >= height:
                return
            fn()

        return run

    # -- sending ------------------------------------------------------

    def _broadcast(self, msg: Message) -> None:
        if self.strategy == "withhold":
            return
        self.network.send(self.name, self._targets, "consensus", msg)
        self._process(msg, True)

    def send_prepare(self, height: int, round_: int, digest: bytes) -> None:
        msg = Prepare(
            height=height,
            round=round_,
            digest=digest,
            sender=self.address,
            signature=self.credential.sign(Prepare.preimage(height, round_, digest)),
        )
        self._broadcast(msg)

    def send_commit(self, height: int, round_: int, digest: bytes) -> None:
        seal = self.credential.sign(seal_preimage(digest))
        msg = Commit(
            height=height,
            round=round_,
            digest=digest,
            seal=seal,
            sender=self.address,
            signature=self.credential.sign(Commit.preimage(height, round_, digest, seal)),
        )
        self._broadcast(msg)

    def _send_round_change(self, target: int) -> None:
        msg = RoundChange(
            height=self.state.height,
            target_round=target,
            prepared=self.state.prepared,
            sender=self.address,
            signature=self.credential.sign(RoundChange.preimage(self.state.height, target, self.state.prepared)),
        )
        self._broadcast(msg)

    # -- proposing ----------------------------------------------------

    def _build_block(self, round_: int) -> Block:
        parent = self.store.head
        timestamp = max(self.sim.now, parent.timestamp + self.config.block_interval_ms)
        txs = tuple(self.node.pool.select(self.config.block_gas_limit))
        return Block(
            height=self.state.height,
            timestamp=timestamp,
            parent_hash=self.store.head.hash,
            proposer=self.address,
            round=round_,
            txs=txs,
        )

    def _propose(self, round_: int, rc_cert: tuple[RoundChange, ...]) -> None:
        if round_ in self.state.proposed_rounds or self.strategy == "withhold":
            return
        self.state.proposed_rounds.add(round_)
        best = _highest_prepared(rc_cert)
        block = best.block.replace_unhashed(round=round_) if best is not None else self._build_block(round_)

        height = self.state.height
        variants = [block]
        if self.strategy == "equivocate":
            # The timestamp is hashed, so the twin derives its own hash.
            variants.append(replace(block, timestamp=block.timestamp + 1))
        msgs = [
            PrePrepare(
                height=height,
                round=round_,
                block=variant,
                rc_cert=rc_cert,
                sender=self.address,
                signature=self.credential.sign(PrePrepare.preimage(height, round_, variant.hash)),
            )
            for variant in variants
        ]
        if len(msgs) == 1:
            self._broadcast(msgs[0])
            return

        # Equivocation: the first half of the peers gets the first variant,
        # the rest the twin; we keep the first variant for ourselves.
        half = (len(self._targets) + 1) // 2
        for msg, targets in zip(msgs, (self._targets[:half], self._targets[half:])):
            self.network.send(self.name, targets, "consensus", msg)
        self._process(msgs[0], True)

    # -- receiving ----------------------------------------------------

    def on_message(self, msg: Message, verified: bool = False) -> None:
        """Take in one message; `verified` (own or replayed) skips the signature check and `echo`."""
        st = self.state
        h = st.height
        if not verified:
            if self.strategy == "echo":
                self._echo(msg)
                return
            if msg.height < h:
                return
            # Checked before buffering, so forgeries can neither fill the
            # buffer nor start a sync.  A verdict cached for this set is
            # read in place.
            checked = msg.__dict__.get("_authentic")
            ok = checked[1] if checked is not None and checked[0] is self.validators else _authentic(msg, self.validators)
            if not ok:
                self.dropped_invalid += 1
                return
        elif msg.height < h:
            return
        if msg.height > h:
            self._sync_from(msg.sender)
            if msg.height - h <= FUTURE_HEIGHTS:
                buf = self.future.setdefault(msg.height, [])
                if sum(m.sender == msg.sender for m in buf) < FUTURE_BUFFER_FACTOR:
                    buf.append(msg)
            return
        kind = type(msg)
        if kind is Prepare:
            round_ = msg.round
            votes = st.prepares.setdefault((round_, msg.digest), {})
            votes[msg.sender] = msg
            if round_ == st.round and len(votes) >= self.validators.quorum and (
                st.prepared is None or st.prepared.round < round_
            ):
                self._check_prepare_quorum(round_, msg.digest)
        elif kind is Commit:
            votes = st.commits.setdefault((msg.round, msg.digest), {})
            votes[msg.sender] = msg
            if len(votes) >= self.validators.quorum:
                self._on_commit(msg)
        elif kind is PrePrepare:
            self._on_preprepare(msg)
        else:
            self._on_round_change(msg)

    # The same function under a name that a probe wrapping `on_message`
    # leaves alone, for own broadcasts and buffered replays.
    _process = on_message

    def _echo(self, msg: Message) -> None:
        """Vote for every digest seen, without any validation.

        Once per (height, round, digest): two echoing validators that
        answered each other's every vote would double their traffic with
        each hop.  The validator must still catch up: on a later height,
        and on a commit quorum for a block it never stored, which
        `_on_commit` answers with a sync.
        """
        if msg.height > self.state.height and _authentic(msg, self.validators):
            self._sync_from(msg.sender)
        elif isinstance(msg, Commit) and msg.height == self.state.height and _authentic(msg, self.validators):
            self._process(msg, True)
        if isinstance(msg, PrePrepare):
            digest = msg.block.hash
        elif isinstance(msg, (Prepare, Commit)):
            digest = msg.digest
        else:
            return
        if (msg.height, msg.round, digest) in self.echoed:
            return
        self.echoed.add((msg.height, msg.round, digest))
        self.send_prepare(msg.height, msg.round, digest)
        self.send_commit(msg.height, msg.round, digest)

    def _on_preprepare(self, msg: PrePrepare) -> None:
        st = self.state
        if msg.sender != self.validators.proposer_for(msg.height, msg.round):
            self.dropped_invalid += 1
            return
        if msg.round < st.round or msg.round in st.proposals:
            return
        block = msg.block
        digest = block.hash
        # A re-proposed prepared block names its original proposer; the
        # round-change certificate, checked below, binds it to this digest.
        rebound = msg.round > 0 and _highest_prepared(msg.rc_cert) is not None
        if block.proposer != msg.sender and not rebound:
            self.dropped_invalid += 1
            return
        try:
            self.store.check_extends(block)
        except LedgerError:
            self.dropped_invalid += 1
            return
        if msg.round > 0:
            if not self._verify_rc_cert(msg.rc_cert, msg.round, digest):
                self.dropped_invalid += 1
                return
        if msg.round > st.round:
            self._advance_round(msg.round, send_rc=False)
        st.proposals[msg.round] = msg
        # The proposal is the proposer's prepare.
        st.prepares.setdefault((msg.round, digest), {})[msg.sender] = None
        if msg.sender != self.address:
            self.send_prepare(msg.height, msg.round, digest)
        self._check_prepare_quorum(msg.round, digest)
        self._check_commit_quorum(msg.round, digest)

    def _verify_rc_cert(self, cert: tuple[RoundChange, ...], round_: int, digest: bytes) -> bool:
        h = self.state.height
        senders: set[bytes] = set()
        for rc in cert:
            if rc.height != h or rc.target_round != round_:
                return False
            if rc.sender in senders or not _authentic(rc, self.validators):
                return False
            if rc.prepared is not None and not rc.prepared.verify(h, self.validators):
                return False
            senders.add(rc.sender)
        if len(senders) < self.validators.quorum:
            return False
        # A proposer holding a prepared certificate is bound to its block.
        best = _highest_prepared(cert)
        return best is None or best.block.hash == digest

    def _on_commit(self, msg: Commit) -> None:
        """`msg` brought its (round, digest) to a commit quorum or beyond."""
        proposal = self.state.proposals.get(msg.round)
        if proposal is None or proposal.block.hash != msg.digest:
            # A quorum committed a block we never saw proposed (say, an
            # equivocator's other variant); its committers will hold it.
            self._sync_from(msg.sender)
        self._check_commit_quorum(msg.round, msg.digest)

    def _check_prepare_quorum(self, round_: int, digest: bytes) -> None:
        st = self.state
        if round_ != st.round:
            return
        proposal = st.proposals.get(round_)
        if proposal is None or proposal.block.hash != digest:
            return
        votes = st.prepares.get((round_, digest), {})
        if len(votes) < self.validators.quorum:
            return
        # `prepared` is never from a later round than the current one, so
        # one from this round means its commit is already sent.
        if st.prepared is None or st.prepared.round < round_:
            proofs = tuple(v for sender, v in votes.items() if v is not None and sender != proposal.sender)
            st.prepared = PreparedCert(
                block=proposal.block,
                round=round_,
                proposer_sig=proposal.signature,
                prepares=proofs,
            )
            self.send_commit(st.height, round_, digest)

    def _check_commit_quorum(self, round_: int, digest: bytes) -> None:
        st = self.state
        proposal = st.proposals.get(round_)
        if proposal is None or proposal.block.hash != digest:
            return
        commits = st.commits.get((round_, digest), {})
        if len(commits) < self.validators.quorum:
            return
        # Senders are distinct, so the entries sort by sender alone.
        seals = tuple(sorted([c.seal_entry for c in commits.values()]))
        sealed = proposal.block.replace_unhashed(seals=seals)
        if self.sim.trace_enabled:
            self.sim.trace("finalize", node=self.name, height=sealed.height, round=round_)
        self.node.on_self_finalized(sealed)

    # -- round changes ------------------------------------------------

    def _on_timeout(self) -> None:
        st = self.state
        if self.sim.trace_enabled:
            self.sim.trace("round_timeout", node=self.name, height=st.height, round=st.round)
        self._advance_round(st.round + 1, send_rc=True)

    def _advance_round(self, target: int, send_rc: bool) -> None:
        st = self.state
        if target <= st.round:
            return
        st.round = target
        delay = self.config.base_round_timeout_ms * (2**target)
        self.sim.schedule(delay, self._guarded(st.height, target, self._on_timeout))
        if send_rc:
            self._send_round_change(target)
        # Proposals for `target` arrive only after this returns; our own,
        # if the nested call below makes one, is handled in `_on_preprepare`.
        self._maybe_propose_for(target)

    def _on_round_change(self, msg: RoundChange) -> None:
        if msg.prepared is not None and not msg.prepared.verify(msg.height, self.validators):
            self.dropped_invalid += 1
            return
        st = self.state
        st.round_changes.setdefault(msg.target_round, {})[msg.sender] = msg

        # Catch up when f+1 validators are already past this round.
        later_senders: set[bytes] = set()
        min_later: int | None = None
        for t, senders in st.round_changes.items():
            if t > st.round:
                later_senders.update(senders)
                if min_later is None or t < min_later:
                    min_later = t
        if min_later is not None and len(later_senders) >= fault_tolerance(self.validators.n) + 1:
            self._advance_round(min_later, send_rc=True)

        self._maybe_propose_for(msg.target_round)

    def _maybe_propose_for(self, target: int) -> None:
        st = self.state
        if self.validators.proposer_for(st.height, target) != self.address:
            return
        if target < st.round or target in st.proposed_rounds:
            return
        senders = st.round_changes.get(target, {})
        if len(senders) >= self.validators.quorum:
            if target > st.round:
                self._advance_round(target, send_rc=True)
            cert = tuple(senders.values())
            self._propose(target, cert)

    def _sync_from(self, sender: bytes) -> None:
        self.node.request_sync(self.node.cluster.name_of[sender])


def _highest_prepared(rc_cert: tuple[RoundChange, ...]) -> PreparedCert | None:
    best: PreparedCert | None = None
    for rc in rc_cert:
        if rc.prepared is not None and (best is None or rc.prepared.round > best.round):
            best = rc.prepared
    return best
