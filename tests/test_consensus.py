"""Validator agreement: quorums, certificates, rounds, fault handling."""

import itertools
from collections import Counter
from dataclasses import replace

import pytest

from pactsim.consensus import (
    FUTURE_BUFFER_FACTOR,
    FUTURE_HEIGHTS,
    Commit,
    IbftValidator,
    Prepare,
    PrePrepare,
    PreparedCert,
    RoundChange,
    ValidatorSet,
    fault_tolerance,
    message_wire,
)
from pactsim import identity, ledger
from pactsim.config import config_from_dict
from pactsim.identity import quorum_size, verify
from pactsim.ledger import Block, ChainStore, InvalidBlock, genesis_block, hash_block, seal_preimage
from pactsim.scenario import assemble, run_scenario, wire_bytes

from .conftest import call_tx, cred, validator_set
from .test_golden import CASES

VALIDATORS = [cred(70 + i) for i in range(4)]
VSET = validator_set(VALIDATORS)


def test_fault_tolerance_and_quorum_frozen():
    assert [fault_tolerance(n) for n in (4, 7, 10, 13)] == [1, 2, 3, 4]
    assert [quorum_size(n) for n in (4, 7, 10, 13)] == [3, 5, 7, 9]


def test_any_two_quorums_share_an_honest_validator():
    # Brute force over every pair of quorum-sized subsets: the overlap
    # always exceeds f, so at least one honest validator is in both.
    for n in (4, 7):
        f = fault_tolerance(n)
        q = quorum_size(n)
        for a, b in itertools.combinations_with_replacement(
            list(itertools.combinations(range(n), q)), 2
        ):
            assert len(set(a) & set(b)) >= f + 1


@pytest.mark.parametrize("n", [1, 4, 7, 31])
def test_validator_set_size_quorum_and_membership(n):
    members = [cred(200 + i) for i in range(n)]
    vset = validator_set(members)
    assert vset.n == n
    assert vset.quorum == quorum_size(n)
    assert vset.addresses == tuple(m.address for m in members)
    assert all(m.address in vset for m in members)
    assert cred(199).address not in vset
    assert vset == ValidatorSet(tuple((m.address, m.public_key) for m in members))


def test_proposer_rotation_frozen():
    order = [VSET.proposer_for(h, 0) for h in range(1, 9)]
    expected = [VALIDATORS[(h % 4)].address for h in range(1, 9)]
    assert order == expected
    # Round changes walk the same ring from the height's starting point.
    assert VSET.proposer_for(2, 1) == VALIDATORS[3].address
    assert VSET.proposer_for(2, 2) == VALIDATORS[0].address
    assert VSET.proposer_for(3, 5) == VALIDATORS[0].address


def test_vote_preimages_are_distinct_and_frozen():
    digest = b"\xab" * 32
    pp = PrePrepare.preimage(5, 1, digest)
    pr = Prepare.preimage(5, 1, digest)
    cm = Commit.preimage(5, 1, digest, b"seal")
    rc = RoundChange.preimage(5, 1, None)
    assert len({pp, pr, cm, rc}) == 4
    assert pp == b"PMS1" + b"\x01" + (5).to_bytes(8, "big") + (1).to_bytes(4, "big") + digest
    assert pr[4] == 2 and cm[4] == 3 and rc[4] == 4
    assert rc.endswith(b"\x00")  # no prepared certificate


def build_block(round_=0) -> Block:
    parent = genesis_block()
    return Block(
        height=1,
        timestamp=1000,
        parent_hash=hash_block(parent),
        proposer=VSET.proposer_for(1, round_),
        round=round_,
        txs=(),
    )


def make_cert(round_=0, prepare_count=2) -> PreparedCert:
    block = build_block(round_)
    digest = hash_block(block)
    proposer_idx = (1 + round_) % 4
    proposer_sig = VALIDATORS[proposer_idx].sign(PrePrepare.preimage(1, round_, digest))
    others = [v for i, v in enumerate(VALIDATORS) if i != proposer_idx]
    prepares = tuple(
        Prepare(
            height=1,
            round=round_,
            digest=digest,
            sender=v.address,
            signature=v.sign(Prepare.preimage(1, round_, digest)),
        )
        for v in others[:prepare_count]
    )
    return PreparedCert(block=block, round=round_, proposer_sig=proposer_sig, prepares=prepares)


def test_prepared_cert_verifies():
    assert make_cert().verify(1, VSET)
    assert make_cert(round_=2).verify(1, VSET)


def test_prepared_cert_rejects_thin_or_forged_quorums():
    assert not make_cert(prepare_count=1).verify(1, VSET)

    cert = make_cert()
    doubled = PreparedCert(
        block=cert.block,
        round=cert.round,
        proposer_sig=cert.proposer_sig,
        prepares=(cert.prepares[0], cert.prepares[0]),
    )
    assert not doubled.verify(1, VSET)

    wrong_sig = PreparedCert(
        block=cert.block,
        round=cert.round,
        proposer_sig=VALIDATORS[0].sign(b"other"),
        prepares=cert.prepares,
    )
    assert not wrong_sig.verify(1, VSET)

    outsider = cred(99)
    foreign = PreparedCert(
        block=cert.block,
        round=cert.round,
        proposer_sig=cert.proposer_sig,
        prepares=cert.prepares[:1]
        + (
            Prepare(
                height=1,
                round=0,
                digest=hash_block(cert.block),
                sender=outsider.address,
                signature=outsider.sign(Prepare.preimage(1, 0, hash_block(cert.block))),
            ),
        ),
    )
    assert not foreign.verify(1, VSET)


# -- whole-cluster behaviour ------------------------------------------


def heights_config(overrides=None):
    raw = {
        "preset": "smoke",
        "workload": {
            "providers": 0,
            "consumers": 0,
            "publishes_per_provider": 0,
            "selects_per_consumer": 0,
            "breaches_per_group": 0,
            "batches_per_group": 0,
        },
        "run": {"max_virtual_ms": 300_000, "grace_ms": 2000, "target_heights": 3},
    }
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict):
                raw.setdefault(key, {}).update(value)
            else:
                raw[key] = value
    return config_from_dict(raw)


def test_empty_height_run_finalizes_identically_everywhere():
    cfg = heights_config()
    result = run_scenario(cfg, 5)
    assert result.completed
    assert result.summary["safety_violations"] == []
    stores = [result.cluster.nodes[n].store for n in cfg.node_names]
    reference = stores[0]
    assert reference.height >= 3
    for store in stores:
        for h in range(4):
            assert store.hash_at(h) == reference.hash_at(h)
    # Happy path never leaves round 0; timestamps advance by at least
    # the interval (proposal time dominates when consensus is slower).
    for h in range(1, 4):
        block = reference.blocks[h]
        assert block.round == 0
        assert block.timestamp >= reference.blocks[h - 1].timestamp + cfg.block_interval_ms


def test_crashed_proposer_recovers_by_round_change():
    cfg = heights_config(
        {"faults": {"crashes": [{"at_ms": 500, "proposer_of_height": 2}]}}
    )
    result = run_scenario(cfg, 5)
    metrics = result.metrics
    assert result.summary["safety_violations"] == []
    live = [n for n in cfg.node_names if n not in result.cluster.network.crashed]
    store = result.cluster.nodes[live[0]].store
    assert store.height >= 3
    block = store.blocks[2]
    assert block.round == 1
    assert block.proposer == result.cluster.nodes[live[0]].validator.validators.proposer_for(2, 1)
    # Liveness bound: one interval plus the round-0 timeout, with slack
    # for message latency, measured from the previous finalization.
    delta = metrics.first_finalized_at(2) - metrics.first_finalized_at(1)
    assert delta <= cfg.block_interval_ms + 2 * cfg.base_round_timeout_ms


def test_byzantine_minority_cannot_break_safety():
    for strategy in ("equivocate", "echo", "withhold"):
        cfg = heights_config(
            {"faults": {"byzantine": [{"node": "v1", "strategy": strategy}]}}
        )
        result = run_scenario(cfg, 11)
        assert result.summary["safety_violations"] == [], strategy
        honest = [n for n in ("v0", "v2", "v3")]
        stores = [result.cluster.nodes[n].store for n in honest]
        min_h = min(s.height for s in stores)
        assert min_h >= 3, strategy
        for h in range(min_h + 1):
            assert len({s.hash_at(h) for s in stores}) == 1, strategy


def test_withholding_validator_still_syncs_finalized_blocks():
    cfg = heights_config({"faults": {"byzantine": [{"node": "v1", "strategy": "withhold"}]}})
    result = run_scenario(cfg, 11)
    # It never votes, but it counts its peers' commits and finalizes itself.
    assert result.cluster.nodes["v1"].store.height >= 3


def test_echoing_validators_do_not_answer_each_other_forever():
    # Echo validators that answered each other's every vote would double
    # their traffic with each hop.
    byzantine = [{"node": "v1", "strategy": "echo"}, {"node": "v2", "strategy": "echo"}]
    result = run_scenario(heights_config({"faults": {"byzantine": byzantine}}), 11)
    assert result.completed
    assert result.cluster.network.delivered < 2000


def test_reproposed_prepared_block_is_accepted():
    # The split lands after height 1's block prepared on one side but
    # before it committed, so the round-1 proposer re-proposes that block.
    # The block still names its round-0 proposer; peers must take it on
    # the strength of the round-change certificate.
    split = {"from_ms": 1150, "to_ms": 4150, "groups": [["v0", "v1"], ["v2", "v3"]]}
    cfg = heights_config(
        {"member_nodes": 0, "run": {"target_heights": 5}, "faults": {"partitions": [split]}}
    )
    result = run_scenario(cfg, 0)
    assert result.completed
    store = result.cluster.nodes["v0"].store
    assert store.height >= 5
    assert max(block.round for block in store.blocks) <= 1
    assert [result.cluster.nodes[n].validator.dropped_invalid for n in cfg.node_names] == [0] * 4


def test_correctly_signed_message_from_outside_the_set_is_dropped():
    # A real credential: every signature below verifies under its own key,
    # but its address is not in the genesis validator set.
    outsider = cred(99)
    validator = assemble(heights_config(), 5).cluster.nodes["v0"].validator
    validator.start()
    assert outsider.address not in validator.validators
    head = validator.store.head
    block = Block(1, head.timestamp + 1000, head.hash, outsider.address, 0, ())
    digest = block.hash
    seal = outsider.sign(seal_preimage(digest))
    messages = [
        PrePrepare(1, 0, block, (), outsider.address, outsider.sign(PrePrepare.preimage(1, 0, digest))),
        Prepare(1, 0, digest, outsider.address, outsider.sign(Prepare.preimage(1, 0, digest))),
        Commit(1, 0, digest, seal, outsider.address, outsider.sign(Commit.preimage(1, 0, digest, seal))),
        RoundChange(1, 1, None, outsider.address, outsider.sign(RoundChange.preimage(1, 1, None))),
    ]
    st = validator.state
    for dropped, msg in enumerate(messages, start=1):
        assert verify(outsider.public_key, msg.signed, msg.signature)
        validator.on_message(msg)
        assert validator.dropped_invalid == dropped, type(msg).__name__
    assert (st.height, st.round) == (1, 0)
    assert st.proposals == st.prepares == st.commits == st.round_changes == {}


def test_forged_message_under_the_recipients_own_address_is_dropped():
    validator = assemble(heights_config(), 5).cluster.nodes["v0"].validator
    validator.start()
    me = validator.address
    digest = b"\x11" * 32
    good_sig = validator.credential.sign(Commit.preimage(1, 0, digest, b"\x00" * 64))
    messages = [
        Prepare(1, 0, digest, me, b"\x00" * 64),
        Commit(1, 0, digest, b"\x00" * 64, me, b"\x00" * 64),
        # Its own signature over the commit, but the seal is not its own.
        Commit(1, 0, digest, b"\x00" * 64, me, good_sig),
    ]
    st = validator.state
    for dropped, msg in enumerate(messages, start=1):
        validator.on_message(msg)
        assert validator.dropped_invalid == dropped, msg
    assert st.prepares == st.commits == {}


def test_forged_messages_cannot_crowd_a_signed_one_out_of_the_future_buffer():
    cluster = assemble(heights_config(), 5).cluster
    validator = cluster.nodes["v0"].validator
    validator.start()
    assert validator.state.height == 1
    peer = cluster.nodes["v1"].validator
    digest = b"\x22" * 32
    # As many unsigned height-2 prepares under v1's address as the buffer holds.
    for round_ in range(FUTURE_BUFFER_FACTOR * validator.validators.n):
        validator.on_message(Prepare(2, round_, digest, peer.address, b"\x00" * 64))
    signed = Prepare(2, 0, digest, peer.address, peer.credential.sign(Prepare.preimage(2, 0, digest)))
    validator.on_message(signed)
    assert validator.dropped_invalid == FUTURE_BUFFER_FACTOR * validator.validators.n
    assert validator.future == {2: [signed]}


def signed_prepare(signer, height, round_, digest=b"\x22" * 32):
    return Prepare(height, round_, digest, signer.address, signer.credential.sign(Prepare.preimage(height, round_, digest)))


def test_one_senders_signed_messages_cannot_crowd_anothers_out_of_the_future_buffer():
    cluster = assemble(heights_config(), 5).cluster
    validator = cluster.nodes["v0"].validator
    validator.start()
    v1, v2 = cluster.nodes["v1"].validator, cluster.nodes["v2"].validator
    # As many signed height-2 prepares from v1 as the whole height once held.
    flood = [signed_prepare(v1, 2, round_) for round_ in range(FUTURE_BUFFER_FACTOR * validator.validators.n)]
    for msg in flood:
        validator.on_message(msg)
    other = signed_prepare(v2, 2, 0)
    validator.on_message(other)
    assert validator.dropped_invalid == 0
    assert validator.future == {2: flood[:FUTURE_BUFFER_FACTOR] + [other]}


def test_signed_messages_for_far_heights_open_few_buffers_and_one_sync():
    cluster = assemble(heights_config(), 5).cluster
    node = cluster.nodes["v0"]
    validator = node.validator
    validator.start()
    v1 = cluster.nodes["v1"].validator
    for height in range(2, 2002):
        validator.on_message(signed_prepare(v1, height, 0))
    assert sorted(validator.future) == list(range(2, 2 + FUTURE_HEIGHTS))
    # Each shows v1 ahead, but one request per head and peer is enough.
    assert node.sync_requests == 1


def test_round_change_carrying_a_certificate_after_the_proposers_own_prepare_is_accepted():
    cluster = assemble(heights_config({"member_nodes": 0}), 5).cluster
    validators = [node.validator for node in cluster.nodes.values()]
    for v in validators:
        v.start()
    proposer = next(v for v in validators if v.address == v.validators.proposer_for(1, 0))
    holder, peer = [v for v in validators if v is not proposer][:2]
    head = holder.store.head
    block = Block(1, head.timestamp + 1000, head.hash, proposer.address, 0, ())
    digest = block.hash
    proposal_sig = proposer.credential.sign(PrePrepare.preimage(1, 0, digest))
    proposal = PrePrepare(1, 0, block, (), proposer.address, proposal_sig)
    # The proposer's own prepare arrives after its proposal, as an echoing
    # proposer sends it, then one more prepare completes the quorum.
    for msg in (proposal, signed_prepare(proposer, 1, 0, digest), signed_prepare(peer, 1, 0, digest)):
        holder.on_message(msg)
    cert = holder.state.prepared
    assert cert is not None and cert.block.hash == digest
    assert proposer.address not in {p.sender for p in cert.prepares}
    assert cert.verify(1, holder.validators)

    rc = RoundChange(1, 1, cert, holder.address, holder.credential.sign(RoundChange.preimage(1, 1, cert)))
    for v in validators:
        if v is not holder:
            v.on_message(rc)
            assert v.dropped_invalid == 0, v.name
            assert v.state.round_changes[1][holder.address] is rc


# -- quorum crossings -------------------------------------------------


def signed_commit(signer, height, round_, digest):
    seal = signer.credential.sign(seal_preimage(digest))
    signature = signer.credential.sign(Commit.preimage(height, round_, digest, seal))
    return Commit(height, round_, digest, seal, signer.address, signature)


def height_one_roles(seed=5):
    """Started validators of a 4-validator cluster, a height-1 proposal, and its roles.

    Returns (proposal, proposer, holder, peer, other): `holder` is the
    validator under test; none of the three but `proposer` leads round 0.
    """
    cluster = assemble(heights_config({"member_nodes": 0}), seed).cluster
    validators = [node.validator for node in cluster.nodes.values()]
    for v in validators:
        v.start()
    proposer = next(v for v in validators if v.address == v.validators.proposer_for(1, 0))
    holder, peer, other = [v for v in validators if v is not proposer]
    head = holder.store.head
    block = Block(1, head.timestamp + 1000, head.hash, proposer.address, 0, ())
    signature = proposer.credential.sign(PrePrepare.preimage(1, 0, block.hash))
    return PrePrepare(1, 0, block, (), proposer.address, signature), proposer, holder, peer, other


def test_a_prepare_after_the_commit_was_sent_is_recorded_but_sends_nothing(monkeypatch):
    proposal, proposer, holder, peer, other = height_one_roles()
    digest = proposal.block.hash
    commits = []
    real = IbftValidator.send_commit
    monkeypatch.setattr(
        IbftValidator, "send_commit", lambda self, *a: commits.append((self.name, *a)) or real(self, *a)
    )
    # The proposal, the holder's own prepare and the peer's make a quorum of 3.
    holder.on_message(proposal)
    holder.on_message(signed_prepare(peer, 1, 0, digest))
    cert = holder.state.prepared
    assert cert is not None and commits == [(holder.name, 1, 0, digest)]
    late = signed_prepare(other, 1, 0, digest)
    holder.on_message(late)
    assert holder.state.prepares[(0, digest)][other.address] is late
    assert holder.state.prepared is cert
    assert commits == [(holder.name, 1, 0, digest)]


@pytest.mark.parametrize("proposal_first", [True, False], ids=["proposal-first", "commits-first"])
def test_commits_beyond_quorum_finalize_the_block_once(monkeypatch, proposal_first):
    proposal, proposer, holder, peer, other = height_one_roles()
    digest = proposal.block.hash
    finalized = []
    node_type = type(holder.node)
    real = node_type.on_self_finalized
    monkeypatch.setattr(node_type, "on_self_finalized", lambda self, b: finalized.append(b) or real(self, b))
    # The holder's own commit comes last, beyond the quorum of 3.
    commits = [signed_commit(v, 1, 0, digest) for v in (proposer, peer, other, holder)]
    for msg in [proposal, *commits] if proposal_first else [*commits[:3], proposal, commits[3]]:
        holder.on_message(msg)
    assert [b.hash for b in finalized] == [digest]
    assert holder.store.height == 1 and holder.store.head.hash == digest
    assert holder.dropped_invalid == 0


def test_a_self_sealed_block_is_appended_without_checking_its_seals_again(monkeypatch):
    proposal, proposer, holder, peer, other = height_one_roles()
    digest = proposal.block.hash
    commits = [signed_commit(v, 1, 0, digest) for v in (proposer, peer, other)]
    # Another recipient checks each commit first, as a broadcast's first
    # recipient does, so the holder reads cached verdicts.
    for msg in commits:
        other.on_message(msg)
    oracle = []
    for module in (identity, ledger):
        real = module.verify
        monkeypatch.setattr(module, "verify", lambda *a, real=real: oracle.append(a) or real(*a))
    extends = []
    real_extends = ChainStore.check_extends
    monkeypatch.setattr(ChainStore, "check_extends", lambda self, b: extends.append(b.hash) or real_extends(self, b))
    during = []
    node_type = type(holder.node)
    real_finalize = node_type.on_self_finalized

    def finalize(self, block):
        before = len(oracle), len(extends)
        real_finalize(self, block)
        during.append((block.hash, len(oracle) - before[0], len(extends) - before[1]))

    monkeypatch.setattr(node_type, "on_self_finalized", finalize)
    for msg in [proposal, *commits]:
        holder.on_message(msg)
    assert holder.store.height == 1 and holder.store.head.hash == digest
    assert sorted(sealer for sealer, _ in holder.store.head.seals) == sorted(c.sender for c in commits)
    # The block was checked once, as a proposal, and each seal once, in its
    # commit; the append checks neither again.
    assert extends == [digest]
    assert during == [(digest, 0, 0)]


def test_validators_seal_a_height_with_the_entry_objects_of_the_commits_they_counted():
    proposal, proposer, holder, peer, other = height_one_roles()
    commits = {v.name: signed_commit(v, 1, 0, proposal.block.hash) for v in (proposer, holder, peer, other)}
    counted = {holder: (proposer, peer, other), peer: (proposer, holder, other)}
    for validator, senders in counted.items():
        for msg in [proposal, *(commits[v.name] for v in senders)]:
            validator.on_message(msg)
    for validator, senders in counted.items():
        seals = validator.store.blocks[1].seals
        assert seals == tuple(sorted((commits[v.name].sender, commits[v.name].seal) for v in senders))
        # Each entry is the object its commit holds, so the proposer's and
        # the other's entries are shared by both sealed copies.
        assert {id(entry) for entry in seals} == {id(commits[v.name].seal_entry) for v in senders}
    shared = {id(e) for e in holder.store.blocks[1].seals} & {id(e) for e in peer.store.blocks[1].seals}
    assert shared == {id(commits[v.name].seal_entry) for v in (proposer, other)}


@pytest.mark.parametrize("case", ["smoke-proposer-crash", "validators-31-faults"])
def test_each_store_checks_each_block_once_per_round(monkeypatch, case):
    checks = Counter()
    real = ChainStore.check_extends
    monkeypatch.setattr(
        ChainStore, "check_extends", lambda self, b: checks.update([(self, b.hash, b.round)]) or real(self, b)
    )
    raw, seed = CASES[case]
    result = run_scenario(config_from_dict(raw), seed)
    assert result.completed and not result.metrics.safety_violations
    twice = [(h.hex()[:16], r) for (_, h, r), n in checks.items() if n > 1]
    assert checks and twice == []


def test_forged_votes_at_the_current_height_are_dropped_by_every_recipient():
    proposal, proposer, holder, peer, other = height_one_roles()
    digest = proposal.block.hash
    honest = signed_commit(peer, 1, 0, digest)
    forged = [
        Prepare(1, 0, digest, peer.address, b"\x00" * 64),
        Commit(1, 0, digest, honest.seal, peer.address, b"\x00" * 64),
        replace(honest, seal=b"\x00" * 64),
    ]
    # The second recipient of each forgery reads the verdict cached by the first.
    for recipient in (holder, other):
        recipient.on_message(proposal)
        for dropped, msg in enumerate(forged, start=1):
            recipient.on_message(msg)
            assert recipient.dropped_invalid == dropped, (recipient.name, msg)
        assert peer.address not in recipient.state.prepares[(0, digest)]
        assert recipient.state.commits == {}


def test_a_verdict_cached_under_another_validator_set_is_not_reused():
    proposal, proposer, holder, peer, other = height_one_roles()
    stranger = height_one_roles(seed=6)[3]
    digest = proposal.block.hash
    # Authentic in the stranger's cluster, whose keys differ from the holder's.
    msg = signed_prepare(stranger, 1, 0, digest)
    stranger.on_message(msg)
    assert stranger.dropped_invalid == 0
    holder.on_message(proposal)
    holder.on_message(msg)
    assert holder.dropped_invalid == 1
    assert stranger.address not in holder.state.prepares[(0, digest)]


def test_a_validator_that_learns_it_is_behind_asks_the_sender_for_blocks():
    cluster = assemble(heights_config(), 5).cluster
    node = cluster.nodes["v0"]
    node.validator.start()
    v2 = cluster.nodes["v2"].validator
    node.validator.on_message(Prepare(3, 0, b"\x22" * 32, v2.address, b"\x00" * 64))
    assert node.sync_requests == 0  # a forgery starts nothing
    node.validator.on_message(signed_prepare(v2, 3, 0))
    assert node.sync_requests == 1


def test_each_message_object_is_checked_once_for_every_recipient(monkeypatch):
    cluster = assemble(heights_config(), 5).cluster
    validators = [cluster.nodes[n].validator for n in ("v0", "v2", "v3")]
    for v in validators:
        v.start()
    signer = cluster.nodes["v1"].validator
    vset = signer.validators
    checks = []
    real = type(vset).signed
    monkeypatch.setattr(type(vset), "signed", lambda self, *a: checks.append(a[1]) or real(self, *a))
    digest = b"\x33" * 32
    seal = signer.credential.sign(seal_preimage(digest))
    commit = Commit(1, 0, digest, seal, signer.address, signer.credential.sign(Commit.preimage(1, 0, digest, seal)))
    for v in validators:
        v.on_message(commit)
    # The signature and the seal, once each, for three recipients.
    assert checks == [commit.signed, commit.sealed]
    assert all(v.state.commits[(0, digest)] == {signer.address: commit} for v in validators)
    # A copy with a forged seal is a new object and is checked afresh.
    forged = replace(commit, seal=b"\x00" * 64)
    validators[0].on_message(forged)
    assert validators[0].dropped_invalid == 1
    assert len(checks) == 3


def height_one_proposer(a):
    return next(
        node for node in a.cluster.nodes.values() if node.validator.address == a.validator_set.proposer_for(1, 0)
    )


def test_proposal_holding_a_forged_transaction_is_dropped_and_the_chain_moves_on():
    cfg = heights_config({"member_nodes": 0})
    a = assemble(cfg, 5)
    proposer = height_one_proposer(a)
    tx = call_tx(cred(1), 0, "registry", "register", 1)
    forged = replace(tx, gas_limit=tx.gas_limit + 1)  # the signature no longer matches
    proposer.pool.add(forged, 0)
    a.cluster.start_validators()
    a.sim.run(until=60_000)
    nodes = a.cluster.nodes.values()
    assert min(node.store.height for node in nodes) >= 3
    assert all(forged not in block.txs for node in nodes for block in node.store.blocks)
    # Every validator, the proposer included, refused the height-1 proposal.
    assert all(node.validator.dropped_invalid >= 1 for node in nodes)
    assert a.cluster.nodes["v0"].store.blocks[1].round == 1


def assert_packing_gets_no_honest_prepare(monkeypatch, a, proposer, txs):
    """A Byzantine proposer packs `txs` at every height it proposes; honest validators move on without it."""
    monkeypatch.setattr(proposer.pool, "select", lambda limit: txs)
    prepares = []
    real = IbftValidator.send_prepare
    monkeypatch.setattr(
        IbftValidator, "send_prepare", lambda self, *a: prepares.append((self.node.name, *a[:2])) or real(self, *a)
    )
    a.cluster.start_validators()
    a.sim.run(until=60_000)
    nodes = [a.cluster.nodes[n] for n in a.config.validator_names]
    assert min(node.store.height for node in nodes) >= 3
    assert all(tx not in block.txs for node in nodes for block in node.store.blocks for tx in txs)
    assert all(node.validator.dropped_invalid >= 1 for node in nodes)
    assert not [p for p in prepares if p[1:] == (1, 0)]
    assert nodes[0].store.blocks[1].round == 1


def test_proposal_over_the_block_gas_limit_gets_no_honest_prepare(monkeypatch):
    a = assemble(heights_config(), 5)
    proposer = height_one_proposer(a)
    txs = [call_tx(cred(1 + i), 0, "registry", "register", 1, gas_limit=5_000_000) for i in range(3)]
    overweight = Block(1, 1000, genesis_block().hash, proposer.validator.address, 0, tuple(txs))
    with pytest.raises(InvalidBlock, match="15000000 gas"):
        a.cluster.nodes["v0"].store.check_extends(overweight)
    assert_packing_gets_no_honest_prepare(monkeypatch, a, proposer, txs)


def test_proposal_out_of_nonce_sequence_gets_no_honest_prepare(monkeypatch):
    a = assemble(heights_config(), 5)
    proposer = height_one_proposer(a)
    # The sender's nonce 1 is missing, so its nonce 2 cannot execute.
    txs = [call_tx(cred(1), nonce, "registry", "register", 1) for nonce in (0, 2)]
    gapped = Block(1, 1000, genesis_block().hash, proposer.validator.address, 0, tuple(txs))
    with pytest.raises(InvalidBlock, match="nonce 2, expected 1"):
        a.cluster.nodes["v0"].store.check_extends(gapped)
    assert_packing_gets_no_honest_prepare(monkeypatch, a, proposer, txs)


# -- signed bytes -----------------------------------------------------


def test_signed_bytes_are_built_once_per_message_object(monkeypatch):
    block = build_block()
    digest = hash_block(block)
    cert = make_cert()
    sender = VALIDATORS[1].address
    cases = [
        (PrePrepare(1, 0, block, (), sender, b""), PrePrepare.preimage(1, 0, digest)),
        (Prepare(1, 0, digest, sender, b""), Prepare.preimage(1, 0, digest)),
        (Commit(1, 0, digest, b"seal", sender, b""), Commit.preimage(1, 0, digest, b"seal")),
        (RoundChange(1, 1, cert, sender, b""), RoundChange.preimage(1, 1, cert)),
    ]
    builds = []
    for cls in (PrePrepare, Prepare, Commit, RoundChange):
        real = cls.preimage
        monkeypatch.setattr(cls, "preimage", staticmethod(lambda *a, cls=cls, real=real: builds.append(cls) or real(*a)))
    for msg, expected in cases:
        first = msg.signed
        assert first == expected
        # Every recipient of a broadcast gets this object: no rebuild.
        assert msg.signed is first
    assert builds == [PrePrepare, Prepare, Commit, RoundChange]
    commit = cases[2][0]
    assert commit.sealed == seal_preimage(digest)
    assert commit.sealed is commit.sealed


def test_replaced_message_signs_its_own_bytes():
    signer = VALIDATORS[1]
    digest = hash_block(build_block())
    other = b"\x01" * 32
    prepare = Prepare(1, 0, digest, signer.address, signer.sign(Prepare.preimage(1, 0, digest)))
    assert verify(signer.public_key, prepare.signed, prepare.signature)
    for copy in (replace(prepare, round=1), replace(prepare, digest=other)):
        assert copy.signed == Prepare.preimage(copy.height, copy.round, copy.digest)
        assert not verify(signer.public_key, copy.signed, prepare.signature)

    seal = signer.sign(seal_preimage(digest))
    commit = Commit(1, 0, digest, seal, signer.address, signer.sign(Commit.preimage(1, 0, digest, seal)))
    assert verify(signer.public_key, commit.signed, commit.signature)
    assert verify(signer.public_key, commit.sealed, commit.seal)
    moved = replace(commit, digest=other)
    assert moved.sealed == seal_preimage(other)
    assert not verify(signer.public_key, moved.signed, commit.signature)
    assert not verify(signer.public_key, moved.sealed, commit.seal)


def test_round_change_with_a_prepared_certificate_has_the_documented_wire_form():
    # docs/encoding.md, "Consensus messages", built field by field.
    def u32(n):
        return n.to_bytes(4, "big")

    def u64(n):
        return n.to_bytes(8, "big")

    def byte_string(v):
        return u32(len(v)) + v

    cert = make_cert(round_=1)
    digest = hash_block(cert.block)
    signer = VALIDATORS[3]
    signed = b"PMS1" + b"\x04" + u64(1) + u32(3) + b"\x01" + u32(1) + digest
    rc = RoundChange(1, 3, cert, signer.address, signer.sign(signed))
    block = cert.block
    header_and_body = u64(1) + u64(block.timestamp) + block.parent_hash + block.proposer + u32(0)
    block_wire = header_and_body + u64(1) + u32(0)
    prepares = b"".join(
        b"PMS1" + b"\x02" + u64(1) + u32(1) + digest + byte_string(p.signature) for p in cert.prepares
    )
    expected = signed + byte_string(rc.signature) + block_wire + byte_string(cert.proposer_sig) + prepares
    assert len(cert.prepares) == 2
    assert message_wire(rc) == wire_bytes(rc) == expected


# -- refusals ---------------------------------------------------------


def round_roles():
    """Started validators of a 4-validator cluster at height 1, by role.

    Returns (first, second, holder, other): `first` and `second` lead
    rounds 0 and 1; `holder`, the validator under test, leads neither.
    """
    cluster = assemble(heights_config({"member_nodes": 0}), 5).cluster
    validators = [node.validator for node in cluster.nodes.values()]
    for v in validators:
        v.start()
    by_address = {v.address: v for v in validators}
    first, second = (by_address[validators[0].validators.proposer_for(1, r)] for r in (0, 1))
    holder, other = [v for v in validators if v not in (first, second)]
    return first, second, holder, other


def fresh_block(roles, proposer, round_, offset=1000):
    head = roles[2].store.head
    return Block(1, head.timestamp + offset, head.hash, proposer.address, round_, ())


def prepared_block(roles):
    """A round-0 block of `first`, unlike any block `second` proposes below."""
    return fresh_block(roles, roles[0], 0, offset=500)


def signed_proposal(signer, round_, block, rc_cert=()):
    signature = signer.credential.sign(PrePrepare.preimage(1, round_, block.hash))
    return PrePrepare(1, round_, block, rc_cert, signer.address, signature)


def signed_round_change(signer, target, cert=None, height=1):
    signature = signer.credential.sign(RoundChange.preimage(height, target, cert))
    return RoundChange(height, target, cert, signer.address, signature)


def round_zero_cert(roles, block, prepares=None):
    """`block`'s round-0 certificate: `first`'s proposal and the prepares of `holder` and `other`, or `prepares`."""
    first, _, holder, other = roles
    if prepares is None:
        prepares = tuple(signed_prepare(v, 1, 0, block.hash) for v in (holder, other))
    return PreparedCert(block, 0, first.credential.sign(PrePrepare.preimage(1, 0, block.hash)), prepares)


def mismatched_cert(roles, height=1, round_=0, digest=None):
    """A round-0 certificate whose second prepare is for (height, round_, digest) instead."""
    _, _, holder, other = roles
    block = prepared_block(roles)
    prepares = (signed_prepare(holder, 1, 0, block.hash), signed_prepare(other, height, round_, digest or block.hash))
    return round_zero_cert(roles, block, prepares)


def rc_quorum(roles, cert=None, target=1, height=1):
    """Round changes for (height, target) from `first`, `second` and `other`; `first`'s carries `cert`."""
    first, second, _, other = roles
    return tuple(signed_round_change(v, target, cert if v is first else None, height) for v in (first, second, other))


def watch_prepares(monkeypatch):
    sent = []
    real = IbftValidator.send_prepare
    monkeypatch.setattr(IbftValidator, "send_prepare", lambda self, *a: sent.append((self.name, *a)) or real(self, *a))
    return sent


def assert_refused(monkeypatch, holder, msg):
    sent = watch_prepares(monkeypatch)
    holder.on_message(msg)
    assert holder.dropped_invalid == 1
    assert sent == []
    assert (holder.state.round, holder.state.proposals) == (0, {})


def test_a_proposal_from_a_validator_not_leading_its_round_is_refused(monkeypatch):
    roles = _, second, holder, _ = round_roles()
    assert_refused(monkeypatch, holder, signed_proposal(second, 0, fresh_block(roles, second, 0)))


def test_a_reproposal_of_another_proposers_block_without_a_prepared_certificate_is_refused(monkeypatch):
    roles = first, second, holder, _ = round_roles()
    # The block names the round-0 leader, but no round change binds it.
    assert_refused(monkeypatch, holder, signed_proposal(second, 1, fresh_block(roles, first, 1), rc_quorum(roles)))


# Each gives the round-change certificate of `second`'s round-1 proposal
# of a fresh block of its own, and each must be refused.
BAD_RC_CERTS = {
    "for another round": lambda roles: rc_quorum(roles, target=2),
    "for another height": lambda roles: rc_quorum(roles)[:2] + rc_quorum(roles, height=2)[2:],
    "with a repeated sender": lambda roles: rc_quorum(roles)[:2] + rc_quorum(roles)[1:2],
    "with a forged signature": lambda roles: rc_quorum(roles)[:2]
    + (replace(rc_quorum(roles)[2], signature=b"\x00" * 64),),
    "one sender short of a quorum": lambda roles: rc_quorum(roles)[:2],
    "carrying a prepare for another height": lambda roles: rc_quorum(roles, mismatched_cert(roles, height=2)),
    "carrying a prepare for another round": lambda roles: rc_quorum(roles, mismatched_cert(roles, round_=1)),
    "carrying a prepare for another digest": lambda roles: rc_quorum(roles, mismatched_cert(roles, digest=bytes(32))),
    # A valid certificate, which binds the proposer to its own block.
    "binding another block": lambda roles: rc_quorum(roles, round_zero_cert(roles, prepared_block(roles))),
}


@pytest.mark.parametrize("case", BAD_RC_CERTS)
def test_a_later_round_proposal_with_a_bad_round_change_certificate_is_refused(monkeypatch, case):
    roles = _, second, holder, _ = round_roles()
    block = fresh_block(roles, second, 1)
    assert_refused(monkeypatch, holder, signed_proposal(second, 1, block, BAD_RC_CERTS[case](roles)))


def test_a_round_change_whose_prepared_certificate_fails_is_refused(monkeypatch):
    roles = _, _, holder, other = round_roles()
    # The proposal and one prepare: short of a quorum.
    block = prepared_block(roles)
    cert = round_zero_cert(roles, block, (signed_prepare(other, 1, 0, block.hash),))
    assert not cert.verify(1, holder.validators)
    assert_refused(monkeypatch, holder, signed_round_change(other, 1, cert))
    assert holder.state.round_changes == {}


@pytest.mark.parametrize("reproposed", [False, True], ids=["fresh-block", "prepared-block"])
def test_a_valid_proposal_for_a_later_round_moves_to_it_and_prepares(monkeypatch, reproposed):
    roles = _, second, holder, _ = round_roles()
    if reproposed:
        cert = round_zero_cert(roles, prepared_block(roles))
        block = cert.block.replace_unhashed(round=1)
    else:
        cert, block = None, fresh_block(roles, second, 1)
    sent = watch_prepares(monkeypatch)
    holder.on_message(signed_proposal(second, 1, block, rc_quorum(roles, cert)))
    assert holder.dropped_invalid == 0
    assert holder.state.round == 1 and holder.state.proposals[1].block is block
    assert sent == [(holder.name, 1, 1, block.hash)]


# -- the lock ---------------------------------------------------------


@pytest.mark.parametrize("round_", [0, 1])
def test_a_validator_prepared_at_a_round_carries_its_lock_into_the_round_change(monkeypatch, round_):
    roles = first, second, holder, other = round_roles()
    proposer, voters = (first, (second, other)) if round_ == 0 else (second, (first, other))
    block = fresh_block(roles, proposer, round_)
    holder.on_message(signed_proposal(proposer, round_, block, rc_quorum(roles) if round_ else ()))
    # The proposal, which is its proposer's prepare, and quorum - 1
    # prepares from others make a quorum even before the holder's own.
    assert len(voters) == holder.validators.quorum - 1
    for voter in voters:
        holder.on_message(signed_prepare(voter, 1, round_, block.hash))
    assert holder.state.prepared.round == round_
    sent = []
    real = IbftValidator._broadcast
    monkeypatch.setattr(IbftValidator, "_broadcast", lambda self, msg: sent.append((self.name, msg)) or real(self, msg))
    holder._on_timeout()
    ((name, change),) = [(name, msg) for name, msg in sent if isinstance(msg, RoundChange)]
    assert name == holder.name and (change.height, change.target_round) == (1, round_ + 1)
    assert change.prepared is not None
    assert (change.prepared.block.hash, change.prepared.round) == (block.hash, round_)
    assert change.prepared.verify(1, holder.validators)
