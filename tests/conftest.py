"""Shared helpers for the test suite.

Credentials derived from small integers give every test stable keys
without touching the scenario-level seeding, and the call helpers keep
contract tests focused on the rule being exercised.

Hypothesis draws its examples from a fixed seed (`derandomize`) and
without a per-example deadline, so every machine runs the same examples.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import settings

from pactsim.contracts import GasSchedule, PublicState, public_call
from pactsim.identity import Credential, ValidatorSet
from pactsim.ledger import Transaction, make_transaction, seal_preimage

# The presets' block gas limit, for chain stores built outside a run.
BLOCK_GAS_LIMIT = 8_000_000

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def collector():
    """Put the cyclic collector's setting back after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def cred(i: int) -> Credential:
    return Credential.from_seed_bytes(i.to_bytes(32, "big"))


def validator_set(validators) -> ValidatorSet:
    return ValidatorSet(tuple((v.address, v.public_key) for v in validators))


def make_seal(credential: Credential, block_hash: bytes) -> tuple[bytes, bytes]:
    """A validator's (address, seal) pair for a block, as a sealed block carries it."""
    return (credential.address, credential.sign(seal_preimage(block_hash)))


def call_tx(
    sender: Credential,
    nonce: int,
    contract: str,
    function: str,
    *args,
    gas_limit: int = 1_000_000,
) -> Transaction:
    return make_transaction(sender, nonce, gas_limit, public_call(contract, function, *args))


@pytest.fixture
def state() -> PublicState:
    return PublicState(GasSchedule())
