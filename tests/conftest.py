"""Shared helpers for the test suite.

Credentials derived from small integers give every test stable keys
without touching the scenario-level seeding, and the call helpers keep
contract tests focused on the rule being exercised.
"""

from __future__ import annotations

import pytest

from pactsim.contracts import GasSchedule, PublicState, abi_arg_schema
from pactsim.encoding import enc_args
from pactsim.identity import Credential, ValidatorSet
from pactsim.ledger import PublicCall, Transaction, make_transaction


def cred(i: int) -> Credential:
    return Credential.from_seed_bytes(i.to_bytes(32, "big"))


def validator_set(validators) -> ValidatorSet:
    return ValidatorSet(tuple((v.address, v.public_key) for v in validators))


def make_call(contract: str, function: str, *args) -> PublicCall:
    return PublicCall(contract, function, enc_args(abi_arg_schema(contract, function), args))


def call_tx(
    sender: Credential,
    nonce: int,
    contract: str,
    function: str,
    *args,
    gas_limit: int = 1_000_000,
) -> Transaction:
    return make_transaction(sender, nonce, gas_limit, make_call(contract, function, *args))


@pytest.fixture
def state() -> PublicState:
    return PublicState(GasSchedule())
