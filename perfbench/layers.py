"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of `pactsim` with
wrappers that time each call and count it, keeps the aggregates in
memory, and puts every original back when it is removed.  A function
imported by name into another module (`from .identity import verify`)
is replaced in that module too, so calls through either name are seen.

Spans are aggregated per name rather than stored one by one: a
31-validator run makes about a million wrapped calls, and keeping each
would cost more memory and time than the run itself.  For every span
name the tracer keeps the call count, the inclusive time and the self
time (inclusive time minus the time of wrapped calls made inside it),
and for every (parent, child) pair of span names the number of calls.

Spans are grouped into the layer metrics listed in `PROBES`.  A group's
time and call count take only its outermost spans, so a group whose
members call each other (encoders nesting, a block intake draining a
buffered successor) is not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

# (module, class or None, attribute, span group).  The span name is
# "<module tail>.<class>.<attribute>".
PROBES: tuple[tuple[str, str | None, str, str], ...] = (
    ("pactsim.simulation", "Simulator", "run", "simulation.loop"),
    ("pactsim.simulation", "Simulator", "schedule", "simulation.schedule"),
    ("pactsim.simulation", "Network", "send", "simulation.send"),
    ("pactsim.simulation", "Network", "send_after", "simulation.send"),
    ("pactsim.simulation", "Fixed", "sample", "simulation.draw"),
    ("pactsim.simulation", "Uniform", "sample", "simulation.draw"),
    ("pactsim.simulation", "LogNormal", "sample", "simulation.draw"),
    ("pactsim.identity", "Credential", "sign", "identity.sign"),
    ("pactsim.identity", None, "verify", "identity.verify"),
    ("pactsim.encoding", None, "enc_u8", "encoding.enc"),
    ("pactsim.encoding", None, "enc_u32", "encoding.enc"),
    ("pactsim.encoding", None, "enc_u64", "encoding.enc"),
    ("pactsim.encoding", None, "enc_i64", "encoding.enc"),
    ("pactsim.encoding", None, "enc_bytes", "encoding.enc"),
    ("pactsim.encoding", None, "enc_str", "encoding.enc"),
    ("pactsim.encoding", None, "enc_fixed", "encoding.enc"),
    ("pactsim.encoding", None, "enc_list", "encoding.enc"),
    ("pactsim.encoding", None, "enc_args", "encoding.enc"),
    ("pactsim.encoding", "Cursor", "__init__", "encoding.dec"),
    ("pactsim.encoding", None, "dec_args", "encoding.dec"),
    ("pactsim.contracts", None, "decode_private_op", "encoding.dec"),
    ("pactsim.ledger", None, "decode_transaction", "encoding.dec"),
    ("pactsim.ledger", None, "decode_payload", "encoding.dec"),
    ("pactsim.ledger", "Transaction", "body", "ledger.tx_encode"),
    ("pactsim.ledger", "Transaction", "sign_preimage", "ledger.tx_encode"),
    ("pactsim.ledger", "Transaction", "encode", "ledger.tx_encode"),
    ("pactsim.ledger", None, "hash_block", "ledger.hash_block"),
    ("pactsim.ledger", "ChainStore", "append_block", "ledger.append_block"),
    ("pactsim.ledger", "TxPool", "add", "ledger.pool_add"),
    ("pactsim.ledger", "TxPool", "select", "ledger.pool_select"),
    ("pactsim.ledger", "TxPool", "remove_included", "ledger.pool_remove"),
    ("pactsim.contracts", "PublicState", "execute", "contracts.execute"),
    ("pactsim.contracts", "BreachLedger", "apply", "contracts.private_apply"),
    ("pactsim.consensus", "IbftValidator", "on_message", "consensus.handle"),
    ("pactsim.consensus", "IbftValidator", "_advance_round", "consensus.advance_round"),
    ("pactsim.privacy", "PayloadCourier", "distribute", "privacy.distribute"),
    ("pactsim.privacy", None, "encrypt_payload", "privacy.encrypt"),
    ("pactsim.privacy", "Enclave", "open", "privacy.open"),
    ("pactsim.node", "NodeRuntime", "receive_tx", "node.receive_tx"),
    ("pactsim.node", "NodeRuntime", "receive_gossip", "node.gossip"),
    ("pactsim.node", "NodeRuntime", "on_sealed_block", "node.block_intake"),
    ("pactsim.node", "NodeRuntime", "on_self_finalized", "node.block_intake"),
    ("pactsim.metrics", "MetricsCollector", "summary", "metrics.output"),
    ("pactsim.metrics", "MetricsCollector", "write_csv", "metrics.output"),
    ("pactsim.scenario", None, "assemble", "scenario.assemble"),
    ("pactsim.config", None, "config_from_dict", "config.parse"),
    ("pactsim.audit", None, "convergence", "audit"),
    ("pactsim.audit", None, "member_state_consistency", "audit"),
    ("pactsim.audit", None, "authorization_replay", "audit"),
    ("pactsim.audit", None, "isolation_scan", "audit"),
)


class Patcher:
    """Replaces attributes of modules and classes and restores them.

    Replacing a module function also replaces every binding of the same
    object in the other loaded `pactsim` modules.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        wrapper = make(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                m for key, m in sorted(sys.modules.items())
                if key.startswith("pactsim.") and m is not owner and getattr(m, name, None) is original
            ]
        for target in owners:
            self._saved.append((target, name, target.__dict__[name]))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


def resolve(module: str, cls: str | None) -> object:
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls is not None else mod


def span_name(module: str, cls: str | None, attr: str) -> str:
    tail = module.rsplit(".", 1)[-1]
    return f"{tail}.{cls}.{attr}" if cls else f"{tail}.{attr}"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class GroupStats:
    outer_calls: int = 0
    outer_s: float = 0.0
    self_s: float = 0.0
    bytes_out: int = 0


class Tracer:
    """Wraps every probe, aggregates spans, and counts at the boundaries."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.groups: dict[str, GroupStats] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, int] = {
            "pool_depth_max": 0,
            "failed_receipts": 0,
            "round_changes": 0,
            "encrypt_bytes": 0,
        }
        self._stack: list[list] = []  # [span name, time inside wrapped children]
        self._depth: dict[str, int] = {}
        self._patcher = Patcher()

    def install(self, probes=PROBES) -> None:
        for module, cls, attr, group in probes:
            name = span_name(module, cls, attr)
            self.spans[name] = SpanStats()
            self.groups.setdefault(group, GroupStats())
            self._depth.setdefault(group, 0)
            self._patcher.replace(resolve(module, cls), attr, lambda fn, n=name, g=group: self._wrap(fn, n, g))

    def remove(self) -> None:
        self._patcher.restore()

    def _wrap(self, fn: Callable, name: str, group: str) -> Callable:
        before, after = _HOOKS.get(name, (None, None))
        stack = self._stack
        depth = self._depth
        span = self.spans[name]
        grp = self.groups[group]
        edges = self.edges
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            key = (parent, name)
            edges[key] = edges.get(key, 0) + 1
            token = before(counters, args) if before is not None else None
            outer = depth[group] == 0
            depth[group] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[group] -= 1
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                grp.self_s += elapsed - frame[1]
                if outer:
                    grp.outer_calls += 1
                    grp.outer_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if outer and group == "encoding.enc":
                grp.bytes_out += len(result)
            if after is not None:
                after(counters, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        """Aggregated spans and their parent/child call counts, as plain data."""
        return {
            "spans": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                for name, s in sorted(self.spans.items())
            },
            "edges": [
                {"parent": parent or None, "child": child, "calls": calls}
                for (parent, child), calls in sorted(self.edges.items())
            ],
        }


def _before_select(counters: dict, args: tuple) -> None:
    counters["pool_depth_max"] = max(counters["pool_depth_max"], len(args[0]))


def _after_execute(counters: dict, args: tuple, receipt, token) -> None:
    if not receipt.ok:
        counters["failed_receipts"] += 1


def _before_advance(counters: dict, args: tuple) -> int:
    return args[0].state.round


def _after_advance(counters: dict, args: tuple, result, round_before: int) -> None:
    if args[0].state.round != round_before:
        counters["round_changes"] += 1


def _before_encrypt(counters: dict, args: tuple) -> None:
    counters["encrypt_bytes"] += len(args[2])


_HOOKS: dict[str, tuple] = {
    "ledger.TxPool.select": (_before_select, None),
    "contracts.PublicState.execute": (None, _after_execute),
    "consensus.IbftValidator._advance_round": (_before_advance, _after_advance),
    "privacy.encrypt_payload": (_before_encrypt, None),
}
