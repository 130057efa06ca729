"""Discrete-event kernel: virtual clock, RNG streams, and the network.

Everything in a run happens on one thread against an integer
millisecond clock.  Events fire in (time, insertion order), so a run is
a pure function of the scenario seed and configuration.  Randomness is
organized as named substreams of one root seed; components that must
not disturb each other (for example enclave transfer times versus
consensus link jitter) draw from separate streams derived with stable
integer keys.

A heap entry is `(fire_at, seq, handler, item, dst)`.  A timer is
`(fire_at, seq, action, None, None)` and fires as `action()`.  A network
message fires as `handler(item)` at node `dst`.  It is checked twice:
at send time `Network` drops it if either endpoint is crashed or a
partition separates them, and at arrival the loop drops it if `dst` has
crashed since.  `seq` rises with every push, so entries due in the same
ms fire in insertion order and handlers are never compared.

A fan-out on a fixed-delay channel reaches all its targets in the same
ms, and per-target entries would take consecutive `seq` values, so no
other entry could fall between them.  Two or more such targets therefore
share one entry, `(fire_at, seq, item, targets, None)`, whose targets
are `(dst, handler)` pairs; a timer's `item` slot is always None, so the
targets tuple marks it.  The loop delivers it target by target, in
order, exactly as it would the separate entries: each target is one
fired event, checked against `crashed` and the event budget, and a
`stop()` takes effect between targets.  What a handler schedules for the
same ms gets a larger `seq` and fires after the whole fan-out.  If a
stop or a handler's exception ends the delivery early, the targets not
yet taken go back onto the heap under the entry's own `(fire_at, seq)`.

The loop keeps the fired-event and delivered-message counts in locals
and writes them back to `_fired` and `Network.delivered` however it
ends.  It is written `while True:` because `run` is entered once per
run: CPython 3.11 specializes a code object's bytecode (PEP 659) once a
counter, advanced on entry and on each unconditional `JUMP_BACKWARD`,
runs out, and a `while cond:` loop ends in a conditional backward jump
that never advances it, so every event would run on generic bytecode.

The cyclic garbage collector is paused while the loop runs: events
create no reference cycles (a test pins this), so a pass would only walk
the live heap.  The run's own cyclic graph is freed after the caller drops it.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import numpy as np

MAX_EVENTS = 10_000_000

# Channel delays, workload jitter and enclave transfers are drawn this
# many at a time.  A block draw returns the values that as many scalar
# draws would (docs/rng.md), so the size never changes an output.
DRAW_BLOCK = 1024

STREAM_CONSENSUS = 1
STREAM_RPC = 2
STREAM_ENCLAVE = 3
STREAM_WORKLOAD = 4
STREAM_KEYS = 5


class LivelockError(RuntimeError):
    """The run exceeded the event budget without going idle."""


class RngHub:
    """Root of all randomness for one run.

    `stream(tag)` returns the shared generator for a subsystem;
    `derived(tag, *key)` returns an independent generator bound to a
    stable integer key, so the sequence an entity sees does not depend
    on how many draws other entities made before it.  Both are kept, so
    a later lookup continues the sequence.  `key_bytes` reads key
    material once and keeps nothing.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[tuple[int, ...], np.random.Generator] = {}

    def _get(self, key: tuple[int, ...]) -> np.random.Generator:
        gen = self._streams.get(key)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[key] = gen
        return gen

    def stream(self, tag: int) -> np.random.Generator:
        return self._get((tag,))

    def derived(self, tag: int, *key: int) -> np.random.Generator:
        return self._get((tag, *key))

    def key_bytes(self, tag: int, *key: int, n: int) -> bytes:
        """What `derived(tag, *key).bytes(n)` gives for a key not read before.

        `Generator.bytes` takes 32-bit draws, each half of one PCG64
        output low half first, so the bytes are the little-endian raw
        outputs cut to `n`.  No generator is built or cached.
        """
        bits = np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(tag, *key)))
        return bits.random_raw(-(-n // 8)).astype("<u8").tobytes()[:n]


@dataclass(frozen=True)
class Fixed:
    value: int

    def sample(self, rng: np.random.Generator) -> int:
        return self.value

    def block(self, rng: np.random.Generator, n: int) -> list[int]:
        return [self.value] * n


@dataclass(frozen=True)
class Uniform:
    low: int
    high: int

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high, endpoint=True))

    def block(self, rng: np.random.Generator, n: int) -> list[int]:
        return rng.integers(self.low, self.high, endpoint=True, size=n).tolist()


@dataclass(frozen=True)
class LogNormal:
    """Lognormal with the given median (ms) and shape sigma."""

    median: float
    sigma: float

    def sample(self, rng: np.random.Generator) -> int:
        return max(0, int(round(rng.lognormal(mean=np.log(self.median), sigma=self.sigma))))

    def block(self, rng: np.random.Generator, n: int) -> list[int]:
        draws = rng.lognormal(mean=np.log(self.median), sigma=self.sigma, size=n).tolist()
        return [max(0, int(round(x))) for x in draws]


LatencyModel = Fixed | Uniform | LogNormal

# A message is delivered as `handler(item)`; a fan-out names its
# recipients as (node name, handler) pairs.
Handler = Callable[[Any], None]
Targets = tuple[tuple[str, Handler], ...]


def doubles(rng: np.random.Generator, n: int) -> list[float]:
    """`rng`'s next `n` doubles in [0, 1)."""
    return rng.random(n).tolist()


def block_draws(block: Callable[[int], list]) -> Iterator:
    """The values of `block(DRAW_BLOCK)` calls in turn, reading `DRAW_BLOCK` as each block is reached."""
    return itertools.chain.from_iterable(iter(lambda: block(DRAW_BLOCK), None))


class Simulator:
    """Event loop with tracing hooks.

    A simulator has at most one `Network`, which binds itself as
    `network` on construction; a simulator without one runs timers only.
    """

    def __init__(self, trace_enabled: bool = False, max_events: int = MAX_EVENTS):
        self.now = 0
        self._queue: list[tuple[int, int, Callable, Any, str | None]] = []
        self._seq = itertools.count()
        self._fired = 0
        self.network: Network | None = None
        self.max_events = max_events
        self.trace_enabled = trace_enabled
        self.trace_log: list[dict] = []
        self._stopped = False

    def schedule(self, delay: int, action: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._queue, (self.now + delay, next(self._seq), action, None, None))

    def schedule_at(self, when: int, action: Callable[[], None]) -> None:
        self.schedule(max(0, when - self.now), action)

    def stop(self) -> None:
        self._stopped = True

    def run(self, until: int | None = None) -> None:
        """Drain the queue, optionally not past virtual time `until`.

        The cyclic collector is off meanwhile and its setting is restored
        however the loop ends, so events must create no reference cycles.
        `_fired` and `network.delivered` are counted in locals and written
        back however the loop ends, so they are exact only between runs.
        """
        queue = self._queue
        pop = heapq.heappop
        max_events = self.max_events
        net = self.network
        crashed = net.crashed if net is not None else ()
        fired = self._fired
        delivered = net.delivered if net is not None else 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            # `while True` with breaks: CPython 3.11 specializes a frame's
            # code only through an unconditional backward jump, and a `while
            # cond:` loop, entered once per run, would never have one.
            while True:
                if not queue or self._stopped:
                    break
                if until is not None and queue[0][0] > until:
                    self.now = until
                    return
                fire_at, seq, handler, item, dst = pop(queue)
                fired += 1
                if fired > max_events:
                    raise self._livelock()
                self.now = fire_at
                if dst is not None:
                    if dst in crashed:
                        net.dropped_crash += 1
                    else:
                        delivered += 1
                        handler(item)
                elif item is None:
                    handler()
                else:
                    # A fan-out entry: `handler` holds the shared item and
                    # `item` the targets.  `done` counts the targets taken.
                    shared, targets, done = handler, item, 0
                    try:
                        for dst, handler in targets:
                            if done:
                                if self._stopped:
                                    break
                                fired += 1
                                if fired > max_events:
                                    raise self._livelock()
                            done += 1
                            if dst in crashed:
                                net.dropped_crash += 1
                            else:
                                delivered += 1
                                handler(shared)
                    finally:
                        if done < len(targets):
                            heapq.heappush(queue, (fire_at, seq, shared, targets[done:], None))
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._fired = fired
            if net is not None:
                net.delivered = delivered
            if collecting:
                gc.enable()

    def _livelock(self) -> LivelockError:
        return LivelockError(
            f"exceeded {self.max_events} events at t={self.now}ms; the scenario is not making progress"
        )

    def trace(self, kind: str, **fields) -> None:
        if self.trace_enabled:
            self.trace_log.append({"t": self.now, "kind": kind, **fields})


class Network:
    """Point-to-point message fabric with crashes and partitions.

    `send` fans one item out to `(dst, handler)` targets.  Each target
    takes the channel's next delay, in target order, so a fan-out to k
    peers takes k consecutive delays in the sender's peer order; the
    channel draws them from its latency model `DRAW_BLOCK` at a time,
    except that a fixed channel keeps its one delay and draws nothing.
    At send time a message is dropped, its delay still taken, if either
    endpoint is crashed or the two sit in different partition groups;
    otherwise it goes onto the kernel's heap as
    `(now + delay, seq, handler, item, dst)`, or, with two or more
    targets left on a fixed channel, all of them as one fan-out entry
    (see the module docstring).  At arrival the kernel
    drops it if `dst` has crashed meanwhile and calls `handler(item)` if
    not.  Every target of a fan-out gets the same item object.  With
    `wire_log` set, every target's `(src, dst, item)` is logged as
    offered, dropped or not; the log holds items, not bytes
    (`scenario.wire_bytes` serializes one).

    Splits may overlap.  Each active split is kept under its index, and
    the partition in force is their meet: two nodes sit in one group
    only if every active split puts them in one group.  Healing one
    split leaves the others in force.
    """

    def __init__(self, sim: Simulator, rng_hub: RngHub):
        if sim.network is not None:
            raise ValueError("a Simulator has at most one Network")
        sim.network = self
        self.sim = sim
        self.rng_hub = rng_hub
        self.channels: dict[str, int | Iterator[int]] = {}
        self.crashed: set[str] = set()
        # The active splits by index, and their meet (None with none active).
        self.splits: dict[int, list[set[str]]] = {}
        self.partition: list[set[str]] | None = None
        self.delivered = 0
        self.dropped_crash = 0
        self.dropped_partition = 0
        # When set, every message offered to the fabric is recorded as
        # (src, dst, item), including messages later dropped.
        self.wire_log: list[tuple[str, str, Any]] | None = None

    def add_channel(self, name: str, model: LatencyModel, stream_tag: int) -> None:
        # A fixed channel reads no stream; it is kept as its delay.
        if isinstance(model, Fixed):
            self.channels[name] = int(model.value)
        else:
            self.channels[name] = block_draws(partial(model.block, self.rng_hub.stream(stream_tag)))

    def crash(self, node: str) -> None:
        self.crashed.add(node)
        if self.sim.trace_enabled:
            self.sim.trace("crash", node=node)

    def set_partition(self, groups: Iterable[Iterable[str]] | None, index: int = 0) -> None:
        """Put split `index` in force with `groups`, or heal it with None."""
        if groups is None:
            self.splits.pop(index, None)
        else:
            self.splits[index] = [set(g) for g in groups]
        meet = None
        for split in self.splits.values():
            meet = split if meet is None else [a & b for a in meet for b in split if a & b]
        self.partition = meet
        if self.sim.trace_enabled:
            self.sim.trace("partition", groups=[sorted(g) for g in self.partition] if self.partition else None)

    def send(self, src: str, targets: Targets, channel: str, item: object) -> None:
        self._fan_out(src, targets, self.channels[channel], item)

    def send_after(self, src: str, dst: str, delay: int, handler: Handler, item: object) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._fan_out(src, ((dst, handler),), delay, item)

    def _fan_out(self, src: str, targets: Targets, delays: int | Iterator[int], item: object) -> None:
        """Put `item` in flight to `targets`; `delays` is a fixed delay or a channel's draws."""
        # The delay is taken even for dropped messages so that crashing a
        # node does not shift every later delay on the shared stream.
        sim = self.sim
        queue, seq, now, push = sim._queue, sim._seq, sim.now, heapq.heappush
        if self.wire_log is not None:
            self.wire_log.extend((src, dst, item) for dst, _ in targets)
        crashed = blocked = self.crashed
        src_down = src in crashed
        if src_down or self.partition is not None:
            reachable = () if src_down else set().union(*(g for g in self.partition if src in g))
            blocked = {dst for dst, _ in targets if dst in crashed or dst not in reachable}
        if type(delays) is not int:
            for (dst, handler), delay in zip(targets, delays):
                if dst not in blocked:
                    push(queue, (now + delay, next(seq), handler, item, dst))
                else:
                    self._count_drop(src_down, dst)
            return
        # Every target arrives in the same ms: two or more that are reached
        # go onto the heap as one fan-out entry (see the module docstring).
        if blocked:
            reached = []
            for target in targets:
                if target[0] not in blocked:
                    reached.append(target)
                else:
                    self._count_drop(src_down, target[0])
            targets = tuple(reached)
        if len(targets) > 1:
            push(queue, (now + delays, next(seq), item, targets, None))
        elif targets:
            ((dst, handler),) = targets
            push(queue, (now + delays, next(seq), handler, item, dst))

    def _count_drop(self, src_down: bool, dst: str) -> None:
        if src_down or dst in self.crashed:
            self.dropped_crash += 1
        else:
            self.dropped_partition += 1
