"""Event loop, RNG streams, latency models, and the network fabric."""

import gc
import statistics

import pytest

from pactsim import simulation
from pactsim.config import config_from_dict
from pactsim.scenario import WorkloadDriver, assemble, run_scenario
from pactsim.simulation import (
    DRAW_BLOCK,
    STREAM_CONSENSUS,
    STREAM_ENCLAVE,
    STREAM_RPC,
    STREAM_WORKLOAD,
    Fixed,
    LivelockError,
    LogNormal,
    Network,
    RngHub,
    Simulator,
    Uniform,
)

from .test_golden import CASES


def test_events_fire_in_time_then_insertion_order():
    sim = Simulator()
    log = []
    sim.schedule(10, lambda: log.append("b"))
    sim.schedule(5, lambda: log.append("a"))
    sim.schedule(10, lambda: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 10


def test_schedule_at_clamps_to_now():
    sim = Simulator()
    log = []
    sim.schedule(5, lambda: sim.schedule_at(3, lambda: log.append(sim.now)))
    sim.run()
    assert log == [5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_run_until_pauses_clock():
    sim = Simulator()
    log = []
    sim.schedule(100, lambda: log.append(1))
    sim.run(until=50)
    assert log == [] and sim.now == 50
    sim.run(until=200)
    assert log == [1] and sim.now == 200


def test_stop_halts_draining():
    sim = Simulator()
    log = []
    sim.schedule(1, lambda: log.append(1))
    sim.schedule(2, sim.stop)
    sim.schedule(3, lambda: log.append(3))
    sim.run()
    assert log == [1]


def test_livelock_guard_trips():
    sim = Simulator(max_events=100)

    def again():
        sim.schedule(0, again)

    sim.schedule(0, again)
    with pytest.raises(LivelockError):
        sim.run()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_the_callers_setting(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]
    assert gc.isenabled() is enabled


def end_by_until(sim):
    sim.run(until=50)


def end_by_stop(sim):
    sim.schedule(5, sim.stop)
    sim.run()


def end_by_livelock(sim):
    with pytest.raises(LivelockError):
        sim.run()


def end_by_failing_action(sim):
    def fail():
        raise RuntimeError("action failed")

    sim.schedule(5, fail)
    with pytest.raises(RuntimeError):
        sim.run()


# Two events at 10 and 100 ms against a budget of one event.
@pytest.mark.parametrize("end", [end_by_until, end_by_stop, end_by_livelock, end_by_failing_action])
def test_run_restores_the_collector_however_the_loop_ends(collector, end):
    gc.enable()
    sim = Simulator(max_events=1)
    sim.schedule(10, lambda: None)
    sim.schedule(100, lambda: None)
    end(sim)
    assert gc.isenabled()


def test_simulator_without_a_network_runs_timers():
    sim = Simulator()
    log = []
    sim.schedule(3, lambda: log.append(sim.now))
    sim.run()
    assert sim.network is None and log == [3]


def test_livelock_guard_counts_deliveries():
    sim = Simulator(max_events=100)
    net = Network(sim, RngHub(3))
    net.add_channel("link", Fixed(1), STREAM_CONSENSUS)
    targets = (("b", lambda _item: net.send("a", targets, "link", None)),)
    net.send("a", targets, "link", None)
    with pytest.raises(LivelockError):
        sim.run()
    # The event that trips the guard is counted but not fired.
    assert (sim._fired, net.delivered) == (101, 100)


def test_counters_are_exact_after_a_pause_a_resume_and_a_stop():
    # Every delay is 25 ms; "c" goes down at 40 ms.
    sim, net = wired_network()
    targets = tuple((dst, lambda _item: None) for dst in "bc")
    net.send("a", targets, "link", None)
    sim.schedule(30, lambda: net.send("a", targets, "link", None))
    sim.schedule(40, lambda: net.crash("c"))
    sim.schedule(60, sim.stop)
    sim.schedule(70, lambda: None)
    sim.run(until=35)
    # Two deliveries at 25 and the timer at 30.
    assert (sim._fired, net.delivered, net.dropped_crash) == (3, 2, 0)
    sim.run(until=50)
    assert (sim._fired, net.delivered, net.dropped_crash) == (4, 2, 0)
    sim.run()
    # One delivery and one drop at arrival at 55, then the stop at 60.
    assert (sim._fired, net.delivered, net.dropped_crash) == (7, 3, 1)
    sim.run()
    assert (sim._fired, net.delivered) == (7, 3) and len(sim._queue) == 1


def test_trace_records_only_when_enabled():
    sim = Simulator(trace_enabled=False)
    sim.trace("x", a=1)
    assert sim.trace_log == []
    sim = Simulator(trace_enabled=True)
    sim.schedule(7, lambda: sim.trace("tick", n=2))
    sim.run()
    assert sim.trace_log == [{"t": 7, "kind": "tick", "n": 2}]


# -- rng streams ------------------------------------------------------


def test_same_seed_same_draws():
    a = RngHub(42).stream(STREAM_CONSENSUS)
    b = RngHub(42).stream(STREAM_CONSENSUS)
    assert list(a.integers(0, 1000, 20)) == list(b.integers(0, 1000, 20))


def test_streams_are_independent_of_each_other():
    hub1 = RngHub(42)
    hub2 = RngHub(42)
    # Consuming the consensus stream must not shift the rpc stream.
    hub1.stream(STREAM_CONSENSUS).integers(0, 1000, 500)
    a = list(hub1.stream(STREAM_RPC).integers(0, 1000, 10))
    b = list(hub2.stream(STREAM_RPC).integers(0, 1000, 10))
    assert a == b


def test_derived_streams_are_keyed_not_positional():
    hub1 = RngHub(7)
    hub2 = RngHub(7)
    # Touch keys in different orders; per-key sequences must agree.
    first = hub1.derived(3, 5).bytes(16)
    hub2.derived(3, 9).bytes(16)
    second = hub2.derived(3, 5).bytes(16)
    assert first == second


def test_stream_instances_are_cached():
    hub = RngHub(1)
    assert hub.stream(1) is hub.stream(1)
    assert hub.derived(1, 2) is hub.derived(1, 2)
    assert hub.stream(1) is not hub.derived(1, 2)


@pytest.mark.parametrize("key", [(1,), (2,), (3, 1), (3, 2), (4,), (5, 1, 0), (5, 2, 7), (5, 3, 12)])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 64])
def test_key_bytes_equal_a_fresh_derived_generators_bytes(key, n):
    hub = RngHub(29)
    assert hub.key_bytes(*key, n=n) == RngHub(29).derived(*key).bytes(n)
    assert hub._streams == {}


def test_block_random_draws_equal_scalar_draws():
    block = RngHub(17).derived(STREAM_ENCLAVE, 2)
    scalar = RngHub(17).derived(STREAM_ENCLAVE, 2)
    drawn = block.random(DRAW_BLOCK).tolist() + block.random(DRAW_BLOCK + 3).tolist()
    assert drawn == [scalar.random() for _ in range(2 * DRAW_BLOCK + 3)]
    # Both generators are left in the same state.
    assert block.random() == scalar.random()


def test_draw_block_size_never_changes_an_output(monkeypatch, tmp_path):
    for case in ("smoke-multigroup", "smoke-batches"):
        raw, seed = CASES[case]
        outputs = []
        for block in (DRAW_BLOCK, 1, 7):
            monkeypatch.setattr(simulation, "DRAW_BLOCK", block)
            out = tmp_path / case / str(block)
            run_scenario(config_from_dict(raw), seed, out_dir=out)
            outputs.append([(out / name).read_bytes() for name in ("latency.csv", "summary.json")])
        assert outputs[0] == outputs[1] == outputs[2], case


def test_workload_jitters_equal_scalar_draws():
    config = config_from_dict({"preset": "smoke"})
    driver = WorkloadDriver(assemble(config, 23))
    scalar = RngHub(23).stream(STREAM_WORKLOAD)
    n = 2 * DRAW_BLOCK + 3
    jitters = [driver._jitter() for _ in range(n)]
    assert jitters == [int(scalar.random() * config.block_interval_ms) for _ in range(n)]
    assert len(set(jitters)) > 1


class SpyGenerator:
    """A generator that logs the size of each `random` draw."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return self.rng.random(size)


def test_workload_jitter_is_drawn_in_blocks_of_the_current_size(monkeypatch):
    monkeypatch.setattr(simulation, "DRAW_BLOCK", 7)
    config = config_from_dict({"preset": "smoke"})
    run = assemble(config, 23)
    spy = SpyGenerator(run.rng_hub.stream(STREAM_WORKLOAD))
    run.rng_hub._streams[(STREAM_WORKLOAD,)] = spy
    driver = WorkloadDriver(run)
    scalar = RngHub(23).stream(STREAM_WORKLOAD)
    jitters = [driver._jitter() for _ in range(15)]
    assert spy.sizes == [7, 7, 7]
    assert jitters == [int(scalar.random() * config.block_interval_ms) for _ in range(15)]


# -- latency models ---------------------------------------------------


def test_fixed_model():
    rng = RngHub(0).stream(1)
    assert [Fixed(50).sample(rng) for _ in range(3)] == [50, 50, 50]


def test_uniform_model_bounds_inclusive():
    rng = RngHub(0).stream(1)
    draws = [Uniform(600, 1000).sample(rng) for _ in range(4000)]
    assert min(draws) >= 600 and max(draws) <= 1000
    assert 600 in draws and 1000 in draws
    assert abs(statistics.mean(draws) - 800) < 10


def test_lognormal_median_property():
    rng = RngHub(0).stream(1)
    draws = sorted(LogNormal(700, 0.5).sample(rng) for _ in range(4001))
    assert abs(draws[2000] - 700) < 60
    assert all(d >= 0 for d in draws)


# -- network ----------------------------------------------------------


def wired_network() -> tuple[Simulator, Network]:
    sim = Simulator()
    net = Network(sim, RngHub(9))
    net.add_channel("link", Fixed(25), STREAM_CONSENSUS)
    return sim, net


def to(dst, action):
    """One target that runs `action()` on delivery, ignoring the item."""
    return ((dst, lambda _item: action()),)


def test_send_delivers_after_channel_delay():
    sim, net = wired_network()
    log = []
    net.send("a", to("b", lambda: log.append(sim.now)), "link", None)
    sim.run()
    assert log == [25]
    assert net.delivered == 1


def test_crashed_destination_drops_message():
    sim, net = wired_network()
    log = []
    net.crash("b")
    net.send("a", to("b", lambda: log.append(1)), "link", None)
    net.send("b", to("a", lambda: log.append(2)), "link", None)
    sim.run()
    assert log == []
    assert net.dropped_crash == 2


def test_crash_during_flight_drops_at_arrival():
    sim, net = wired_network()
    log = []
    net.send("a", to("b", lambda: log.append(1)), "link", None)
    sim.schedule(10, lambda: net.crash("b"))
    sim.run()
    assert log == []


def test_crash_does_not_shift_shared_stream():
    # The delay multiset seen by survivors must not depend on whether
    # some other message was dropped.
    def delays(crash_b: bool) -> list[int]:
        sim = Simulator()
        net = Network(sim, RngHub(11))
        net.add_channel("link", Uniform(10, 90), STREAM_CONSENSUS)
        seen = []
        if crash_b:
            net.crash("b")
        for _ in range(6):
            net.send("a", to("b", lambda: None), "link", None)
            net.send("a", to("c", lambda: seen.append(sim.now)), "link", None)
        sim.run()
        return seen

    assert delays(False) == delays(True)


@pytest.mark.parametrize("model", [Fixed(25), Uniform(10, 90), LogNormal(700, 0.5)])
def test_channel_delays_equal_scalar_draws(model):
    # Channels draw delays DRAW_BLOCK at a time; the outputs stay those
    # of one scalar draw per message only while numpy's block and
    # scalar draws agree value for value.
    n = 2 * DRAW_BLOCK + 1
    sim = Simulator()
    net = Network(sim, RngHub(13))
    net.add_channel("link", model, STREAM_CONSENSUS)
    net.crash("x")
    arrivals = {}
    for i in range(n):
        dst = "x" if i % 7 == 3 else "b"
        net.send("a", to(dst, lambda i=i: arrivals.__setitem__(i, sim.now)), "link", None)
    sim.run()
    ref = RngHub(13).stream(STREAM_CONSENSUS)
    expected = [model.sample(ref) for _ in range(n)]
    assert net.dropped_crash == n - len(arrivals) > 0
    assert arrivals == {i: d for i, d in enumerate(expected) if i % 7 != 3}


def test_partition_blocks_cross_group_traffic():
    sim, net = wired_network()
    log = []
    net.set_partition([{"a"}, {"b"}])
    net.send("a", to("b", lambda: log.append(1)), "link", None)
    net.set_partition(None)
    net.send("a", to("b", lambda: log.append(2)), "link", None)
    sim.run()
    assert log == [2]
    assert net.dropped_partition == 1


def test_a_simulator_holds_one_network():
    sim, net = wired_network()
    assert sim.network is net
    with pytest.raises(ValueError):
        Network(sim, RngHub(9))


@pytest.mark.parametrize("timer_first", [True, False])
def test_timer_and_delivery_due_in_the_same_ms_fire_in_scheduling_order(timer_first):
    sim, net = wired_network()
    log = []

    def timer():
        sim.schedule(25, lambda: log.append("timer"))

    def message():
        net.send("a", to("b", lambda: log.append("message")), "link", None)

    for schedule in (timer, message) if timer_first else (message, timer):
        schedule()
    sim.run()
    assert log == (["timer", "message"] if timer_first else ["message", "timer"])


def test_every_offered_target_is_counted_once_under_a_fault_mix():
    # Every delay is 25 ms.  "c" is down from the start, "d" goes down at
    # 10 ms with a message in flight, and "e" is cut off until 30 ms.
    sim, net = wired_network()
    net.crash("c")
    net.set_partition([{"a", "b", "c", "d"}, {"e"}])
    received = []

    def fan_out(src):
        targets = tuple((dst, lambda _item, dst=dst: received.append((dst, sim.now))) for dst in "abcde" if dst != src)
        net.send(src, targets, "link", None)

    def heal_and_send():
        net.set_partition(None)
        net.send_after("e", "a", 5, lambda _item: received.append(("a", sim.now)), None)
        fan_out("c")

    fan_out("a")
    sim.schedule(10, lambda: net.crash("d"))
    sim.schedule(20, lambda: fan_out("b"))
    sim.schedule(30, heal_and_send)
    sim.run()
    # Offered: 4 from "a", 4 from "b", 1 from "e", 4 from the crashed "c".
    assert sorted(received) == [("a", 35), ("a", 45), ("b", 25)]
    assert net.delivered == len(received)
    # c (at 0, 20 and its own four at 30), d in flight, d at 20.
    assert net.dropped_crash == 8
    assert net.dropped_partition == 2
    assert net.delivered + net.dropped_crash + net.dropped_partition == 13
    # Three timers, three deliveries and the drop at arrival fired.
    assert sim._fired == 7


def test_send_after_rejects_a_negative_delay():
    sim, net = wired_network()
    net.wire_log = []
    with pytest.raises(ValueError):
        net.send_after("a", "b", -1, lambda _item: None, b"w")
    assert net.wire_log == [] and sim._queue == []


def test_send_after_uses_explicit_delay():
    sim, net = wired_network()
    log = []
    net.send_after("a", "b", 123, lambda _item: log.append(sim.now), None)
    sim.run()
    assert log == [123]


def test_wire_log_captures_offered_messages():
    sim, net = wired_network()
    net.wire_log = []
    net.crash("b")
    net.send("a", to("b", lambda: None), "link", b"dropped")
    net.send("a", to("c", lambda: None), "link", b"delivered")
    net.send("a", to("c", lambda: None), "link", None)
    sim.run()
    # Every offered message is logged, as the item itself.
    assert net.wire_log == [("a", "b", b"dropped"), ("a", "c", b"delivered"), ("a", "c", None)]


def test_fan_out_takes_one_delay_per_target_in_order_and_shares_the_item():
    sim = Simulator()
    net = Network(sim, RngHub(17))
    net.add_channel("link", Uniform(10, 90), STREAM_CONSENSUS)
    net.wire_log = []
    net.crash("c")
    net.set_partition([{"a", "b", "d"}, {"e"}])
    item = object()
    received = []
    dsts = ("b", "c", "d", "e", "f")
    targets = tuple((dst, lambda got, dst=dst: received.append((dst, got, sim.now))) for dst in dsts)
    net.send("a", targets, "link", item)
    sim.run()
    ref = RngHub(17).stream(STREAM_CONSENSUS)
    expected = {dst: Uniform(10, 90).sample(ref) for dst in dsts}
    # The crashed "c" and the partitioned "e" and "f" still take their delays.
    assert sorted(received, key=lambda r: dsts.index(r[0])) == [
        ("b", item, expected["b"]),
        ("d", item, expected["d"]),
    ]
    assert all(got is item for _, got, _ in received)
    assert net.dropped_crash == 1 and net.dropped_partition == 2
    assert net.wire_log == [("a", dst, item) for dst in dsts]
