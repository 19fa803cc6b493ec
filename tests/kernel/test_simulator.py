"""Integration tests for the cycle scheduler: clocked/comb semantics."""

import gc
import io
import weakref

import pytest

from repro.kernel import (
    DeltaOverflowError,
    ElaborationError,
    Module,
    Simulator,
    Signal,
    SimulatorError,
)
from repro.vcd import VcdWriter, dump_to_string


def make_counter(sim, width=8):
    count = sim.signal("count", width=width)

    def tick():
        count.drive((count.value + 1) & count.mask)

    sim.add_clocked(tick)
    return count


def test_clocked_counter_advances_per_cycle():
    sim = Simulator()
    count = make_counter(sim)
    sim.elaborate()
    sim.run(5)
    assert count.value == 5
    assert sim.now == 5


@pytest.mark.parametrize("timed", [False, True], ids=["plain", "timed"])
def test_clocked_processes_run_in_registration_order(timed):
    """Each cycle runs the clocked processes in the order they were
    registered.  The node environment relies on it: its programming-port
    checker is registered after every port monitor, so the commands it
    publishes reach the arbitration checker after that cycle's check."""
    sim = Simulator()
    if timed:
        sim.enable_process_timing()
    order = []
    names = ["c", "a", "d", "b"]
    for name in names:
        sim.add_clocked(lambda name=name: order.append((sim.now, name)),
                        name=name)
    sim.elaborate()
    sim.run(3)
    assert order == [(cycle, name) for cycle in range(3) for name in names]


def test_comb_settles_through_chain():
    # a -> b -> c combinational chain must settle within one cycle.
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    c = sim.signal("c", width=8)

    sim.add_comb(lambda: b.drive(a.value + 1 if a.value < 255 else 0), [a])
    sim.add_comb(lambda: c.drive(b.value + 1 if b.value < 255 else 0), [b])

    def drive_a():
        a.drive(10)

    sim.add_clocked(drive_a)
    sim.elaborate()
    # After elaboration (a=0): b=1, c=2.
    assert (b.value, c.value) == (1, 2)
    sim.step()
    assert (a.value, b.value, c.value) == (10, 11, 12)


def test_clocked_reads_pre_edge_values():
    # A register chain: q2 must lag q1 by exactly one cycle.
    sim = Simulator()
    d = sim.signal("d", width=8)
    q1 = sim.signal("q1", width=8)
    q2 = sim.signal("q2", width=8)

    def regs():
        q1.drive(d.value)
        q2.drive(q1.value)

    sim.add_clocked(regs)
    sim.elaborate()
    d.drive(7)
    sim._settle()
    sim.step()
    assert (q1.value, q2.value) == (7, 0)
    sim.step()
    assert (q1.value, q2.value) == (7, 7)


def test_oscillating_comb_raises():
    sim = Simulator()
    a = sim.signal("a")
    sim.add_comb(lambda: a.drive(1 - a.value), [a])
    # The loop toggles forever; elaboration settles combinational logic,
    # so the oscillation is detected right there.
    with pytest.raises(DeltaOverflowError):
        sim.elaborate()


def test_elaborate_twice_rejected():
    sim = Simulator()
    sim.elaborate()
    with pytest.raises(ElaborationError):
        sim.elaborate()


def test_step_before_elaborate_rejected():
    sim = Simulator()
    with pytest.raises(ElaborationError):
        sim.step()


def test_add_after_elaborate_rejected():
    sim = Simulator()
    sim.elaborate()
    with pytest.raises(ElaborationError):
        sim.signal("late")
    with pytest.raises(ElaborationError):
        sim.add_clocked(lambda: None)
    with pytest.raises(ElaborationError):
        sim.add_comb(lambda: None, [])


def test_empty_sensitivity_rejected():
    sim = Simulator()
    with pytest.raises(SimulatorError):
        sim.add_comb(lambda: None, [])


def test_run_until_returns_cycle_count():
    sim = Simulator()
    count = make_counter(sim)
    sim.elaborate()
    executed = sim.run_until(lambda: count.value == 3, max_cycles=10)
    assert executed == 3


def test_run_until_timeout_raises():
    sim = Simulator()
    make_counter(sim)
    sim.elaborate()
    with pytest.raises(SimulatorError):
        sim.run_until(lambda: False, max_cycles=4)


def test_module_hierarchy_names():
    sim = Simulator()
    top = Module(sim, "top")
    child = Module(sim, "dut", parent=top)
    sig = child.signal("req")
    assert sig.name == "top.dut.req"


def test_finish_idempotent():
    sim = Simulator()
    sim.elaborate()
    sim.finish()
    sim.finish()
    with pytest.raises(SimulatorError):
        sim.step()


def test_finish_releases_processes_and_unbinds_signals():
    sim = Simulator()
    sim.enable_process_timing()
    top = Module(sim, "t")
    count = top.signal("count", width=8)
    double = top.signal("double", width=9)
    top.clocked(lambda: count.drive((count.value + 1) & 0xFF), name="tick",
                writes=[count])
    top.comb(lambda: double.drive(count.value * 2), [count], name="dbl")
    sim.elaborate()
    sim.run(3)
    sim.finish()
    stats = sim.stats_snapshot()
    assert stats["cycles"] == 3 and stats["signal_toggles"] > 0
    assert sim.process_times()["t.tick"][0] == 3
    assert sim.comb_processes == [] and sim.clocked_processes == []
    # Unbound signals behave like any unbound signal: drive, then poke.
    for sig in (count, double):
        assert type(sig) is Signal and sig._sim is None
    count.drive(7)
    assert count.next == 7 and count.value == 3
    double.poke(1)
    assert double.value == 1
    ref = weakref.ref(sim)
    gc.disable()
    try:
        del sim, top
        assert ref() is None
    finally:
        gc.enable()


def test_comb_only_wakes_on_sensitivity():
    sim = Simulator()
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    out = sim.signal("out", width=8)
    calls = []

    def proc():
        calls.append(sim.now)
        out.drive(a.value)

    sim.add_comb(proc, [a])
    sim.add_clocked(lambda: b.drive((b.value + 1) & 0xFF))
    sim.elaborate()
    n_calls = len(calls)
    sim.run(3)  # only b changes; proc must not rerun
    assert len(calls) == n_calls


_FEEDBACK_NAMES = ("tb.stim", "tb.pre", "tb.x", "tb.y", "tb.out")


def _feedback_rows(cycles):
    """Per-cycle values of the feedback design below, computed directly.

    ``x = max(pre, y)`` and ``y = x & 0x7F`` form a loop that settles in
    one pass from the previous cycle's ``y``: either ``pre`` wins (and
    ``y = pre & 0x7F <= pre`` keeps it winning) or the held ``y`` does
    (and ``y & 0x7F == y`` holds it).
    """
    rows = []
    stim = y = 0
    for _ in range(cycles + 1):  # row 0 is the elaboration settle
        pre = stim ^ 0x0F
        x = max(pre, y)
        y = x & 0x7F
        rows.append(dict(zip(_FEEDBACK_NAMES,
                             (stim, pre, x, y, (y + 1) & 0xFF))))
        stim = (stim * 5 + 1) & 0xFF
    return rows[1:]


def test_feedback_pair_settles_and_dumps_expected_vcd():
    # A settling comb feedback pair (px <-> py) with straight logic on
    # both sides: the delta loop iterates it to its fixpoint every cycle.
    sim = Simulator()
    buf = io.StringIO()
    sim.add_tracer(VcdWriter(buf))
    stim, pre, x, y, out = (sim.signal(name, width=8)
                            for name in _FEEDBACK_NAMES)
    sim.add_comb(lambda: pre.drive(stim.value ^ 0x0F), [stim], name="ppre")
    sim.add_comb(lambda: x.drive(max(pre.value, y.value)), [pre, y],
                 name="px")
    sim.add_comb(lambda: y.drive(x.value & 0x7F), [x], name="py")
    sim.add_comb(lambda: out.drive((y.value + 1) & 0xFF), [y], name="pout")
    sim.add_clocked(lambda: stim.drive((stim.value * 5 + 1) & 0xFF),
                    name="tick", reads=(stim,), writes=(stim,))
    sim.elaborate()
    sim.run(40)
    sim.finish()

    rows = _feedback_rows(40)
    # Both arms of the loop occur: pre wins, and the held y wins.
    assert any(row["tb.x"] == row["tb.pre"] for row in rows)
    assert any(row["tb.x"] != row["tb.pre"] for row in rows)
    assert buf.getvalue() == dump_to_string(
        rows, {name: 8 for name in _FEEDBACK_NAMES})
    assert sim.stat_deltas > 40  # the loop took extra delta waves


def test_stats_snapshot_is_the_delta_loop_counters():
    sim = Simulator()
    make_counter(sim)
    sim.elaborate()
    sim.run(3)
    stats = sim.stats_snapshot()
    assert list(stats) == ["cycles", "delta_iterations",
                           "process_activations", "signal_commits",
                           "signal_toggles"]
    assert stats["cycles"] == 3
    assert stats["process_activations"] == 3
    assert stats["signal_toggles"] == 3
