"""Post-elaboration fast-path contracts.

After ``elaborate()`` the kernel swaps every bound signal to the
unguarded fast accessors (the dry-run attribution hooks only exist
during elaboration).  These tests pin down that the switch is
observable only as speed: every error diagnostic, the driver
bookkeeping and the lint dry run behave exactly as before.
"""

import pytest

from repro.kernel import (
    Module,
    MultipleDriverError,
    Signal,
    Simulator,
    WidthError,
)
from repro.kernel.signal import _FastSignal


def _elaborated_pair():
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    top.comb(lambda: b.drive(a.value), [a], name="follow")
    sim.elaborate()
    return sim, top, a, b


def test_signals_switch_to_fast_path_after_elaborate():
    sim = Simulator()
    sig = sim.signal("s", width=8)
    assert type(sig) is Signal
    sim.elaborate()
    assert type(sig) is _FastSignal
    assert isinstance(sig, Signal)  # still a Signal to every consumer


def test_unbound_signal_keeps_slow_path():
    sig = Signal("lonely", width=8)
    sig._enable_fast_path()
    assert type(sig) is Signal


def test_fast_path_reads_and_writes_still_work():
    sim, top, a, b = _elaborated_pair()
    a.drive(7)
    sim.step()
    assert a.value == 7
    assert int(b) == 7
    assert bool(a)
    assert [0, 1, 2, 3, 4, 5, 6, 7, 8][a] == 7  # __index__
    a.next = 3
    sim.step()
    assert b.value == 3


def test_fast_path_width_error_names_signal():
    sim = Simulator()
    top = Module(sim, "t")
    narrow = top.signal("narrow", width=3)

    def overdrive():
        narrow.drive(0x10)

    top.clocked(overdrive, name="overdrive", writes=[narrow])
    sim.elaborate()
    assert type(narrow) is _FastSignal
    with pytest.raises(WidthError) as excinfo:
        sim.step()
    message = str(excinfo.value)
    assert "'t.narrow'" in message
    assert "16" in message
    assert "3 bits" in message


def test_fast_path_multiple_driver_names_both_processes():
    sim = Simulator()
    top = Module(sim, "t")
    out = top.signal("out", width=4)
    tick = top.signal("tick")

    def proc_a():
        out.drive(1)

    def proc_b():
        out.drive(2)

    top.clocked(proc_a, name="first", writes=[out])
    top.clocked(proc_b, name="second", writes=[out])
    top.clocked(lambda: tick.drive(1 - tick.value), name="ticker",
                reads=[tick], writes=[tick])
    sim.elaborate()
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.step()
    message = str(excinfo.value)
    assert "'t.out'" in message
    assert "t.first" in message
    assert "t.second" in message
    assert "same delta cycle" in message


def test_dry_run_attribution_survives_fast_path_refactor():
    """The lint dry run happens *during* elaborate, before the switch."""
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    top.comb(lambda: b.drive(a.value + 0), [a], name="follow")
    sim.elaborate()
    info = sim.comb_processes[0]
    assert a in info.observed_reads
    assert b in info.observed_writes
    # Hooks are gone: post-elaboration accesses attribute nothing new.
    before = set(info.observed_reads)
    sim.step()
    assert info.observed_reads == before


def test_fast_path_conflict_same_process_redrive_allowed():
    sim, top, a, b = _elaborated_pair()
    # External writer may recompute its own pending value.
    a.drive(1)
    a.drive(2)
    sim.step()
    assert a.value == 2


def test_process_label_lookup_matches_registration_names():
    sim = Simulator()
    top = Module(sim, "t")
    s = top.signal("s")

    def clk():
        s.drive(1)

    def comb():
        pass

    top.clocked(clk, name="myclk", writes=[s])
    top.comb(comb, [s], name="mycomb")
    assert sim.process_label(clk) == "t.myclk"
    assert sim.process_label(comb) == "t.mycomb"
    assert sim.process_label(None) == "<external>"
    # Unregistered callables fall back to their qualified name.
    assert sim.process_label(print) == "print"


def test_poke_commits_immediately_on_unbound_signal():
    sig = Signal("s", width=8)
    sig.poke(42)
    assert sig.value == 42
    sig.poke(42)  # idempotent re-poke
    assert sig.value == 42
    with pytest.raises(WidthError):
        sig.poke(300)
