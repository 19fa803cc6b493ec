"""Kernel error diagnostics: every failure names the offender.

The static lint pass leans on these diagnostics (harvested during
elaboration), so the messages are contract, not cosmetics.
"""

import pytest

from repro.kernel import (
    DeltaOverflowError,
    Module,
    MultipleDriverError,
    Simulator,
    WidthError,
)


def _two_signal_loop():
    """a = not b, b = not a — the canonical unsettleable pair."""
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a")
    b = top.signal("b")

    def invert_b():
        a.drive(1 - int(b))

    def invert_a():
        b.drive(1 - int(a))

    top.comb(invert_b, [b], name="invert_b")
    top.comb(invert_a, [a], name="invert_a")
    return sim, a, b


def test_delta_overflow_names_toggling_signals():
    sim, a, b = _two_signal_loop()
    with pytest.raises(DeltaOverflowError) as excinfo:
        sim.elaborate()
    message = str(excinfo.value)
    assert "did not settle" in message
    assert "t.a" in message or "t.b" in message


def test_delta_overflow_harvested_not_raised_in_lint_mode():
    sim, _, _ = _two_signal_loop()
    sim.elaborate(harvest_errors=True)  # must not raise
    harvested = [exc for _, exc in sim.elaboration_errors]
    assert any(isinstance(exc, DeltaOverflowError) for exc in harvested)


def test_multiple_driver_names_signal_and_both_processes():
    sim = Simulator()
    top = Module(sim, "t")
    sel = top.signal("sel")
    out = top.signal("out")

    def first():
        out.drive(1)

    def second():
        out.drive(0)

    top.comb(first, [sel], name="first")
    top.comb(second, [sel], name="second")
    with pytest.raises(MultipleDriverError) as excinfo:
        sim.elaborate()
    message = str(excinfo.value)
    assert "'t.out'" in message
    assert "t.first" in message
    assert "t.second" in message
    assert "same delta cycle" in message


def test_width_error_on_external_drive_names_signal():
    sim = Simulator()
    top = Module(sim, "t")
    narrow = top.signal("narrow", width=3)
    with pytest.raises(WidthError) as excinfo:
        narrow.drive(9)
    message = str(excinfo.value)
    assert "'t.narrow'" in message
    assert "9" in message
    assert "3 bits" in message


def test_width_error_inside_clocked_process_names_signal():
    sim = Simulator()
    top = Module(sim, "t")
    narrow = top.signal("narrow", width=3)

    def overdrive():
        narrow.drive(0x10)

    top.clocked(overdrive, name="overdrive", writes=[narrow])
    sim.elaborate()
    with pytest.raises(WidthError) as excinfo:
        sim.step()
    assert "'t.narrow'" in str(excinfo.value)
