#!/usr/bin/env python3
"""Static checks: catch structural design bugs before simulating a cycle.

Two bugs that are miserable to debug at runtime are seeded into a small
design:

1. a combinational feedback loop (``a = not b``, ``b = not a``) — at
   runtime this only surfaces as a DeltaOverflowError somewhere in the
   middle of a test, with no indication of *which* processes form the
   loop;
2. a floating input — a signal a process depends on that nothing drives,
   which at runtime silently reads as zero forever and at best shows up
   as a coverage hole.

The static checker's structural rules (the tier the regression flow
gates every batch on) find both *statically* — the design is elaborated
under read/write tracking, but no clock cycle ever runs — and name the
full loop path and the floating pin.

Run:  python examples/lint_demo.py
"""

from repro.analysis import STRUCTURAL_RULES, analyze_simulator
from repro.kernel import Module, Simulator


def build_buggy_design() -> Simulator:
    sim = Simulator()
    top = Module(sim, "soc")

    # Bug 1: cross-coupled inverters — combinational feedback.
    a = top.signal("a")
    b = top.signal("b")

    def invert_b() -> None:
        a.drive(1 - int(b))

    def invert_a() -> None:
        b.drive(1 - int(a))

    top.comb(invert_b, [b], name="invert_b")
    top.comb(invert_a, [a], name="invert_a")

    # Bug 2: `enable` is consumed but no process ever drives it.
    enable = top.signal("enable")
    gated = top.signal("gated")

    def gate() -> None:
        gated.drive(int(enable))

    top.comb(gate, [enable], name="gate")

    # A well-formed clocked consumer, with declared read/write sets so
    # the undriven-input rule can reason about clocked dataflow.
    captured = top.signal("captured")

    def capture() -> None:
        captured.drive(int(gated))

    top.clocked(capture, name="capture", reads=[gated], writes=[captured])
    return sim


def main() -> int:
    sim = build_buggy_design()
    report = analyze_simulator(sim, design="lint-demo",
                               rules=STRUCTURAL_RULES)
    print(report.render(), end="")
    assert sim.now == 0, "the static checker must not simulate"

    loop = [f for f in report.findings if f.rule == "comb-loop"]
    floating = [f for f in report.findings if f.rule == "undriven-input"]
    print()
    print(f"comb loop found, full path: {' -> '.join(loop[0].path)}")
    print(f"floating input found: {floating[0].signal}")
    print("both caught before a single clock cycle was simulated")
    return 1 if report.has_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
