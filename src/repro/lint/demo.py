"""A deliberately defective design, one defect per structural rule.

Used by ``python -m repro.analysis --demo`` and ``examples/lint_demo.py`` to
show the pass catching, *before any cycle is simulated*, the classes of
bug that would otherwise surface mid-run (delta overflow, driver
conflict) or never surface at all (floating input, dead net).
"""

from __future__ import annotations

from ..kernel import Module, Simulator


def build_defective_design() -> Simulator:
    """Return an un-elaborated simulator seeded with six distinct defects.

    1. ``demo.a``/``demo.b`` form a two-process combinational loop —
       running this design would raise DeltaOverflowError.
    2. ``demo.floating_in`` is read by a process but driven by nothing.
    3. ``demo.shared`` is driven by two combinational processes.
    4. ``demo.narrow`` (4 bits) is driven with a 5-bit constant.
    5. ``demo.gate`` reads ``demo.sel`` without listing it as sensitive.
    6. ``demo.unused_net`` is written by a clocked process nothing reads.
    """
    sim = Simulator()
    top = Module(sim, "demo")

    # 1. combinational feedback loop: a = !b, b = !a
    a = top.signal("a")
    b = top.signal("b")

    def invert_b() -> None:
        a.drive(1 - int(b))

    def invert_a() -> None:
        b.drive(1 - int(a))

    top.comb(invert_b, [b], name="invert_b")
    top.comb(invert_a, [a], name="invert_a")

    # 2. floating input feeding a mirror process
    floating_in = top.signal("floating_in")
    status = top.signal("status")

    def mirror() -> None:
        status.drive(int(floating_in))

    top.comb(mirror, [floating_in], name="mirror")

    # 3. driver conflict on one net
    shared = top.signal("shared")

    def source_one() -> None:
        shared.drive(int(floating_in))

    def source_two() -> None:
        shared.drive(0)

    top.comb(source_one, [floating_in], name="source_one")
    top.comb(source_two, [floating_in], name="source_two")

    # 4. constant wider than the signal
    narrow = top.signal("narrow", width=4)

    def drive_wide() -> None:
        narrow.drive(0x1F)

    top.comb(drive_wide, [floating_in], name="drive_wide")

    # 5. incomplete sensitivity: reads sel, sensitive only to floating_in
    sel = top.signal("sel")
    gated = top.signal("gated")

    def gate() -> None:
        gated.drive(int(floating_in) & int(sel))

    top.comb(gate, [floating_in], name="gate")

    # 6. clocked process feeding a net nothing consumes
    unused_net = top.signal("unused_net", width=8)

    def pulse() -> None:
        unused_net.drive(1)

    top.clocked(pulse, name="pulse", reads=[], writes=[unused_net])

    return sim
