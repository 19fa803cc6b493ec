"""``VcdWriter.sample_changes`` writes what a full ``sample`` scan writes."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Signal
from repro.vcd import VcdWriter

#: Enough signals that the identifiers run past one character and
#: include ``{``, ``}`` and ``\``, which break a ``str.format`` template.
N_SIGNALS = 240
WIDTHS = (1, 8, 32)

#: One cycle: drives as (signal index, value), each committed at once;
#: glitches, signals driven away and back within the cycle, so each is
#: in the changed set with its value unchanged; and whether every
#: signal moves, so the changed set is the whole design.
cycles = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, N_SIGNALS - 1),
                           st.integers(0, 2 ** 32 - 1)), max_size=40),
        st.lists(st.integers(0, N_SIGNALS - 1), max_size=5),
        st.booleans(),
    ),
    min_size=1, max_size=25,
)


def _write_both(schedule):
    signals = [Signal(f"top.s{k % 7}.sig{k}", width=WIDTHS[k % 3])
               for k in range(N_SIGNALS)]
    fast, full = io.StringIO(), io.StringIO()
    fast_writer, full_writer = VcdWriter(fast), VcdWriter(full)
    for sig in signals:
        fast_writer.declare(sig)
        full_writer.declare(sig)
    for cycle, (drives, glitches, move_all) in enumerate(schedule):
        changed = set()

        def commit(sig, value):
            if value != sig.value:
                sig.poke(value)
                changed.add(sig)

        for index, value in drives:
            sig = signals[index]
            commit(sig, value & sig.mask)
        for index in glitches:
            sig = signals[index]
            held = sig.value
            commit(sig, held ^ 1)
            commit(sig, held)
        if move_all:
            for sig in signals:
                commit(sig, (sig.value + 1) & sig.mask)
        fast_writer.sample_changes(cycle, signals, changed)
        full_writer.sample(cycle, signals)
    fast_writer.finish(len(schedule))
    full_writer.finish(len(schedule))
    return signals, fast.getvalue(), full.getvalue()


@settings(max_examples=60, deadline=None)
@given(cycles)
def test_sample_changes_matches_full_scan(schedule):
    signals, fast, full = _write_both(schedule)
    assert fast == full


def test_identifiers_include_format_metacharacters():
    # Signals 90, 92 and 59 are named "{", "}" and "\\".
    signals, fast, full = _write_both([([(90, 1), (92, 1), (59, 5)], [],
                                         False)])
    idents = {sig.vcd_id for sig in signals}
    for char in "{}\\":
        assert any(char in ident for ident in idents), char
    assert fast == full
    assert "1{\n" in fast and "b1 }\n" in fast and "b101 \\\n" in fast
