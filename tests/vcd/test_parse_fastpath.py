"""The canonical parse path against the token walk.

``parse_vcd`` checks a value section in the form ``VcdWriter`` emits with
one regex pass and builds change lists on first use; any other body goes
through the token walk at once.  Both must give the same ``VcdFile`` or
the same ``VcdParseError`` text.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catg import run_test
from repro.regression.configs import configuration_matrix
from repro.regression.testcases import build_test
from repro.vcd import VcdParseError, parse_vcd
from repro.vcd.parser import _parse_tokens

STOCK_CONFIGS = ("cfg01_t2_3x2_w32_full_programmable_priority",
                 "cfg22_t3_2x2_w8_full_fixed_priority")
STOCK_TESTS = ("t01_sanity_write_read", "t09_mixed_sizes")


def _walk(text):
    return _parse_tokens(text.split())


def _parse(text):
    return parse_vcd(text, is_path=False)


def _summary(vcd):
    # names() and n_cycles first: they must not need change lists.
    return (
        vcd.names(), vcd.n_cycles, vcd.timescale, vcd.end_time,
        [(name, sig.width, sig.ident, sig.changes)
         for name, sig in vcd.signals.items()],
    )


def _outcome(parse, text):
    """The file's contents, or the error ``parse`` itself raised."""
    try:
        vcd = parse(text)
    except VcdParseError as exc:
        return "error", str(exc)
    return "ok", _summary(vcd)


def _is_canonical(text):
    try:
        return _parse(text)._pending is not None
    except VcdParseError:
        return False


@pytest.fixture(scope="module")
def stock_dumps(tmp_path_factory):
    """Both views of a 2 configs x 2 tests x 1 seed stock batch."""
    workdir = tmp_path_factory.mktemp("stock")
    configs = {cfg.name: cfg for cfg in configuration_matrix()}
    paths = []
    for name in STOCK_CONFIGS:
        cfg = configs[name]
        for test in STOCK_TESTS:
            for view in ("rtl", "bca"):
                path = workdir / f"{name}__{test}__{view}.vcd"
                run_test(cfg, build_test(test, cfg, 1), view=view,
                         vcd_path=str(path))
                paths.append(path)
    return paths


def test_stock_dumps_parse_the_same_both_ways(stock_dumps):
    # The w32 3x2 node declares more than 94 signals: two-character ids.
    assert any(len(sig.ident) == 2
               for sig in parse_vcd(str(stock_dumps[0])).signals.values())
    for path in stock_dumps:
        text = path.read_text(encoding="ascii")
        assert _is_canonical(text), path.name
        assert _outcome(parse_vcd, str(path)) == _outcome(_walk, text)


def test_names_membership_and_cycles_build_no_change_lists(stock_dumps):
    vcd = parse_vcd(str(stock_dumps[0]))
    assert "tb.init0.req" in vcd and "tb.nope" not in vcd
    assert vcd.names() and vcd.n_cycles > 0
    assert vcd._pending is not None
    assert vcd["tb.init0.req"].changes
    assert vcd._pending is None


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
def test_parsed_dump_is_freed_by_refcount(stock_dumps, built):
    """No reference cycle keeps a dump's text or change lists alive
    until the cyclic collector runs."""
    gc.disable()
    try:
        vcd = parse_vcd(str(stock_dumps[0]))
        if built:
            vcd.signals
        ref = weakref.ref(vcd)
        del vcd
        assert ref() is None
    finally:
        gc.enable()


HEADER = (
    "$timescale 10ns $end\n"
    "$scope module top $end\n"
    "$var wire 1 ! a $end\n"
    "$var wire 4 \" v [3:0] $end\n"
    "$var wire 2 \" w [1:0] $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n"
)


@pytest.mark.parametrize("body, canonical", [
    ("$dumpvars\n0!\nb0 \"\n$end\n#0\n#10\n1!\nb1011 \"\n#20\n", True),
    # non-monotonic timestamps: end_time is the largest, not the last
    ("#0\n1!\n#30\n0!\n#20\n1!\n", True),
    ("#0\nb111 \"\n#10\n", True),  # a shared id masks per signal
    ("#0\nx!\n#10\n", False),
    ("#0\nZ!\n#10\n", False),
    ("#0\nb1x0z \"\n#10\n", False),
    ("#0\nB101 \"\n#10\n", False),
    ("#0\nr1.5 !\n1!\n#10\n", False),
    ("#0\n$comment note $end\n1!\n#10\n", False),
    ("#0\n$dumpall\n1!\n#10\n", False),
    ("#0\n1!  \n#10\n", False),
    ("#0\n1!\n#10", False),  # no final newline
    # truncated dumps
    ("#0\n1!\n#", False),
    ("#0\n1!\n#\n", False),
    ("#0\nb101", False),
    ("#0\nb101 ", False),
    ("#0\n1!\n#1", False),
    ("#0\n1%\n", False),  # undeclared id
])
def test_body_forms(body, canonical):
    text = HEADER + body
    assert _outcome(_parse, text) == _outcome(_walk, text)
    assert _is_canonical(text) == canonical


@pytest.mark.parametrize("text", [
    "$enddefinitions $end\n#0\n",  # no header line before it
    HEADER.replace("$enddefinitions $end\n", "") + "#0\n1!\n",
    "$comment\n$enddefinitions $end\n$var wire 1 ! a $end\n"
    "$enddefinitions $end\n#0\n1!\n",
    "$timescale 1ns $end\n$var wire 1 ! a\n$enddefinitions $end\n#0\n",
    "$timescale 1ns $end\n$enddefinitions $end\n#0\n1!\n",
    "$timescale 1ns $end\n$enddefinitions $end\n\n",
])
def test_header_forms(text):
    assert _outcome(_parse, text) == _outcome(_walk, text)


# -- generated dumps ------------------------------------------------------

IDENTS = ("!", "#", "ab", "b", "\\")


@st.composite
def dumps(draw):
    n_signals = draw(st.integers(1, 4))
    lines = ["$timescale 1ns $end", "$scope module top $end"]
    declared = []
    for index in range(n_signals):
        ident = draw(st.sampled_from(IDENTS))
        declared.append(ident)
        width = draw(st.integers(1, 6))
        lines.append(f"$var wire {width} {ident} s{index} $end")
    lines += ["$upscope $end", "$enddefinitions $end"]
    ident = st.sampled_from(declared)
    bits = st.text("01", min_size=1, max_size=8)
    canonical = st.one_of(
        st.integers(0, 60).map(lambda t: f"#{t}"),
        st.tuples(st.sampled_from("01"), ident).map("".join),
        st.tuples(bits, ident).map(lambda bi: f"b{bi[0]} {bi[1]}"),
        st.sampled_from(["$dumpvars", "$end"]),
    )
    other = st.one_of(
        st.tuples(st.sampled_from("xXzZ"), ident).map("".join),
        st.tuples(st.text("01xzXZ2", max_size=6), ident).map(
            lambda bi: f"B{bi[0]} {bi[1]}"),
        st.tuples(st.text("01xz2", max_size=6), ident).map(
            lambda bi: f"b{bi[0]} {bi[1]}"),
        ident.map(lambda i: f"r0.5 {i}"),
        st.sampled_from(["$comment x $end", "$dumpall", "$dumpoff"]),
        st.sampled_from(["#", "#007", "#1x", "b", "q!", "", " ", "1?",
                         "b1 ?"]),
    )
    n_other = draw(st.integers(0, 2))
    body = draw(st.lists(canonical, max_size=20))
    for _ in range(n_other):
        body.insert(draw(st.integers(0, len(body))), draw(other))
    text = "\n".join(lines + body) + "\n"
    if draw(st.integers(0, 3)) == 0:  # truncated
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=300, deadline=None)
@given(dumps())
def test_generated_dumps_parse_the_same_both_ways(text):
    assert _outcome(_parse, text) == _outcome(_walk, text)
