"""Parser behaviour table: every ``VcdParseError`` text and value rule.

The parser walks one token list with an ``int(bits, 2)`` fast path for
plain binary vectors; these rows pin what it must keep doing exactly.
"""

import io

import pytest

from repro.vcd import VcdParseError, parse_vcd

HEADER = (
    "$timescale 10ns $end\n"
    "$scope module top $end\n"
    "$var wire 1 ! a $end\n"
    "$var wire 4 \" v [3:0] $end\n"
    "$upscope $end\n"
    "$enddefinitions $end\n"
)


@pytest.mark.parametrize("text, message", [
    # value section
    (HEADER + "#0\n1%\n", "value change for undeclared id '%'"),
    (HEADER + "#0\nb1 %\n", "value change for undeclared id '%'"),
    (HEADER + "#0\nb12 \"\n", "bad vector digit '2'"),
    (HEADER + "#0\nb0b1 \"\n", "bad vector digit 'b'"),
    (HEADER + "#0\nb1_0 \"\n", "bad vector digit '_'"),
    (HEADER + "#0\nb+1 \"\n", "bad vector digit '+'"),
    (HEADER + "#0\nb-1 \"\n", "bad vector digit '-'"),
    # the digit is checked before the id is looked up
    (HEADER + "#0\nb12 %\n", "bad vector digit '2'"),
    (HEADER + "#0\nb101", "vector change missing identifier"),
    (HEADER + "#0\nr1.5", "real change missing identifier"),
    (HEADER + "#0\n$comment open", "unterminated $ section"),
    (HEADER + "#0\nq!\n", "unexpected token 'q!' in value section"),
    # header
    ("$date today\n", "unterminated $ section"),
    ("$timescale ns $end\n", "bad timescale 'ns'"),
    ("$scope module $end\n", "bad $scope ['module']"),
    ("$upscope $end\n", "$upscope with empty scope stack"),
    ("$var wire 1 ! $end\n", "bad $var ['wire', '1', '!']"),
    ("$var wire 1 ! a $end\n$var wire 1 % a $end\n$enddefinitions $end\n",
     "duplicate signal 'a'"),
    ("$nonsense\nstuff\n", "unexpected header token '$nonsense'"),
    ("$timescale 1ns $end\n", "no $enddefinitions in input"),
])
def test_parse_error_text(text, message):
    with pytest.raises(VcdParseError) as info:
        parse_vcd(text)
    assert str(info.value) == message


@pytest.mark.parametrize("change, value", [
    ("b1010", 0b1010),
    ("B0011", 0b0011),
    ("b1x1z", 0b1010),  # x/z read as 0
    ("bX1Z0", 0b0100),
    ("b", 0),  # an empty vector reads as 0
    ("b110101", 0b0101),  # masked to the declared width
])
def test_vector_values(change, value):
    vcd = parse_vcd(HEADER + f"#0\n{change} \"\n#10\n")
    assert vcd["top.v"].changes == [(0, value)]


@pytest.mark.parametrize("change, value", [
    ("1!", 1), ("0!", 0), ("x!", 0), ("X!", 0), ("z!", 0), ("Z!", 0),
])
def test_scalar_values(change, value):
    vcd = parse_vcd(HEADER + f"#0\n{change}\n#10\n")
    assert vcd["top.a"].changes == [(0, value)]


def test_shared_ident_masks_per_signal():
    text = (
        "$timescale 1ns $end\n"
        "$var wire 1 ! bit $end\n"
        "$var wire 4 ! nib $end\n"
        "$enddefinitions $end\n"
        "#0\nb10101 !\n#3\n"
    )
    vcd = parse_vcd(text)
    assert vcd["bit"].changes == [(0, 1)]
    assert vcd["nib"].changes == [(0, 0b0101)]
    assert vcd.end_time == 3


def test_skipped_sections_and_reals():
    text = HEADER + (
        "$dumpvars\n0!\nb0 \"\n$end\n"
        "#10\n$comment a note $end\nr1.5 !\n1!\n"
        "$dumpoff\n$dumpon\n$dumpall\n#20\n"
    )
    vcd = parse_vcd(text)
    assert vcd["top.a"].changes == [(0, 0), (10, 1)]
    assert vcd["top.v"].changes == [(0, 0)]
    assert vcd.n_cycles == 2


def _summary(vcd):
    return (
        vcd.timescale, vcd.end_time,
        {name: (sig.width, sig.ident, sig.changes)
         for name, sig in vcd.signals.items()},
    )


def test_text_path_and_stream_inputs_agree(tmp_path):
    text = HEADER + "#0\n1!\nb1x01 \"\n#10\n0!\n#20\n"
    path = tmp_path / "wave.vcd"
    path.write_text(text, encoding="ascii")
    from_text = _summary(parse_vcd(text))
    assert _summary(parse_vcd(str(path))) == from_text
    assert _summary(parse_vcd(str(path), is_path=True)) == from_text
    assert _summary(parse_vcd(io.StringIO(text))) == from_text
    with open(path, encoding="ascii") as handle:
        assert _summary(parse_vcd(handle)) == from_text
    assert from_text[2]["top.v"][2] == [(0, 0b1001)]
