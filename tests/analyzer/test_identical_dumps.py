"""Byte-identical RTL/BCA dumps compare without building change lists.

A signed-off pair writes the same bytes for both views; ``compare_vcds``
then gives every port the aligned row the equal-change-list path gives,
and neither parsed file builds a change list.
"""

import pytest

from repro.analyzer import ExtractionError, compare_vcds
from repro.catg import run_test
from repro.regression.testcases import build_test
from repro.stbus import ArbitrationPolicy, NodeConfig
from repro.vcd import parse_vcd
from repro.vcd.parser import _parse_tokens

CFG = NodeConfig(n_initiators=3, n_targets=2,
                 arbitration=ArbitrationPolicy.LRU, name="lanes")


def _dumps(tmp_path, test, bugs=None):
    paths = {}
    for view in ("rtl", "bca"):
        paths[view] = str(tmp_path / f"{view}.vcd")
        run_test(CFG, build_test(test, CFG, 1), view=view,
                 bugs=bugs if view == "bca" else None,
                 vcd_path=paths[view])
    return paths["rtl"], paths["bca"]


def _walked(path):
    """The dump as the token walk parses it: change lists built."""
    with open(path, encoding="ascii") as handle:
        return _parse_tokens(handle.read().split())


@pytest.fixture(scope="module")
def clean_pair(tmp_path_factory):
    rtl, bca = _dumps(tmp_path_factory.mktemp("clean"), "t09_mixed_sizes")
    with open(rtl, "rb") as a, open(bca, "rb") as b:
        assert a.read() == b.read()
    return rtl, bca


@pytest.mark.parametrize("scopes", [None, ["tb.targ1", "tb.init0"]],
                         ids=["all-ports", "scopes"])
def test_identical_dumps_report_what_built_files_report(clean_pair, scopes):
    rtl, bca = clean_pair
    vcd_a, vcd_b = parse_vcd(rtl), parse_vcd(bca)
    report = compare_vcds(vcd_a, vcd_b, scopes=scopes)
    assert vcd_a._pending is not None and vcd_b._pending is not None
    assert report == compare_vcds(_walked(rtl), _walked(bca), scopes=scopes)
    assert report == compare_vcds(rtl, bca, scopes=scopes)
    assert report.signed_off and report.total_cycles > 0


def test_identical_dumps_keep_the_missing_signal_error(clean_pair):
    rtl, bca = clean_pair
    with pytest.raises(ExtractionError,
                       match="signal 'tb.ghost.req' missing from a dump"):
        compare_vcds(rtl, bca, scopes=["tb.ghost"])


def test_identical_pairs_are_counted(clean_pair, tmp_path):
    rtl, bca = clean_pair
    assert compare_vcds(rtl, bca).identical
    # One byte apart: the header's $date text.
    other = tmp_path / "other.vcd"
    with open(bca, encoding="ascii") as handle:
        other.write_text(handle.read().replace("repro common", "repro Common"),
                         encoding="ascii")
    report = compare_vcds(rtl, str(other))
    assert report.signed_off
    assert not report.identical


def test_identical_corrupt_pair_names_the_first_file(clean_pair, tmp_path):
    with open(clean_pair[0], encoding="ascii") as handle:
        text = handle.read()
    cut = text.rindex("\nb") + 3  # after a vector change's first digit
    paths = []
    for name in ("a.vcd", "b.vcd"):
        path = tmp_path / name
        path.write_text(text[:cut], encoding="ascii")
        paths.append(str(path))
    with pytest.raises(ExtractionError) as info:
        compare_vcds(*paths)
    assert str(info.value) == (
        f"cannot compare {paths[0]}: truncated or corrupt VCD "
        "(vector change missing identifier)")


def test_seeded_bug_pair_reports_what_built_files_report(tmp_path):
    rtl, bca = _dumps(tmp_path, "t09_mixed_sizes",
                      bugs={"subword-lane-misplacement"})
    report = compare_vcds(rtl, bca)
    assert not report.signed_off
    assert report == compare_vcds(_walked(rtl), _walked(bca))
