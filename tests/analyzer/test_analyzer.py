"""STBus Analyzer tests: extraction, alignment rates, transaction diff."""

import os

import pytest

from repro.analyzer import (
    SIGNOFF_THRESHOLD,
    compare_vcds,
    diff_transactions,
    discover_ports,
    extract_all,
    extract_port,
    ExtractionError,
)
from repro.analyzer.extract import PORT_SIGNALS
from repro.catg import run_test
from repro.regression.testcases import build_test
from repro.stbus import ArbitrationPolicy, NodeConfig, Opcode, ProtocolType
from repro.vcd import parse_vcd
from repro.vcd.parser import VcdSignal


@pytest.fixture(scope="module")
def vcd_pair(tmp_path_factory):
    """RTL and BCA dumps of the same seeded test."""
    workdir = tmp_path_factory.mktemp("vcds")
    cfg = NodeConfig(n_initiators=2, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="alignme")
    paths = {}
    for view in ("rtl", "bca"):
        path = str(workdir / f"{view}.vcd")
        result = run_test(cfg, build_test("t02_random_uniform", cfg, 4),
                          view=view, vcd_path=path)
        assert result.passed
        paths[view] = path
    return cfg, paths


def test_discover_ports(vcd_pair):
    _, paths = vcd_pair
    vcd = parse_vcd(paths["rtl"])
    ports = discover_ports(vcd)
    assert "tb.init0" in ports
    assert "tb.init1" in ports
    assert "tb.targ0" in ports
    assert "tb.targ1" in ports


def test_extract_port_packets_match_monitoring(vcd_pair):
    cfg, paths = vcd_pair
    vcd = parse_vcd(paths["rtl"])
    traffic = extract_port(vcd, "tb.init0")
    assert traffic.requests, "no packets extracted"
    assert len(traffic.requests) == len(traffic.responses)
    for packet in traffic.requests:
        assert packet.cells[-1].eop == 1
        assert all(c.eop == 0 for c in packet.cells[:-1])
        Opcode.decode(packet.cells[0].opc)  # decodable
    assert "request packets" in traffic.summary()


def test_extract_missing_scope_rejected(vcd_pair):
    _, paths = vcd_pair
    vcd = parse_vcd(paths["rtl"])
    with pytest.raises(ExtractionError):
        extract_port(vcd, "tb.nonexistent")
    with pytest.raises(ExtractionError):
        extract_all(vcd, scopes=["tb.ghost"])


def test_clean_views_align_100_percent(vcd_pair):
    _, paths = vcd_pair
    report = compare_vcds(paths["rtl"], paths["bca"])
    assert report.signed_off
    assert report.min_rate == 1.0
    assert report.overall_rate == 1.0
    for port in report.ports.values():
        assert port.first_divergence is None
        assert not port.signal_mismatches
    assert "SIGNED OFF" in report.render()


def test_self_comparison_is_perfect(vcd_pair):
    _, paths = vcd_pair
    report = compare_vcds(paths["rtl"], paths["rtl"])
    assert report.min_rate == 1.0


def test_buggy_bca_drops_below_threshold(tmp_path):
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="buggy")
    rtl_path = str(tmp_path / "rtl.vcd")
    bca_path = str(tmp_path / "bca.vcd")
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="rtl",
             vcd_path=rtl_path)
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="bca",
             bugs={"lru-recency-stuck"}, vcd_path=bca_path)
    report = compare_vcds(rtl_path, bca_path)
    assert not report.signed_off
    worst = report.worst_port()
    assert worst.rate < SIGNOFF_THRESHOLD
    assert worst.first_divergence is not None
    assert "NOT signed off" in report.render()


def _reference_port(vcd_a, vcd_b, scope, total):
    """Per-cycle alignment of one port, sampling every signal."""
    aligned, first, mismatches = 0, None, {}
    series = {
        leaf: (vcd_a[f"{scope}.{leaf}"].expand(total, vcd_a.timescale),
               vcd_b[f"{scope}.{leaf}"].expand(total, vcd_b.timescale))
        for leaf in PORT_SIGNALS
    }
    for cycle in range(total):
        bad = [leaf for leaf, (a, b) in series.items()
               if a[cycle] != b[cycle]]
        for leaf in bad:
            mismatches[leaf] = mismatches.get(leaf, 0) + 1
        if not bad:
            aligned += 1
        elif first is None:
            first = cycle
    return aligned, first, mismatches


def test_buggy_pair_matches_per_cycle_reference(tmp_path):
    """Aligned ports skip the per-cycle walk; every port still reports
    what sampling every cycle reports."""
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="buggy")
    paths = {}
    for view, bugs in (("rtl", None), ("bca", {"lru-recency-stuck"})):
        paths[view] = str(tmp_path / f"{view}.vcd")
        run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view=view,
                 bugs=bugs, vcd_path=paths[view])
    vcd_a, vcd_b = parse_vcd(paths["rtl"]), parse_vcd(paths["bca"])
    report = compare_vcds(vcd_a, vcd_b)
    rates = {port.rate for port in report.ports.values()}
    assert 1.0 in rates and min(rates) < 1.0
    for scope, port in report.ports.items():
        assert (port.aligned_cycles, port.first_divergence,
                port.signal_mismatches) == _reference_port(
                    vcd_a, vcd_b, scope, report.total_cycles), scope


def _port_vcd(timescale, end, changes=()):
    """A dump of one port scope ``tb.p0`` whose signals start at 0 and
    then follow ``changes`` ((time, leaf, value) triples)."""
    ids = {leaf: chr(ord("A") + i) for i, leaf in enumerate(PORT_SIGNALS)}
    lines = [f"$timescale {timescale} ns $end",
             "$scope module tb $end", "$scope module p0 $end"]
    lines += [f"$var wire 1 {ident} {leaf} $end"
              for leaf, ident in ids.items()]
    lines += ["$upscope $end", "$upscope $end", "$enddefinitions $end",
              "#0", "$dumpvars"]
    lines += [f"0{ident}" for ident in ids.values()]
    lines.append("$end")
    for time, leaf, value in changes:
        lines += [f"#{time}", f"{value}{ids[leaf]}"]
    lines.append(f"#{end}")
    return parse_vcd("\n".join(lines) + "\n")


@pytest.fixture
def expand_calls(monkeypatch):
    """Counts ``VcdSignal.expand`` calls: the per-cycle path."""
    calls = []
    real = VcdSignal.expand

    def counting(self, n_cycles, timescale):
        calls.append(self.name)
        return real(self, n_cycles, timescale)

    monkeypatch.setattr(VcdSignal, "expand", counting)
    return calls


def test_equal_change_lists_skip_the_per_cycle_walk(expand_calls):
    changes = [(20, "req", 1), (40, "req", 0)]
    report = compare_vcds(_port_vcd(10, 100, changes),
                          _port_vcd(10, 100, changes))
    assert report.ports["tb.p0"].aligned_cycles == 10
    assert expand_calls == []


@pytest.mark.parametrize("changes_b", [
    # The same value driven again: one extra entry, same waveform.
    [(20, "req", 1), (30, "req", 1), (40, "req", 0)],
    # Off-cycle timestamps land on the same sampled cycles.
    [(15, "req", 1), (35, "req", 0)],
], ids=["redundant-change", "off-cycle-timestamp"])
def test_unequal_change_lists_that_expand_equal_read_100(
        expand_calls, changes_b):
    changes_a = [(20, "req", 1), (40, "req", 0)]
    report = compare_vcds(_port_vcd(10, 100, changes_a),
                          _port_vcd(10, 100, changes_b))
    port = report.ports["tb.p0"]
    assert (port.rate, port.first_divergence, port.signal_mismatches) \
        == (1.0, None, {})
    assert len(expand_calls) == 2 * len(PORT_SIGNALS)


def test_differing_timescales_never_take_the_fast_path(expand_calls):
    """Identical change lists sample differently under different
    timescales: cycle 2 is t=20 in one dump and t=40 in the other."""
    changes = [(30, "req", 1)]
    report = compare_vcds(_port_vcd(10, 100, changes),
                          _port_vcd(20, 100, changes))
    port = report.ports["tb.p0"]
    assert report.total_cycles == 5
    assert port.first_divergence == 2
    assert port.signal_mismatches == {"req": 1}
    assert len(expand_calls) == 2 * len(PORT_SIGNALS)


def test_transaction_diff_identical_for_clean_views(vcd_pair):
    _, paths = vcd_pair
    diff = diff_transactions(paths["rtl"], paths["bca"])
    assert diff.functionally_equal
    assert "identical" in diff.render() or "timing-skew" in diff.render()


def test_transaction_diff_detects_content_divergence(tmp_path):
    cfg = NodeConfig(n_initiators=2, n_targets=2, name="lanes")
    rtl_path = str(tmp_path / "rtl.vcd")
    bca_path = str(tmp_path / "bca.vcd")
    run_test(cfg, build_test("t09_mixed_sizes", cfg, 3), view="rtl",
             vcd_path=rtl_path)
    run_test(cfg, build_test("t09_mixed_sizes", cfg, 3), view="bca",
             bugs={"subword-lane-misplacement"}, vcd_path=bca_path)
    diff = diff_transactions(rtl_path, bca_path)
    assert not diff.functionally_equal
    # The corruption is on the node's target side.
    assert any(
        not d.functionally_equal and "targ" in name
        for name, d in diff.ports.items()
    )


def test_compare_mismatched_portsets_rejected(vcd_pair, tmp_path):
    _, paths = vcd_pair
    cfg = NodeConfig(n_initiators=1, n_targets=1, name="tiny")
    other = str(tmp_path / "tiny.vcd")
    run_test(cfg, build_test("t01_sanity_write_read", cfg, 1),
             vcd_path=other)
    with pytest.raises(ExtractionError):
        compare_vcds(paths["rtl"], other)


def test_waveview_renders_divergence(tmp_path):
    from repro.analyzer import compare_vcds, render_divergence, render_port_wave

    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="wave")
    rtl_path = str(tmp_path / "rtl.vcd")
    bca_path = str(tmp_path / "bca.vcd")
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="rtl",
             vcd_path=rtl_path)
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="bca",
             bugs={"lru-recency-stuck"}, vcd_path=bca_path)
    report = compare_vcds(rtl_path, bca_path)
    worst = report.worst_port()
    wave = render_divergence(rtl_path, bca_path, worst)
    assert wave is not None
    assert worst.port in wave
    assert "*" in wave  # divergences marked
    assert ":rtl" in wave and ":bca" in wave
    # Aligned ports render as None.
    aligned = [p for p in report.ports.values()
               if p.first_divergence is None]
    if aligned:
        assert render_divergence(rtl_path, bca_path, aligned[0]) is None
    # Direct window rendering works too.
    text = render_port_wave(rtl_path, bca_path, worst.port,
                            worst.first_divergence, window=3)
    assert "signal" in text


def test_analyzer_cli_wave_flag(tmp_path, capsys):
    from repro.analyzer.cli import main as analyzer_main

    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="wavecli")
    rtl_path = str(tmp_path / "rtl.vcd")
    bca_path = str(tmp_path / "bca.vcd")
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="rtl",
             vcd_path=rtl_path)
    run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view="bca",
             bugs={"lru-recency-stuck"}, vcd_path=bca_path)
    code = analyzer_main(["--wave", rtl_path, bca_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "divergences marked" in out
