"""CLI surface of the triage feature (analyzer and regression tools)."""

import json
import os

import pytest

from repro.analyzer.cli import main as analyzer_main
from repro.catg import run_test
from repro.regression import save_config_dir
from repro.regression.cli import main as regression_main
from repro.regression.testcases import build_test
from repro.stbus import ArbitrationPolicy, NodeConfig
from repro.triage import load_triage


@pytest.fixture(scope="module")
def buggy_pair(tmp_path_factory):
    """RTL vs bugged-BCA dumps named the way the runner names them,
    plus the saved *.cfg file."""
    workdir = tmp_path_factory.mktemp("triage_cli")
    cfg = NodeConfig(n_initiators=3, n_targets=2,
                     arbitration=ArbitrationPolicy.LRU, name="clibug")
    cfg_path = str(workdir / "clibug.cfg")
    with open(cfg_path, "w", encoding="utf-8") as handle:
        handle.write(cfg.to_text())
    paths = {"cfg": cfg_path}
    for view, bugs in (("rtl", ()), ("bca", ("lru-recency-stuck",))):
        path = str(workdir / f"clibug__t06_lru_fairness__s2__{view}.vcd")
        run_test(cfg, build_test("t06_lru_fairness", cfg, 2), view=view,
                 bugs=bugs, vcd_path=path)
        paths[view] = path
    return paths


def test_first_divergence_flag(buggy_pair, capsys):
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["bca"],
                          "--first-divergence"])
    out = capsys.readouterr().out
    assert code == 1
    assert "first divergence:" in out
    assert "@ cycle" in out
    # No --config: no suspect ranking, and no crash either.
    assert "suspects" not in out


def test_first_divergence_with_config_ranks_suspects(buggy_pair, capsys):
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["bca"],
                          "--first-divergence",
                          "--config", buggy_pair["cfg"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "suspects, cone-ranked:" in out
    assert "distance 0" in out


def test_first_divergence_on_identical_dumps(buggy_pair, capsys):
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["rtl"],
                          "--first-divergence"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no divergence" in out


def test_triage_out_writes_artifact(buggy_pair, tmp_path, capsys):
    out_path = str(tmp_path / "triage.json")
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["bca"],
                          "--triage-out", out_path,
                          "--config", buggy_pair["cfg"]])
    out = capsys.readouterr().out
    assert code == 1
    assert f"triage written: {out_path}" in out
    payload = load_triage(out_path)
    assert payload["schema_version"] == 1
    # Coordinates recovered from the runner-style file names.
    assert payload["config"] == "clibug"
    assert payload["test"] == "t06_lru_fairness"
    assert payload["seed"] == 2
    assert payload["reason"] == "manual"
    assert payload["suspects"]


def test_triage_out_requires_config(buggy_pair, tmp_path, capsys):
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["bca"],
                          "--triage-out", str(tmp_path / "t.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "--config" in err


def test_scoreboard_failed_pin_visible_divergence(buggy_pair, capsys):
    # The dumps do diverge: no diagnostic, the failure is pin-visible.
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["bca"],
                          "--scoreboard-failed"])
    out = capsys.readouterr().out
    assert code == 1
    assert "not pin-visible" not in out
    assert "NOT SIGNED OFF" in out


def test_scoreboard_failed_diagnostic_when_ports_match(buggy_pair, capsys):
    # Identical dumps + a failed external checker: the explicit
    # diagnostic replaces a silently clean alignment table, and the
    # verdict cannot be a sign-off.
    code = analyzer_main([buggy_pair["rtl"], buggy_pair["rtl"],
                          "--scoreboard-failed"])
    out = capsys.readouterr().out
    assert code == 1
    assert "divergence not pin-visible" in out
    assert "NOT SIGNED OFF" in out


def test_regression_cli_triage_flag(tmp_path, capsys):
    config_dir = str(tmp_path / "configs")
    save_config_dir(
        [NodeConfig(n_initiators=3, n_targets=2,
                    arbitration=ArbitrationPolicy.LRU, name="clibatch")],
        config_dir,
    )
    workdir = str(tmp_path / "out")
    code = regression_main([
        config_dir, "--workdir", workdir,
        "--tests", "t06_lru_fairness", "--seeds", "2",
        "--bugs", "lru-recency-stuck", "--triage",
    ])
    out = capsys.readouterr().out
    assert code == 1
    triage_file = os.path.join(
        workdir, "clibatch__t06_lru_fairness__s2__triage.json")
    assert os.path.exists(triage_file)
    payload = load_triage(triage_file)
    assert payload["verdict"] == "localized"
    # The per-config report artifact carries the Triage section.
    per_config = open(os.path.join(workdir, "clibatch__report.txt")).read()
    assert "Triage:" in per_config


def test_regression_cli_triage_needs_compare(tmp_path, capsys):
    config_dir = str(tmp_path / "configs")
    save_config_dir([NodeConfig(name="x")], config_dir)
    assert regression_main([config_dir, "--triage"]) == 2
    assert regression_main([
        config_dir, "--workdir", str(tmp_path / "o"),
        "--no-compare", "--triage"]) == 2
    err = capsys.readouterr().err
    assert "--triage" in err


def _count_calls(monkeypatch, func):
    """Route every loaded ``repro`` module's reference to ``func``
    through a counter; returns the list each call appends to."""
    import sys

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_every_view_reads_one_parse_of_each_dump(buggy_pair, tmp_path,
                                                  capsys, monkeypatch):
    """``--diff --wave --first-divergence --triage-out`` parses each
    dump once, walks them to the first divergence once and ranks the
    suspects once; the artifact is the one ``triage_entry`` writes."""
    import repro.analyzer.cli  # noqa: F401 - bind every parse_vcd name
    import repro.analyzer.diff  # noqa: F401
    import repro.analyzer.waveview  # noqa: F401
    from repro.triage import (
        find_first_divergence,
        rank_suspects,
        triage_entry,
    )
    from repro.vcd import parse_vcd

    args = [buggy_pair["rtl"], buggy_pair["bca"], "--diff", "--wave",
            "--first-divergence", "--config", buggy_pair["cfg"]]
    analyzer_main(args)
    reference_out = capsys.readouterr().out
    parses = _count_calls(monkeypatch, parse_vcd)
    scans = _count_calls(monkeypatch, find_first_divergence)
    rankings = _count_calls(monkeypatch, rank_suspects)
    out_path = str(tmp_path / "cli.triage.json")
    code = analyzer_main(args + ["--triage-out", out_path])
    out = capsys.readouterr().out
    assert code == 1
    assert (len(parses), len(scans), len(rankings)) == (2, 1, 1)
    assert out.startswith(reference_out.rsplit("verdict:", 1)[0])
    assert "Transaction-level diff:" in out
    assert "divergences marked '*'" in out
    monkeypatch.undo()
    ref_path = str(tmp_path / "entry.triage.json")
    triage_entry(
        NodeConfig.from_text(open(buggy_pair["cfg"]).read()),
        "t06_lru_fairness", 2, buggy_pair["rtl"], buggy_pair["bca"],
        reason="manual", out_path=ref_path,
    )
    with open(out_path) as got, open(ref_path) as want:
        assert got.read() == want.read()
