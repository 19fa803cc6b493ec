"""Each entry's RTL/BCA coverage equality is computed once per batch."""

import os

from repro.catg.coverage import CoverageModel
from repro.regression.configs import load_config_dir
from repro.regression.runner import RegressionRunner
from repro.regression.spec import BatchSpec
from repro.regression.testcases import TESTCASES

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")


def test_full_coverage_batch_takes_two_signatures_per_entry(
        tmp_path, monkeypatch):
    config = next(c for c in load_config_dir(BENCH_CONFIGS)
                  if c.name.startswith("cfg14"))
    calls = []
    original = CoverageModel.hit_signature

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CoverageModel, "hit_signature", counted)
    report = RegressionRunner([config], BatchSpec(
        tests=sorted(TESTCASES), seeds=(1, 2), workdir=str(tmp_path))).run()
    text = report.render()
    config_report = report.configs[0]
    assert config_report.full_functional_coverage
    assert config_report.signed_off and report.all_signed_off
    assert "cov_eq=NO" not in text + config_report.render()
    assert len(config_report.entries) == 2 * len(TESTCASES)
    assert len(calls) == 2 * len(config_report.entries)
