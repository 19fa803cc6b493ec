"""The static gates free the designs they elaborate by refcount alone.

A batch lints every configuration and builds an impact index over it
before any simulation runs; designs those gates leave in reference
cycles wait for the cyclic collector during the whole batch.
"""

import gc
import os

from repro.analysis.impact import ImpactIndex
from repro.lint import lint_config
from repro.regression.configs import load_config_dir

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")


def _no_cyclic_garbage_after(build):
    gc.collect()
    gc.disable()
    try:
        result = build()
        assert gc.collect() == 0
    finally:
        gc.enable()
    return result


def test_lint_config_leaves_no_cyclic_garbage():
    configs = load_config_dir(BENCH_CONFIGS)
    for config in configs:
        report = _no_cyclic_garbage_after(lambda: lint_config(config))
        assert report.clean and not report.cross_view, config.name


def test_impact_index_leaves_no_cyclic_garbage():
    configs = load_config_dir(BENCH_CONFIGS)
    index = _no_cyclic_garbage_after(lambda: ImpactIndex(configs))
    assert index.counters()["impact.designs"] == 2 * len(configs)
