"""Self-check: every shipped regression topology must lint clean.

This is the guarantee the regression flow's lint gate rests on: all
configurations of the >36-configuration sweep, in both design views,
produce zero findings (errors *and* warnings), and the two views always
expose the identical port-level interface the common environment binds
to.  Any kernel, node-model or environment change that introduces a
structural defect — or a false positive in a rule — fails here.
"""

import pytest

from repro.lint import lint_config
from repro.regression.configs import configuration_matrix

MATRIX = configuration_matrix()


@pytest.mark.parametrize(
    "config", MATRIX, ids=[config.name for config in MATRIX]
)
def test_topology_lints_clean_in_both_views(config):
    result = lint_config(config)
    assert set(result.views) == {"rtl", "bca"}
    for view, report in sorted(result.views.items()):
        assert report.clean, (
            f"{config.name}/{view} has findings:\n{report.render()}"
        )
    assert not result.cross_view, (
        "RTL/BCA interface mismatch:\n"
        + "\n".join(f.render() for f in result.cross_view)
    )
    assert result.clean


def test_declarations_keep_every_rule_armed():
    """Every shipped env has clocked processes and declares their
    reads/writes, so undriven-input and dead-net run for real (they
    disable themselves otherwise)."""
    from repro.analysis.graph import DesignGraph
    from repro.catg.env import VerificationEnv

    for config in MATRIX:
        for view in ("rtl", "bca"):
            env = VerificationEnv(config, view=view)
            graph = DesignGraph.from_simulator(env.sim)
            assert graph.clocked, (config.name, view)
            assert graph.clocked_writes_known, (config.name, view)
            assert graph.clocked_reads_known, (config.name, view)
            assert not graph.traced, (config.name, view)
            env.sim.finish()
