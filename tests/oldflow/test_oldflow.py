"""Past-flow baseline tests: it works, and it is blind to the BCA bugs."""

import pytest

from repro.bca import ALL_BUGS
from repro.oldflow import run_past_flow
from repro.stbus import ArbitrationPolicy, NodeConfig, ProtocolType


def hunt_config(**kwargs):
    defaults = dict(
        n_initiators=6, n_targets=2, arbitration=ArbitrationPolicy.LRU,
        has_programming_port=True, name="hunt",
    )
    defaults.update(kwargs)
    return NodeConfig(**defaults)


def test_past_flow_passes_clean_models():
    cfg = hunt_config()
    for view in ("rtl", "bca"):
        result = run_past_flow(cfg, view=view)
        assert result.passed, result.mismatches
        assert result.n_pairs > 0
        assert "PASS" in result.summary()


@pytest.mark.parametrize("bug", sorted(ALL_BUGS))
def test_past_flow_misses_every_seeded_bug(bug):
    """Section 5's negative result: the old environment finds none of
    the five BCA bugs."""
    result = run_past_flow(hunt_config(), view="bca", bugs={bug})
    assert result.passed, (
        f"past flow unexpectedly detected {bug}: {result.mismatches}"
    )


def test_past_flow_does_detect_gross_data_corruption():
    """Sanity: the old check is not a no-op — it does catch a bug that
    corrupts full-width data on its single path."""

    from repro.bca.core import BcaCore
    from repro.oldflow.basic_tb import PastFlowTestbench
    from dataclasses import replace

    class GrossCore(BcaCore):
        def _forward_cell(self, cell, initiator):
            fwd = super()._forward_cell(cell, initiator)
            return replace(fwd, data=fwd.data ^ 0xFF)

    cfg = hunt_config()
    tb = PastFlowTestbench(cfg, view="bca")
    tb.dut.core.__class__ = GrossCore
    tb.build_program()
    result = tb.run()
    assert not result.passed
    assert result.mismatches


def test_past_flow_t3_also_works():
    cfg = hunt_config(protocol_type=ProtocolType.T3)
    assert run_past_flow(cfg, view="bca").passed
