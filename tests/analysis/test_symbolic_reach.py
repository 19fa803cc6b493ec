"""The exact decode-error argument of the UNR pass: zero UNKNOWN,
concrete witnesses.

:func:`repro.analysis.unr.analyze_unreachability` decides the
``decode:error`` / ``response:error`` bins with an interval union over
the resolved address map: either the union leaves a gap (a concrete
witness address, recorded as a structured stimulus vector), a region's
target is path-masked for every initiator (a witness too), or the map
provably covers the whole space (an UNREACHABLE proof naming the region
count).  There is no third verdict.
"""

import pytest

from repro.analysis.unr import (
    REACHABLE,
    UNKNOWN,
    UNREACHABLE,
    analyze_unreachability,
    coverage_gaps,
)
from repro.regression.configs import configuration_matrix
from repro.stbus import AddressMap, NodeConfig, Region
from repro.stbus.config import Architecture

FULL_COVER = AddressMap([
    Region(base=0, size=1 << 31, target=0),
    Region(base=1 << 31, size=1 << 31, target=1),
])


def _decode_error(config):
    return analyze_unreachability(config).verdict_for("decode", "error")


def test_default_map_gap_yields_witness():
    config = NodeConfig()
    report = analyze_unreachability(config)
    for group in ("decode", "response"):
        verdict = report.verdict_for(group, "error")
        assert verdict.verdict == REACHABLE
        assert verdict.reason.startswith("proven: interval union")
        witness = verdict.witness
        assert witness is not None
        assert set(witness) == {"initiator", "opcode", "address", "expect"}
        assert witness["expect"]
        address = int(witness["address"], 16)
        assert config.resolved_map.decode(address) is None


def test_full_coverage_map_is_proven_unreachable():
    config = NodeConfig(address_map=FULL_COVER, name="cover")
    verdict = _decode_error(config)
    assert verdict.verdict == UNREACHABLE
    assert verdict.witness is None
    assert "witness" not in verdict.to_dict()
    assert "interval-coverage proof" in verdict.reason
    assert "2 region(s)" in verdict.reason


def test_path_masked_region_stays_reachable():
    """Full address coverage does not kill the bin when some region is
    reachable by no initiator: a request there still errors."""
    config = NodeConfig(
        architecture=Architecture.PARTIAL_CROSSBAR,
        connectivity=frozenset({(0, 0), (1, 0), (1, 1)}),
        address_map=FULL_COVER,
        name="masked",
    )
    # Both targets are reachable by *someone*, so the config is legal,
    # but nothing masks a region entirely here -> exact proof holds.
    assert _decode_error(config).verdict == UNREACHABLE


def test_coverage_gaps_complement():
    gaps = coverage_gaps(NodeConfig().resolved_map)
    assert gaps  # the default map covers a sliver of the space
    map_ = NodeConfig().resolved_map
    for start, end in gaps:
        assert start < end
        assert map_.decode(start) is None
        assert map_.decode(end - 1) is None
    assert not coverage_gaps(FULL_COVER)


def test_upgrade_attaches_witness_vectors_to_reachable_bins():
    """The plain pass attaches a stimulus vector to the reachable
    decode-error bins; no separate upgrade pass is needed."""
    config = NodeConfig()
    report = analyze_unreachability(config)
    assert report.counts()[UNKNOWN] == 0
    witnessed = [v for v in report.verdicts if v.witness is not None]
    assert {v.key for v in witnessed} == {"decode:error", "response:error"}
    for verdict in witnessed:
        assert verdict.verdict == REACHABLE
        assert verdict.witness["expect"]
        # The witness address must be bus-aligned legal stimulus.
        assert int(verdict.witness["address"], 16) % config.bus_bytes == 0
        # And serialization carries it.
        assert verdict.to_dict()["witness"] == verdict.witness


@pytest.mark.parametrize(
    "config", configuration_matrix(small=True),
    ids=[c.name for c in configuration_matrix(small=True)],
)
def test_matrix_is_unknown_free_after_upgrade(config):
    """Every matrix configuration is decided on the plain pass."""
    assert analyze_unreachability(config).counts()[UNKNOWN] == 0
