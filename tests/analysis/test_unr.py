"""Coverage-unreachability verdicts against the full bin universe.

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
from repro.catg.coverage import build_node_coverage
from repro.regression.configs import configuration_matrix
from repro.stbus import NodeConfig, ProtocolType
from repro.stbus.config import Architecture
from repro.stbus.routing import AddressMap, Region


def _verdict(report, group, bin_name):
    verdict = report.verdict_for(group, bin_name)
    assert verdict is not None, f"no verdict for {group}:{bin_name}"
    return verdict


def test_stock_config_proves_the_pruned_bins_unreachable():
    # The acceptance case: the stock node (T2, no programming port)
    # prunes ordering:* and programming:* from its model; the engine must
    # prove them unreachable independently, with the blocking constant.
    report = analyze_unreachability(NodeConfig())
    programming = _verdict(report, "programming", "write")
    assert programming.verdict == UNREACHABLE
    assert not programming.in_model
    assert "tb.prog.req = 0" in programming.reason  # the blocking constant
    ordering = _verdict(report, "ordering", "out_of_order")
    assert ordering.verdict == UNREACHABLE
    assert "protocol_type=T2" in ordering.reason
    # in_order IS reachable (group-level pruning, not bin unreachability).
    assert _verdict(report, "ordering", "in_order").verdict == REACHABLE
    # And nothing the model keeps may be unreachable.
    assert report.model_unreachable() == []
    assert len(report.pruning_validated()) == 3


def test_every_in_model_bin_is_proven_or_unknown_never_unreachable():
    for config in (
        NodeConfig(),
        NodeConfig(protocol_type=ProtocolType.T3, name="t3"),
        NodeConfig(has_programming_port=True, name="prog"),
        NodeConfig(data_width_bits=8, name="w8"),
        NodeConfig(data_width_bits=128, name="w128"),
        NodeConfig(n_initiators=1, name="solo"),
    ):
        report = analyze_unreachability(config)
        assert report.model_unreachable() == [], config.name
        assert report.findings() == []


def test_full_universe_covers_the_model():
    # Every bin of the pruned model has a verdict (the universe is a
    # superset of any configuration's model).
    config = NodeConfig(protocol_type=ProtocolType.T3,
                        has_programming_port=True, name="big")
    report = analyze_unreachability(config)
    keys = {v.key for v in report.verdicts}
    model = build_node_coverage(config)
    for group_name, group in model.groups.items():
        for bin_name in group.bins:
            assert f"{group_name}:{bin_name}" in keys


def test_wide_bus_blocks_long_packets():
    report = analyze_unreachability(NodeConfig(data_width_bits=128,
                                               name="w128"))
    verdict = _verdict(report, "request_len", "16")
    assert verdict.verdict == UNREACHABLE
    assert not verdict.in_model
    assert "64 bytes" in verdict.reason
    assert _verdict(report, "request_len", "4").verdict == REACHABLE


def test_byte_bus_has_no_partial_enable():
    report = analyze_unreachability(NodeConfig(data_width_bits=8, name="w8"))
    verdict = _verdict(report, "be", "partial")
    assert verdict.verdict == UNREACHABLE
    assert "1 bit wide" in verdict.reason  # the value-range argument


def test_single_initiator_cannot_contend():
    report = analyze_unreachability(NodeConfig(n_initiators=1, name="solo"))
    verdict = _verdict(report, "conflict", "contended")
    assert verdict.verdict == UNREACHABLE
    assert "single-initiator" in verdict.reason


def test_programming_port_present_makes_bins_reachable():
    report = analyze_unreachability(NodeConfig(has_programming_port=True,
                                               name="prog"))
    verdict = _verdict(report, "programming", "write")
    assert verdict.verdict == REACHABLE
    assert verdict.in_model


def test_fully_mapped_address_space_is_proven_unreachable():
    # One region covering all 2^32 addresses, reachable by every
    # initiator: the interval union leaves no gap, so no address can
    # produce a decode error — a proof, not a sample.
    config = NodeConfig(
        n_targets=1,
        address_map=AddressMap([Region(0, 1 << 32, 0)]),
        name="fullmap",
    )
    report = analyze_unreachability(config)
    for group in ("decode", "response"):
        verdict = _verdict(report, group, "error")
        assert verdict.verdict == UNREACHABLE
        assert "interval-coverage proof" in verdict.reason
        assert verdict.in_model
    assert report.counts()[UNKNOWN] == 0
    # Both bins stay in the model, so each is a model-bug finding.
    assert sorted(f.process for f in report.findings()) == [
        "coverage:decode:error", "coverage:response:error",
    ]


def test_render_and_dict_roundtrip():
    report = analyze_unreachability(NodeConfig())
    text = report.render()
    assert "UNR analysis" in text
    assert "pruning validated" in text
    data = report.to_dict()
    assert data["schema_version"] == 1
    assert data["n_bins"] == len(report.verdicts)
    assert data["unreachable"] == 3
    assert data["model_unreachable"] == []


def test_constants_sharpen_programming_verdict():
    # With an elaborated environment, the blocking net comes from the
    # constant engine rather than the configuration-level argument.
    from repro.analysis.constants import derive_constants
    from repro.catg.env import VerificationEnv
    from repro.lint.graph import DesignGraph

    config = NodeConfig()
    env = VerificationEnv(config, view="rtl")
    constants = derive_constants(DesignGraph.from_simulator(env.sim))
    report = analyze_unreachability(config, constants=constants)
    assert _verdict(report, "programming", "write").verdict == UNREACHABLE


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


def test_reachable_error_bins_carry_witness_vectors():
    """The UNR pass attaches a stimulus vector to the reachable
    decode-error bins."""
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
def test_small_matrix_is_unknown_free(config):
    """Every matrix configuration is decided: no bin is UNKNOWN."""
    assert analyze_unreachability(config).counts()[UNKNOWN] == 0
