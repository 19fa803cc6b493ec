"""Unit tests for the functional coverage model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catg.coverage import (
    CoverGroup,
    CoverageModel,
    NodeCoverageCollector,
    build_node_coverage,
)
from repro.stbus import ERROR_TARGET, NodeConfig, ProtocolType


def test_covergroup_basic():
    group = CoverGroup("g", ["a", "b", "c"])
    assert group.n_bins == 3
    assert group.percent == 0.0
    group.sample("a")
    group.sample("a")
    assert group.n_covered == 1
    assert group.bins["a"] == 2
    assert set(group.holes()) == {"b", "c"}


def test_covergroup_ignores_out_of_space_samples():
    group = CoverGroup("g", ["a"])
    group.sample("zzz")
    assert group.n_covered == 0


def test_covergroup_empty_rejected():
    with pytest.raises(ValueError):
        CoverGroup("g", [])


def test_model_percent_aggregates():
    model = CoverageModel([CoverGroup("g1", ["a", "b"]),
                           CoverGroup("g2", ["x", "y"])])
    assert model.n_bins == 4
    model["g1"].sample("a")
    assert model.percent == 25.0
    assert "g2:x" in model.holes()


def test_model_merge_accumulates():
    a = CoverageModel([CoverGroup("g", ["x", "y"])])
    b = CoverageModel([CoverGroup("g", ["x", "y"])])
    a["g"].sample("x")
    b["g"].sample("y")
    a.merge(b)
    assert a.percent == 100.0
    assert a["g"].bins["y"] == 1


def test_hit_signature_ignores_counts():
    a = CoverageModel([CoverGroup("g", ["x", "y"])])
    b = CoverageModel([CoverGroup("g", ["x", "y"])])
    a["g"].sample("x")
    b["g"].sample("x")
    b["g"].sample("x")
    assert a.hit_signature() == b.hit_signature()
    b["g"].sample("y")
    assert a.hit_signature() != b.hit_signature()


def test_node_coverage_space_depends_only_on_config():
    cfg = NodeConfig(n_initiators=2, n_targets=3)
    assert build_node_coverage(cfg).n_bins == build_node_coverage(cfg).n_bins
    sig_a = tuple(sorted(build_node_coverage(cfg).groups))
    sig_b = tuple(sorted(build_node_coverage(cfg).groups))
    assert sig_a == sig_b


def test_node_coverage_t3_has_ordering_group():
    t2 = build_node_coverage(NodeConfig(protocol_type=ProtocolType.T2))
    t3 = build_node_coverage(NodeConfig(protocol_type=ProtocolType.T3))
    assert "ordering" not in t2.groups
    assert "ordering" in t3.groups


def test_node_coverage_programming_group_conditional():
    plain = build_node_coverage(NodeConfig())
    prog = build_node_coverage(NodeConfig(has_programming_port=True))
    assert "programming" not in plain.groups
    assert "programming" in prog.groups


def test_node_coverage_paths_respect_partial_crossbar():
    from repro.stbus import Architecture

    cfg = NodeConfig(
        architecture=Architecture.PARTIAL_CROSSBAR,
        n_initiators=2, n_targets=2,
        connectivity=frozenset({(0, 0), (0, 1), (1, 1)}),
    )
    model = build_node_coverage(cfg)
    assert "init1->targ0" not in model["path"].bins
    assert model["path"].n_bins == 3


def test_render_contains_percentages():
    model = build_node_coverage(NodeConfig())
    text = model.render()
    assert "Functional coverage" in text
    assert "opcode" in text


@given(st.sets(st.text(min_size=1, max_size=8), min_size=1, max_size=20),
       st.data())
def test_percent_bounds_property(bins, data):
    group = CoverGroup("g", bins)
    for _ in range(data.draw(st.integers(min_value=0, max_value=30))):
        group.sample(data.draw(st.sampled_from(sorted(bins))))
    assert 0.0 <= group.percent <= 100.0
    assert group.n_covered + len(group.holes()) == group.n_bins


def test_conflicts_count_routed_requests_on_a_partial_crossbar():
    """Conflict coverage counts each request at the target it is routed
    to.  On a partial crossbar a request on a blocked path goes to the
    error engine, so it contends with no one at its decoded target."""
    from repro.catg.monitor import PortMonitor
    from repro.kernel import Module, Simulator
    from repro.stbus import Architecture, StbusPort

    config = NodeConfig(n_initiators=2, n_targets=2,
                        architecture=Architecture.PARTIAL_CROSSBAR,
                        connectivity=frozenset({(0, 0), (1, 0), (1, 1)}))
    sim = Simulator()
    top = Module(sim, "rig")
    ports = [StbusPort(top, f"init{i}", 32) for i in range(2)]
    monitors = [PortMonitor(sim, f"mon{i}", port, "initiator", i,
                            route=config.route, parent=top)
                for i, port in enumerate(ports)]
    collector = NodeCoverageCollector(config)
    collector.connect(monitors)
    sim.elaborate()

    def cycle(address):
        for port in ports:
            port.req.drive(1)
            port.add.drive(address)
        sim._settle()
        sim.step()

    target1 = config.resolved_map.region_of(1).base
    assert config.route(0, target1) == ERROR_TARGET  # path 0->1 blocked
    cycle(target1)
    assert collector.model["conflict"].bins == {"solo": 1, "contended": 0}
    cycle(config.resolved_map.region_of(0).base)
    assert collector.model["conflict"].bins == {"solo": 1, "contended": 1}
