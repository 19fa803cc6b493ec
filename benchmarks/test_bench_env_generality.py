"""E6 — Figures 2 and 6: one generic testbench architecture for any DUT.

"The architecture of the test bench is standard ... All the gray
components are written in 'e' code and the DUT can be RTL or BCA."
Figure 6 instantiates it around a node with three initiators and two
targets (plus a programming initiator).

Regenerated: the same :class:`~repro.catg.env.VerificationEnv` code
builds and passes around every DUT shape — the Figure 6 node, wide nodes,
both architectures, either design view — without any per-DUT testbench
code.  The run matrix below is the "table" this figure implies.
"""

import pytest

from repro.catg import VerificationEnv, run_test
from repro.regression.testcases import build_test
from repro.stbus import (
    Architecture,
    ArbitrationPolicy,
    NodeConfig,
    ProtocolType,
)

SHAPES = [
    # The exact Figure 6 testbench: 3 initiators, 2 targets, programming
    # initiator driving the arbitration registers.
    NodeConfig(n_initiators=3, n_targets=2,
               arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY,
               has_programming_port=True, name="figure6"),
    NodeConfig(n_initiators=1, n_targets=1, name="minimal"),
    NodeConfig(n_initiators=8, n_targets=4,
               arbitration=ArbitrationPolicy.ROUND_ROBIN, name="wide8x4"),
    NodeConfig(n_initiators=2, n_targets=2, data_width_bits=128,
               name="w128"),
    NodeConfig(n_initiators=2, n_targets=2,
               architecture=Architecture.SHARED_BUS, name="shared"),
    NodeConfig(n_initiators=3, n_targets=3,
               architecture=Architecture.PARTIAL_CROSSBAR,
               connectivity=frozenset(
                   {(i, t) for i in range(3) for t in range(3)} - {(2, 0)}
               ),
               protocol_type=ProtocolType.T3, name="partial3x3"),
]


def generality_experiment():
    rows = []
    for config in SHAPES:
        for view in ("rtl", "bca"):
            test = build_test("t02_random_uniform", config, 9)
            result = run_test(config, test, view=view)
            rows.append((config.name, view, result.passed,
                         result.cycles, len(result.report.violations)))
    return rows


def test_e6_one_env_fits_every_dut_shape(benchmark):
    rows = benchmark.pedantic(generality_experiment, rounds=1, iterations=1)
    print()
    print(f"[E6] {'configuration':<14} {'view':<5} {'result':<7} cycles")
    for name, view, passed, cycles, violations in rows:
        print(f"     {name:<14} {view:<5} "
              f"{'PASS' if passed else 'FAIL':<7} {cycles}")
        assert passed, (name, view, violations)
    print(f"[E6] {len(SHAPES)} DUT shapes x 2 views, zero per-DUT "
          "testbench code — the Figure 2 architecture is generic")


def test_e6_env_component_count_scales_with_ports(benchmark):
    """The env instantiates one eVC stack (monitor+checker) per port,
    automatically, whatever the configuration says."""

    def build_envs():
        small = VerificationEnv(SHAPES[1])
        big = VerificationEnv(SHAPES[2])
        return small, big

    small, big = benchmark.pedantic(build_envs, rounds=1, iterations=1)
    assert len(small.monitors) == 2 and len(small.checkers) == 2
    assert len(big.monitors) == 12 and len(big.checkers) == 12
    assert small.prog_master is None
    fig6 = VerificationEnv(SHAPES[0])
    assert fig6.prog_master is not None  # Figure 6's programming initiator


def test_e6_catg_covers_converter_duts(benchmark, tmp_path):
    """CATG is "aimed to test component[s] having STBus interfaces" — the
    same :class:`~repro.catg.env.VerificationEnv` (BFM/monitors/checkers,
    run loop, end rule, VCD dump) also wraps the converter DUTs, in both
    views, and their dumps are bus-identical across the views."""
    from repro.analyzer.align import compare_vcds
    from repro.catg import ConverterEnv, bridge_random_program

    def experiment():
        rows = []
        cases = [
            ("size", dict(up_width=32, down_width=8)),
            ("size", dict(up_width=8, down_width=64)),
            ("type", dict(up_protocol=ProtocolType.T2)),
            ("type", dict(up_protocol=ProtocolType.T3)),
        ]
        for case, (kind, kwargs) in enumerate(cases):
            results = {}
            for view in ("rtl", "bca"):
                env = ConverterEnv(
                    kind, view=view,
                    vcd_path=str(tmp_path / f"case{case}.{view}.vcd"),
                    **kwargs,
                )
                env.load_test(
                    bridge_random_program(11, 15, env.up_port.bus_bytes))
                results[view] = env.run()
            alignment = compare_vcds(results["rtl"].vcd_path,
                                     results["bca"].vcd_path)
            rows.append((kind, kwargs, results, alignment.identical))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    for kind, kwargs, results, identical in rows:
        label = f"{kind}({', '.join(f'{k}={v}' for k, v in kwargs.items())})"
        for view, result in results.items():
            print(f"[E6] {label:<42} {view:<4} "
                  f"{'PASS' if result.passed else 'FAIL'} "
                  f"cov={result.coverage.percent:.0f}% "
                  f"cycles={result.cycles}")
            assert result.passed, (label, view)
        print(f"[E6] {label:<42} rtl/bca dumps "
              f"{'identical' if identical else 'DIFFER'}")
        assert identical, label
    print("[E6] the generic architecture also verifies the converter "
          "components, with bus-identical RTL/BCA dumps — no per-DUT "
          "testbench rewrite")
