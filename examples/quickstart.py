#!/usr/bin/env python3
"""Quickstart: one node, one test, both design views, full comparison.

This is the shortest end-to-end tour of the common verification
environment:

1. describe a node configuration (the "HDL parameters"),
2. run the same seeded random test on the RTL view and the BCA view,
3. check every quality metric the paper uses — checkers/scoreboard pass,
   functional coverage equality, and the bus analyzer's per-port cycle
   alignment rate (99% sign-off threshold).

Run:  python examples/quickstart.py
"""

import tempfile
import os

from repro import (
    ArbitrationPolicy,
    NodeConfig,
    ProtocolType,
    build_test,
    compare_vcds,
    run_test,
)


def main() -> None:
    # 1. The DUT configuration: a Type III node, 3 initiators, 2 targets,
    #    32-bit datapath, LRU arbitration.
    config = NodeConfig(
        name="quickstart",
        protocol_type=ProtocolType.T3,
        n_initiators=3,
        n_targets=2,
        data_width_bits=32,
        arbitration=ArbitrationPolicy.LRU,
    )
    print(f"Node configuration:\n{config.to_text()}")

    # The VCDs go to a temp dir removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro_quickstart_") as workdir:
        run_and_compare(config, workdir)


def run_and_compare(config: NodeConfig, workdir: str) -> None:
    results = {}
    for view in ("rtl", "bca"):
        # 2. Same test case, same seed, different design view.  The test
        #    program is rebuilt per run so both views get identical
        #    stimulus (the factories are deterministic in (config, seed)).
        test = build_test("t02_random_uniform", config, seed=42)
        vcd_path = os.path.join(workdir, f"{view}.vcd")
        result = run_test(config, test, view=view, vcd_path=vcd_path)
        results[view] = result
        print(result.summary())
        if not result.passed:
            print(result.report.render())

    # 3a. Functional coverage must be identical across views.
    rtl, bca = results["rtl"], results["bca"]
    same_coverage = rtl.coverage.hit_signature() == bca.coverage.hit_signature()
    print(f"\nfunctional coverage equal across views: {same_coverage}")
    print(rtl.coverage.render())

    # 3b. Bus-accurate comparison (the STBus Analyzer).
    report = compare_vcds(rtl.vcd_path, bca.vcd_path)
    print(report.render())
    print(f"BCA sign-off: {report.signed_off} "
          f"(min port rate {report.min_rate * 100:.2f}%)")
    print(f"\nartifacts written to {workdir} (removed on exit)")


if __name__ == "__main__":
    main()
