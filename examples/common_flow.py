#!/usr/bin/env python3
"""The common verification flow of Figures 4 and 5, end to end.

Starts from a configuration whose first BCA drop carries a bug, and walks
the paper's flow: verification implementation → RTL + BCA verification
with the same seeded suite → (checkers fail → fix the BCA → re-verify) →
full functional coverage → bus-accurate comparison → 99% alignment on
every port → BCA sign-off.  RTL code coverage (line/branch/statement) is
collected along the way — the metric the paper can only obtain on the RTL
view.

Run:  python examples/common_flow.py
"""

import tempfile

from repro import (
    ArbitrationPolicy,
    BatchSpec,
    CommonVerificationFlow,
    NodeConfig,
    ProtocolType,
)
from repro.catg import CodeCoverage


def main() -> None:
    config = NodeConfig(
        name="flow_demo",
        protocol_type=ProtocolType.T3,
        n_initiators=3,
        n_targets=2,
        arbitration=ArbitrationPolicy.LRU,
    )
    # Every VCD and report of the flow goes to a temp dir removed on exit.
    with tempfile.TemporaryDirectory(prefix="repro_flow_") as workdir:
        print(f"Configuration {config.name}; artifacts in {workdir}\n")

        # The first BCA drop ships with the stuck-LRU bug; the flow must
        # catch it, loop back ("fix the BCA model"), and then sign off.
        flow = CommonVerificationFlow(config, BatchSpec(
            tests=["t02_random_uniform", "t03_out_of_order",
                   "t06_lru_fairness"],
            seeds=(1, 2),
            workdir=workdir,
            bca_bugs=("lru-recency-stuck",),
        ))
        with CodeCoverage() as tracer:
            outcome = flow.execute()
        print(outcome.render())

        report = outcome.final_report
        print("Final regression state:")
        print(report.render())

        print("RTL code coverage across the whole flow "
              "(the BCA view, like SystemC in 2004, reports none):")
        print(tracer.report().render())


if __name__ == "__main__":
    main()
