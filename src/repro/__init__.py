"""repro — a common reusable verification environment for BCA and RTL models.

A from-scratch Python reproduction of the DATE'04/05 paper by Falconeri,
Naifer and Romdhane (STMicroelectronics): one verification environment —
constrained-random BFMs, monitors, protocol checkers, scoreboard,
functional coverage — applied unchanged to both the RTL and the BCA view
of STBus interconnect components, a regression tool that runs the same
seeded suite on both, and a bus analyzer that checks the two views stay
cycle-aligned (99% per port for BCA sign-off).

Package map
-----------

=====================  =====================================================
``repro.kernel``        cycle-based simulation kernel (signals, scheduler)
``repro.stbus``         protocol spec: opcodes, packets, interfaces, config
``repro.rtl``           RTL view: node, converters, register decoder
``repro.bca``           BCA view of the same components + seeded bugs
``repro.catg``          the verification library and generic testbench
``repro.vcd``           VCD writer/parser
``repro.analyzer``      STBus Analyzer: alignment rates, transaction diff
``repro.regression``    regression tool: configs, 12 test cases, flow
``repro.oldflow``       the past-flow baseline testbench
=====================  =====================================================

Quick start::

    from repro import NodeConfig, run_test, build_test

    config = NodeConfig(n_initiators=3, n_targets=2)
    result = run_test(config, build_test("t02_random_uniform", config, 1))
    assert result.passed
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "stbus": ("NodeConfig", "Architecture", "ArbitrationPolicy",
              "ProtocolType", "Opcode", "OpKind", "Transaction",
              "AddressMap", "Region"),
    "catg": ("VerificationEnv", "RunResult", "run_test"),
    "regression": ("BatchSpec", "RegressionRunner", "CommonVerificationFlow",
                   "TESTCASES", "build_test", "configuration_matrix"),
    "analyzer": ("compare_vcds", "diff_transactions"),
    "oldflow": ("run_past_flow",),
    "bca": ("ALL_BUGS", "BUG_CATALOG"),
})
__all__ += ["__version__"]
