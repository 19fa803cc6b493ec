"""CATG — Checkers and Automatic Test Generation.

The reproduction of ST's 'e'-language verification library: harnesses
(BFM + memory target), monitors, protocol checkers, node-specific
arbitration checks, scoreboard, functional coverage, and the generic
testbench (:class:`VerificationEnv`) that plugs either design view in
unchanged.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "report": ("VerificationReport", "Violation"),
    "bfm": ("InitiatorBfm",),
    "target": ("TargetHarness", "default_byte"),
    "monitor": ("PortMonitor", "ObservedRequest", "ObservedResponse"),
    "checker": ("ProtocolChecker", "Type1Checker"),
    "node_checks": ("ArbitrationChecker",),
    "scoreboard": ("Scoreboard",),
    "coverage": ("CoverGroup", "CoverageModel", "NodeCoverageCollector",
                 "build_node_coverage"),
    "sequence": ("TestProgram", "ProgOp", "DEFAULT_MIX",
                 "random_transaction", "random_program",
                 "directed_write_read_pairs", "pick_kind"),
    "prog": ("ProgrammingMaster",),
    "env": ("VerificationEnv", "RunResult", "run_test", "VIEWS"),
    "code_coverage": ("CodeCoverage", "CodeCoverageReport"),
    "converter_env": ("ConverterEnv", "ConverterRunResult",
                      "BridgeScoreboard", "bridge_random_program",
                      "build_bridge_coverage"),
})
