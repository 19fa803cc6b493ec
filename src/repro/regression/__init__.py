"""The regression tool: configuration files, test cases, batch runner, flow."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "configs": ("configuration_matrix", "load_config_dir", "save_config_dir"),
    "testcases": ("TESTCASES", "build_test"),
    "spec": ("BatchSpec", "BatchSpecError", "ResilienceConfig"),
    "runner": ("RegressionRunner", "GateResult", "RegressionReport",
               "ConfigReport", "TestEntry"),
    "flow": ("CommonVerificationFlow", "FlowState", "FlowEvent",
             "FlowOutcome"),
    "parallel": ("RunJob", "default_jobs", "execute_run_job"),
    "resilience": ("BatchFaults", "RunFailure"),
    "distributed": ("DistributedBatchExecutor",),
})
