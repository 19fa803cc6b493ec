"""The regression tool: configuration files, test cases, batch runner, flow."""

from .configs import configuration_matrix, load_config_dir, save_config_dir
from .testcases import TESTCASES, build_test
from .runner import (
    ConfigReport,
    RegressionReport,
    RegressionRunner,
    TestEntry,
)
from .flow import (
    CommonVerificationFlow,
    FlowEvent,
    FlowOutcome,
    FlowState,
)
from .parallel import RunJob, default_jobs, execute_run_job
from .resilience import BatchFaults, ResilienceConfig, RunFailure
from .distributed import DistributedBatchExecutor, DistributedConfig

__all__ = [
    "configuration_matrix",
    "load_config_dir",
    "save_config_dir",
    "TESTCASES",
    "build_test",
    "RegressionRunner",
    "RegressionReport",
    "ConfigReport",
    "TestEntry",
    "CommonVerificationFlow",
    "FlowState",
    "FlowEvent",
    "FlowOutcome",
    "RunJob",
    "default_jobs",
    "execute_run_job",
    "BatchFaults",
    "ResilienceConfig",
    "RunFailure",
    "DistributedBatchExecutor",
    "DistributedConfig",
]
