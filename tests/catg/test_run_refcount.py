"""A finished run is freed by reference counting alone.

A batch runs hundreds of short simulations in one process.  Any
reference cycle a run leaves behind waits for the cyclic collector, so
peak memory would follow garbage-collection timing instead of the work.
"""

import gc
import os
import weakref

import pytest

from repro.catg.converter_env import ConverterEnv, bridge_random_program
from repro.catg.env import VerificationEnv
from repro.regression.configs import load_config_dir
from repro.regression.testcases import build_test

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")


@pytest.mark.parametrize("view", ["rtl", "bca"])
def test_finished_run_leaves_no_cyclic_garbage(tmp_path, view):
    configs = load_config_dir(BENCH_CONFIGS)
    assert len(configs) == 6
    gc.collect()
    gc.disable()
    try:
        for config in configs:
            env = VerificationEnv(
                config, view=view,
                vcd_path=str(tmp_path / f"{config.name}.{view}.vcd"),
            )
            env.load_test(build_test("t01_sanity_write_read", config, 1))
            sim_ref = weakref.ref(env.sim)
            dut_ref = weakref.ref(env.dut)
            result = env.run()
            del env
            assert sim_ref() is None, config.name
            assert dut_ref() is None, config.name
            assert gc.collect() == 0, config.name
            assert result.passed and result.kernel_stats["vcd_bytes"] > 0
    finally:
        gc.enable()


@pytest.mark.parametrize("view", ["rtl", "bca"])
@pytest.mark.parametrize("kind", ["size", "type"])
def test_finished_converter_run_leaves_no_cyclic_garbage(tmp_path, kind,
                                                         view):
    gc.collect()
    gc.disable()
    try:
        env = ConverterEnv(kind, view=view,
                           vcd_path=str(tmp_path / f"{kind}.{view}.vcd"))
        env.load_test(bridge_random_program(1, 10, env.up_port.bus_bytes))
        sim_ref = weakref.ref(env.sim)
        dut_ref = weakref.ref(env.dut)
        result = env.run()
        del env
        assert sim_ref() is None
        assert dut_ref() is None
        assert gc.collect() == 0
        assert result.passed and result.kernel_stats["vcd_bytes"] > 0
    finally:
        gc.enable()
