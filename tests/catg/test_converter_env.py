"""Converter verification environment tests."""

import os

import pytest

from repro.catg.converter_env import (
    ConverterEnv,
    bridge_random_program,
    build_bridge_coverage,
)
from repro.stbus import ProtocolType


@pytest.mark.parametrize("view", ["rtl", "bca"])
@pytest.mark.parametrize("kind,kwargs", [
    ("size", dict(up_width=32, down_width=8)),
    ("size", dict(up_width=8, down_width=64)),
    ("type", dict(up_protocol=ProtocolType.T2)),
    ("type", dict(up_protocol=ProtocolType.T3)),
], ids=["down32to8", "up8to64", "t2t3", "t3t2"])
def test_converter_env_green_on_clean_duts(view, kind, kwargs):
    env = ConverterEnv(kind, view=view, **kwargs)
    env.load_test(bridge_random_program(7, 20, env.up_port.bus_bytes))
    result = env.run()
    assert result.passed, result.report.violations[:4]
    assert env.scoreboard.matched_requests == 20
    assert env.scoreboard.matched_responses == 20
    assert result.coverage.percent > 50.0
    assert "PASS" in result.summary()
    assert result.config_name == f"{kind}conv"


def test_converter_env_coverage_accumulates():
    merged = None
    for seed in range(10):
        # One run uses an error-injecting target so the response:error
        # bin is reachable (the converter itself never errs on clean
        # traffic).
        env = ConverterEnv("size", up_width=32, down_width=8,
                           target_error_rate=0.3 if seed == 0 else 0.0)
        env.load_test(bridge_random_program(seed, 40, 4))
        result = env.run()
        assert result.passed, result.report.violations[:4]
        if merged is None:
            merged = result.coverage
        else:
            merged.merge(result.coverage)
    assert merged.percent == 100.0, merged.holes()


def test_target_error_injection_is_deterministic_and_flagged():
    env = ConverterEnv("size", up_width=32, down_width=8,
                       target_error_rate=1.0)
    env.load_test(bridge_random_program(1, 5, 4))
    result = env.run()
    # Everything errors, but the transformation is still correct, so the
    # environment stays green and the error bin is full.
    assert result.passed, result.report.violations[:4]
    assert result.coverage["response"].bins["error"] == 5
    assert result.coverage["response"].bins["ok"] == 0


def test_converter_env_catches_broken_bridge():
    """A hand-broken bridge (drops the lck flag when repacking) must be
    flagged by the transformation scoreboard."""
    from repro.rtl.converter import RtlSizeConverter

    class LckDroppingConverter(RtlSizeConverter):
        def _absorb_upstream_request(self):
            super()._absorb_upstream_request()
            if self._req_queue:
                for cell in self._req_queue[-1]:
                    cell.lck = 0

    env = ConverterEnv("size", up_width=32, down_width=8,
                       dut_cls=LckDroppingConverter)
    test = bridge_random_program(3, 10, 4)
    # Force at least one chunked packet (pairs stay on the one link).
    test.programs[0][2][0].lck = 1
    env.load_test(test)
    result = env.run()
    assert not result.passed
    assert any(v.rule == "SBC_REQ_TRANSFORM"
               for v in result.report.violations)


def test_converter_env_catches_tid_scramble():
    """A bridge that remaps tids non-sequentially breaks the prediction."""
    from repro.rtl.converter import RtlSizeConverter

    class TidScrambler(RtlSizeConverter):
        def _absorb_upstream_request(self):
            super()._absorb_upstream_request()
            if self._req_queue:
                for cell in self._req_queue[-1]:
                    cell.tid = (cell.tid + 7) & 0xFF

    env = ConverterEnv("size", up_width=32, down_width=8,
                       dut_cls=TidScrambler)
    env.load_test(bridge_random_program(5, 6, 4))
    result = env.run()
    assert not result.passed


def test_converter_dropping_a_response_times_out():
    """A bridge that loses an upstream response never drains: the run
    ends at the test's cycle budget and the scoreboard names the
    response."""
    from repro.rtl.converter import RtlSizeConverter

    class ResponseDropper(RtlSizeConverter):
        def _queue_response(self, cells):
            if self.stats["responses"] != 3:
                super()._queue_response(cells)

    env = ConverterEnv("size", up_width=32, down_width=8,
                       dut_cls=ResponseDropper)
    test = bridge_random_program(2, 6, 4)
    env.load_test(test)
    result = env.run()
    assert result.status == "TIMEOUT"
    assert result.cycles == test.max_cycles + test.drain_cycles
    stuck = [v for v in result.report.violations if v.rule == "SBC_RESP_STUCK"]
    assert len(stuck) == 1 and "never delivered upstream" in stuck[0].message


def test_converter_run_raising_mid_simulation_leaves_no_temp_vcd(tmp_path):
    """A converter process that raises after the VCD is open fails the
    run, which removes the half-written dump with its handle closed."""
    from repro.rtl.converter import RtlSizeConverter

    class FailingConverter(RtlSizeConverter):
        calls = 0

        def _clk(self):
            FailingConverter.calls += 1
            if FailingConverter.calls == 21:
                raise RuntimeError("converter failed mid-run")
            super()._clk()

    env = ConverterEnv("size", dut_cls=FailingConverter,
                       vcd_path=str(tmp_path / "sizeconv.rtl.vcd"))
    env.load_test(bridge_random_program(1, 10, 4))
    with pytest.raises(RuntimeError, match="converter failed mid-run"):
        env.run()
    assert os.listdir(tmp_path) == []


def test_converter_env_parameter_validation():
    with pytest.raises(ValueError):
        ConverterEnv("router")
    with pytest.raises(ValueError):
        ConverterEnv("size", view="gate")


def test_bridge_coverage_space_shape():
    with_lanes = build_bridge_coverage(4, 1)
    byte_bus = build_bridge_coverage(1, 4)
    assert "be" in with_lanes.groups
    assert "be" not in byte_bus.groups
    assert "opcode" in with_lanes.groups
