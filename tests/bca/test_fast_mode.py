"""Fast (standalone) BCA mode vs the pin-level BCA co-simulation.

The fast mode claims *identical semantics* with no signal kernel; these
tests hold it to that: same programs => same per-transaction request/
response completion cycles as the monitors observe in the pin-level run.
"""

import pytest

from repro.bca.fast import FastBcaSim, run_fast
from repro.catg import VerificationEnv
from repro.regression.testcases import TESTCASES, build_test
from repro.stbus import (
    Architecture,
    ArbitrationPolicy,
    NodeConfig,
    ProtocolType,
)


def pin_level_timestamps(config, test):
    env = VerificationEnv(config, view="bca", with_arbitration_checker=False)
    env.load_test(test)
    result = env.run()
    assert result.passed, result.report.violations[:4]
    requests = []
    responses = []
    for monitor in env.monitors:
        if monitor.role != "initiator":
            continue
        for obs in monitor.requests:
            requests.append((monitor.index, obs.tid, obs.end_cycle))
        for obs in monitor.responses:
            responses.append((monitor.index, obs.r_tid, obs.end_cycle))
    return sorted(requests), sorted(responses)


def fast_timestamps(config, test):
    result = run_fast(config, test)
    assert not result.timed_out
    requests = sorted(
        (t.initiator, t.tid, t.request_end) for t in result.completed
    )
    responses = sorted(
        (t.initiator, t.tid, t.response_end) for t in result.completed
    )
    return requests, responses


CONFIGS = [
    NodeConfig(n_initiators=2, n_targets=2, name="fast-t2"),
    NodeConfig(n_initiators=3, n_targets=2, protocol_type=ProtocolType.T3,
               arbitration=ArbitrationPolicy.LRU, name="fast-t3-lru"),
    NodeConfig(n_initiators=2, n_targets=2,
               architecture=Architecture.SHARED_BUS, name="fast-shared"),
    NodeConfig(n_initiators=2, n_targets=3, pipe_depth=3,
               protocol_type=ProtocolType.T3,
               arbitration=ArbitrationPolicy.ROUND_ROBIN, name="fast-pipe3"),
    NodeConfig(n_initiators=4, n_targets=2,
               arbitration=ArbitrationPolicy.BANDWIDTH_LIMITED,
               name="fast-bw"),
    NodeConfig(n_initiators=3, n_targets=2,
               arbitration=ArbitrationPolicy.LATENCY_BASED,
               latency_budgets=[4, 8, 16], name="fast-latency"),
    # init1 has no path to targ0: t12_decode_errors reaches the error
    # engine through a blocked path as well as through unmapped holes.
    NodeConfig(n_initiators=2, n_targets=2,
               architecture=Architecture.PARTIAL_CROSSBAR,
               connectivity=frozenset({(0, 0), (0, 1), (1, 1)}),
               arbitration=ArbitrationPolicy.ROUND_ROBIN,
               name="fast-partial"),
    NodeConfig(n_initiators=3, n_targets=2,
               architecture=Architecture.SHARED_BUS,
               protocol_type=ProtocolType.T3,
               arbitration=ArbitrationPolicy.ROUND_ROBIN,
               name="fast-shared-t3"),
]

TESTS = ["t02_random_uniform", "t03_out_of_order", "t08_locked_chunks",
         "t12_decode_errors", "t10_hotspot"]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("test_name", TESTS)
def test_fast_mode_matches_pin_level_exactly(config, test_name):
    test_pin = build_test(test_name, config, seed=3)
    test_fast = build_test(test_name, config, seed=3)
    pin_req, pin_resp = pin_level_timestamps(config, test_pin)
    fast_req, fast_resp = fast_timestamps(config, test_fast)
    assert fast_req == pin_req
    assert fast_resp == pin_resp


def _blocked_path_test(config, seed):
    """t12_decode_errors with every other transaction of init1 sent to
    targ0, which init1 has no path to on ``fast-partial``: the error
    engine answers a mapped address, not only an unmapped one."""
    test = build_test("t12_decode_errors", config, seed)
    region = config.resolved_map.region_of(0)
    for k, (txn, _gap) in enumerate(test.programs[1]):
        if k % 2 == 0:
            txn.address = region.base + (k * txn.opcode.size) % region.size
    return test


def test_fast_mode_matches_pin_level_on_blocked_paths():
    config = next(c for c in CONFIGS if c.name == "fast-partial")
    assert not config.path_allowed(1, 0)
    pin_req, pin_resp = pin_level_timestamps(
        config, _blocked_path_test(config, 3))
    fast = run_fast(config, _blocked_path_test(config, 3))
    blocked = [t for t in fast.completed if t.initiator == 1
               and config.resolved_map.decode(t.address) == 0]
    assert blocked and all(t.is_error for t in blocked)
    assert sorted((t.initiator, t.tid, t.request_end)
                  for t in fast.completed) == pin_req
    assert sorted((t.initiator, t.tid, t.response_end)
                  for t in fast.completed) == pin_resp


def test_fast_mode_rejects_programming_port():
    config = NodeConfig(has_programming_port=True,
                        arbitration=ArbitrationPolicy.PROGRAMMABLE_PRIORITY)
    test = build_test("t07_priority_reprogramming", config, 1)
    with pytest.raises(ValueError):
        run_fast(config, test)
    with pytest.raises(ValueError):
        FastBcaSim(config, test.programs, test.target_latencies)


def test_fast_mode_reports_latency_and_throughput():
    config = NodeConfig(n_initiators=2, n_targets=2)
    result = run_fast(config, build_test("t02_random_uniform", config, 1))
    assert result.completed
    assert result.mean_latency() > 0
    assert 0 < result.throughput() < 1
    assert all(t.latency >= 2 for t in result.completed)


def test_fast_mode_error_responses_flagged():
    config = NodeConfig(n_initiators=2, n_targets=2)
    result = run_fast(config, build_test("t12_decode_errors", config, 1))
    assert any(t.is_error for t in result.completed)
    assert any(not t.is_error for t in result.completed)


def test_fast_mode_timeout_reported():
    config = NodeConfig(n_initiators=1, n_targets=1)
    test = build_test("t02_random_uniform", config, 1)
    sim = FastBcaSim(config, test.programs, test.target_latencies)
    result = sim.run(max_cycles=3)
    assert result.timed_out


def test_fast_result_percentiles_and_per_initiator():
    config = NodeConfig(n_initiators=2, n_targets=2)
    from repro.bca.fast import run_fast

    result = run_fast(config, build_test("t02_random_uniform", config, 1))
    p50 = result.latency_percentile(50)
    p95 = result.latency_percentile(95)
    p100 = result.latency_percentile(100)
    assert p50 <= p95 <= p100
    assert p100 == max(t.latency for t in result.completed)
    per_init = result.per_initiator_latency()
    assert set(per_init) == {0, 1}
    assert all(v > 0 for v in per_init.values())
    with pytest.raises(ValueError):
        result.latency_percentile(0)
    with pytest.raises(ValueError):
        result.latency_percentile(101)
