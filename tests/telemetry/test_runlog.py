"""Structured JSON-lines run logging."""

import io
import json

from repro.telemetry import NULL_LOG, RunLogger


def _fixed_clock():
    return 1234.5


def test_stream_sink_emits_one_json_object_per_line():
    stream = io.StringIO()
    logger = RunLogger(stream=stream, _clock=_fixed_clock)
    logger.log("batch.start", jobs=2)
    logger.log("batch.complete", ok=True)
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"event": "batch.start", "ts": 1234.5, "jobs": 2}


def test_bound_context_lands_in_every_record():
    stream = io.StringIO()
    logger = RunLogger(stream=stream, _clock=_fixed_clock,
                       context={"config": "cfg_a", "test": "t01",
                                "seed": 3, "view": "rtl"})
    logger.log("run.start")
    logger.log("run.complete", passed=True)
    first, second = (json.loads(line)
                     for line in stream.getvalue().splitlines())
    for record in (first, second):
        assert (record["config"], record["test"], record["seed"],
                record["view"]) == ("cfg_a", "t01", 3, "rtl")
    assert second["passed"] is True
    assert "passed" not in first


def test_path_sink_owns_its_file(tmp_path):
    path = str(tmp_path / "run.log.jsonl")
    logger = RunLogger(path=path, _clock=_fixed_clock)
    logger.log("event.one")
    logger.close()
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    assert [r["event"] for r in records] == ["event.one"]


def test_buffer_mode_collects_picklable_records():
    import pickle

    logger = RunLogger(buffer=True, _clock=_fixed_clock,
                       context={"view": "bca"})
    logger.log("run.timeout", max_cycles=500)
    assert logger.records == [{
        "event": "run.timeout", "ts": 1234.5, "view": "bca",
        "max_cycles": 500,
    }]
    pickle.loads(pickle.dumps(logger.records))


def test_write_record_replays_verbatim():
    stream = io.StringIO()
    logger = RunLogger(stream=stream)
    logger.write_record({"event": "replayed", "ts": 1.0, "seed": 9})
    assert json.loads(stream.getvalue()) == {
        "event": "replayed", "ts": 1.0, "seed": 9,
    }


def test_sink_less_and_disabled_loggers_are_inert():
    assert not RunLogger().enabled  # no sink, no buffer
    assert not NULL_LOG.enabled
    NULL_LOG.log("anything", much=True)
    NULL_LOG.write_record({"event": "still.nothing"})
    assert NULL_LOG.records == []
