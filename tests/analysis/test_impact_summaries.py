"""Source summaries served from the result cache.

The impact index summarizes every source file it touches once: the
docstring-stripped, process-elided residual plus a body dump per
``(first line, name)`` span.  A batch with a cache directory reads the
summaries of unchanged files from the store's ``sources/`` entries.
The contract under test:

* design keys, the manifest JSON and the environment digest are
  byte-identical with no store, a cold store and a warm store;
* an edited file is the only miss, and a different interpreter version
  or a different ``impact.py`` misses every file;
* a torn, digest-mismatched, key-mismatched or undecodable summary is
  quarantined and recomputed, with the keys unchanged and the run
  counters (``CacheStats``) untouched;
* the batch index keeps no design graph.
"""

import json
import os
import shutil
import sys

import pytest

from repro.analysis import impact
from repro.analysis.graph import DesignGraph
from repro.analysis.impact import (
    DesignFingerprints,
    ImpactIndex,
    environment_digest,
)
from repro.cache import CacheStats, ResultCache
from repro.cache.store import _encode_field, _entry_digest
from repro.regression.configs import load_config_dir
from repro.stbus import NodeConfig

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")


def _fingerprint_of(index):
    """Everything a batch derives from the index: the manifest JSON,
    the environment digest and every design key."""
    return (
        json.dumps(index.manifest().to_dict(), sort_keys=True),
        index.environment.to_dict(),
        {label: index.design_key(*label.split("::"))
         for label in index.designs},
    )


def _entries(root):
    sources = os.path.join(str(root), "sources")
    return sorted(os.path.join(dirpath, name)
                  for dirpath, _, names in os.walk(sources)
                  for name in names if name.endswith(".json"))


@pytest.mark.parametrize("configs", [
    pytest.param(lambda: load_config_dir(BENCH_CONFIGS), id="bench-configs"),
    pytest.param(lambda: [NodeConfig()], id="stock-node"),
])
def test_store_leaves_keys_manifest_and_environment_byte_identical(
        configs, tmp_path):
    configs = configs()
    plain = ImpactIndex(configs)
    store = ResultCache(str(tmp_path / "cache"))
    cold = ImpactIndex(configs, store=store)
    warm = ImpactIndex(configs, store=ResultCache(str(tmp_path / "cache")))
    assert _fingerprint_of(cold) == _fingerprint_of(plain)
    assert _fingerprint_of(warm) == _fingerprint_of(plain)
    # The counters count files looked up; entries are per distinct
    # content, so a cold build's misses are exactly the entries.
    cold_counts = cold.counters()
    files = (cold_counts["impact.source_hits"]
             + cold_counts["impact.source_misses"])
    assert cold_counts["impact.source_misses"] \
        == len(_entries(tmp_path / "cache")) > 1
    assert warm.counters()["impact.source_hits"] == files
    assert warm.counters()["impact.source_misses"] == 0
    # Summaries are not runs: no run entry, no run counter.
    assert store.stats == CacheStats()
    assert not os.path.exists(tmp_path / "cache" / "objects")


# -- a small design root on disk --------------------------------------------


MODULES = {
    "a.py": '''\
"""Module a."""
DEPTH = 4

class Node:
    def __init__(self):
        self.comb(self._proc, [self.a])

    def _proc(self):
        """Docstring."""
        self.q.drive(self.a.value + DEPTH)
''',
    "b.py": "def helper(x):\n    return (lambda: x)()\n",
    "broken.py": "def broken(:\n",
}


@pytest.fixture
def design_root(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    for name, text in MODULES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _digest(root, store=None):
    """``(EnvironmentDigest, hits, misses)`` of ``root``."""
    sources = impact._SourceSummaries(store)
    env = environment_digest(roots=(str(root),), sources=sources)
    return env, sources.hits, sources.misses


def test_unparsable_file_digests_the_same_from_a_store(design_root,
                                                       tmp_path):
    plain = _digest(design_root)[0]
    assert plain.diagnostics and "broken.py: hashed raw" \
        in plain.diagnostics[0]
    cache = str(tmp_path / "cache")
    assert _digest(design_root, ResultCache(cache)) == (plain, 0, 3)
    assert _digest(design_root, ResultCache(cache)) == (plain, 3, 0)


def test_editing_one_file_misses_exactly_once(design_root, tmp_path):
    cache = str(tmp_path / "cache")
    _digest(design_root, ResultCache(cache))
    path = design_root / "b.py"
    path.write_text(MODULES["b.py"] + "# edited\n", encoding="utf-8")
    env, hits, misses = _digest(design_root, ResultCache(cache))
    assert (hits, misses) == (2, 1)
    assert env == _digest(design_root)[0]


def test_another_interpreter_version_misses(design_root, tmp_path,
                                            monkeypatch):
    cache = str(tmp_path / "cache")
    plain = _digest(design_root, ResultCache(cache))[0]
    monkeypatch.setattr(sys, "version", sys.version + " (patched)")
    assert _digest(design_root, ResultCache(cache)) == (plain, 0, 3)


def test_another_impact_module_misses(design_root, tmp_path, monkeypatch):
    cache = str(tmp_path / "cache")
    plain = _digest(design_root, ResultCache(cache))[0]
    assert _digest(design_root, ResultCache(cache))[1:] == (3, 0)
    edited = tmp_path / "impact.py"
    with open(impact.__file__, "rb") as handle:
        edited.write_bytes(handle.read() + b"# another revision\n")
    prefix = impact._summary_key_prefix
    monkeypatch.setattr(impact, "_summary_key_prefix",
                        lambda: prefix(str(edited)))
    assert _digest(design_root, ResultCache(cache)) == (plain, 0, 3)


# -- damaged entries ---------------------------------------------------------


def _reseal(path, entry):
    entry = {name: value for name, value in entry.items()
             if name != "digest"}
    entry["digest"] = _entry_digest(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _torn(path, other):
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[:len(data) // 2])


def _digest_mismatch(path, other):
    # A well-formed summary of another file, under this entry's digest:
    # only the digest check stops it being served.
    entry = _load(path)
    entry["summary"] = _load(other)["summary"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, sort_keys=True)


def _key_mismatch(path, other):
    shutil.copyfile(other, path)


def _undecodable(path, other):
    entry = _load(path)
    entry["summary"] = _encode_field(b"{}")
    _reseal(path, entry)


@pytest.fixture(scope="module")
def stock_store(tmp_path_factory):
    """A store warmed by the stock node's index, and that index."""
    root = tmp_path_factory.mktemp("stock") / "cache"
    index = ImpactIndex([NodeConfig()], store=ResultCache(str(root)))
    return root, _fingerprint_of(index)


@pytest.mark.parametrize("damage,reason", [
    (_torn, "torn-entry"),
    (_digest_mismatch, "digest-mismatch"),
    (_key_mismatch, "key-mismatch"),
    (_undecodable, "payload-undecodable"),
])
def test_damaged_summary_is_quarantined_and_recomputed(
        damage, reason, stock_store, tmp_path):
    warm_root, want = stock_store
    root = tmp_path / "cache"
    shutil.copytree(str(warm_root), str(root))
    entries = _entries(root)
    # The largest summary is a file that registers processes, so a
    # wrongly served one moves design keys, not only the residual.
    victim = max(entries, key=os.path.getsize)
    other = next(path for path in entries if path != victim)
    damage(victim, other)

    store = ResultCache(str(root))
    index = ImpactIndex([NodeConfig()], store=store)
    assert _fingerprint_of(index) == want
    counters = index.counters()
    assert (counters["impact.source_hits"],
            counters["impact.source_misses"]) == (len(entries) - 1, 1)
    assert store.stats == CacheStats()
    (diagnostic,) = [event for event in store.events
                     if event.get("event") == "cache.quarantined"]
    assert diagnostic["reason"] == reason
    assert os.path.isfile(diagnostic["quarantine_path"])
    # Recomputed and re-published: the next build hits everywhere.
    again = ImpactIndex([NodeConfig()], store=ResultCache(str(root)))
    assert again.counters()["impact.source_misses"] == 0


# -- what the batch index retains -------------------------------------------


def test_batch_index_keeps_no_design_graph():
    """Each design's graph is dropped once it is fingerprinted; only the
    fingerprints stay."""
    index = ImpactIndex([NodeConfig()])
    assert not any(isinstance(value, DesignGraph)
                   for value in vars(index).values())
    assert all(isinstance(design, DesignFingerprints)
               for design in index.designs.values())
