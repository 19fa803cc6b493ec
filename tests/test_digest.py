"""The SHA-256 helper the result cache and the impact index hash with.

Every backend must compute exactly ``hashlib.sha256``: cache keys, blob
names, entry digests and manifests written by one interpreter must be
read back by another.
"""

import hashlib
import importlib.util
import sys

import pytest

from repro import digest

LARGE = bytes(range(256)) * (2 * digest.CHUNK // 256 + 3)


@pytest.mark.parametrize("data", [b"", b"abc", LARGE],
                         ids=["empty", "abc", "over-one-chunk"])
def test_hex_digest_equals_hashlib(data):
    assert digest.sha256(data).hexdigest() == \
        hashlib.sha256(data).hexdigest()
    incremental = digest.sha256()
    for start in range(0, len(data), 1000):
        incremental.update(data[start:start + 1000])
    assert incremental.hexdigest() == hashlib.sha256(data).hexdigest()


def test_copy_forks_the_state():
    prefix = digest.sha256(b"prefix\0")
    fork = prefix.copy()
    fork.update(b"one")
    prefix.update(b"two")
    assert fork.hexdigest() == hashlib.sha256(b"prefix\0one").hexdigest()
    assert prefix.hexdigest() == hashlib.sha256(b"prefix\0two").hexdigest()


def test_file_digest_matches_over_several_chunks(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(LARGE)
    assert digest.file_sha256(str(path)) == hashlib.sha256(LARGE).hexdigest()
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert digest.file_sha256(str(empty)) == hashlib.sha256(b"").hexdigest()


def test_takes_a_builtin_module_when_there_is_one():
    builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert digest.sha256.__module__ == builtin


def test_falls_back_to_hashlib_without_a_builtin_module(monkeypatch):
    # A None entry in sys.modules makes its import raise ImportError.
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location(
        "fallback_digest", digest.__file__)
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback.sha256 is hashlib.sha256
    assert fallback.sha256(b"abc").hexdigest() == \
        digest.sha256(b"abc").hexdigest()
