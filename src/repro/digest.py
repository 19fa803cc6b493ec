"""SHA-256 without OpenSSL, for the result cache and the impact index.

``import hashlib`` loads ``_hashlib``, which maps OpenSSL's libcrypto
(about 3.5 MB resident) into the process although the cache needs only
plain SHA-256.  CPython ships that algorithm as a builtin module of its
own: ``_sha2`` on 3.12 and later, ``_sha256`` on 3.9-3.11.  This module
takes whichever the interpreter has and falls back to :mod:`hashlib`
only when it has neither.  Every backend computes the same SHA-256, so
cache keys, blob names, entry digests and manifests do not depend on
which one ran.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

#: Bytes :func:`file_sha256` reads at a time.
CHUNK = 1 << 16


def file_sha256(path: str) -> str:
    """Hex SHA-256 of the file at ``path``, read ``CHUNK`` bytes at a
    time."""
    digest = sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(CHUNK), b""):
            digest.update(block)
    return digest.hexdigest()
