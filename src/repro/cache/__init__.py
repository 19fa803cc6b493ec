"""Content-addressed, integrity-verified result cache.

``repro.cache`` is the regression tool's one replay store: any (design,
config, test, seed, view) run that has ever executed against the same
design sources is a cache hit, verified on read and never served when
torn or corrupt.  Every run is stored as it completes, so an
interrupted batch resumes by rerunning it against the same cache.  See
:mod:`repro.cache.store` for the storage contract.
"""

from .store import (
    CACHE_DIR_ENV,
    CACHE_SCHEMA,
    DESIGN_ROOTS,
    DIAGNOSTIC_SCHEMA,
    CacheDiagnostic,
    CacheStats,
    ResultCache,
    cache_key,
    design_source_hash,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA",
    "DESIGN_ROOTS",
    "DIAGNOSTIC_SCHEMA",
    "CacheDiagnostic",
    "CacheStats",
    "ResultCache",
    "cache_key",
    "design_source_hash",
]
