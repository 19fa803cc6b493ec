"""Content-addressed, integrity-verified result cache.

``repro.cache`` is the regression tool's one replay store: any (design,
config, test, seed, view) run that has ever executed against the same
design sources is a cache hit, verified on read and never served when
torn or corrupt.  Every run is stored as it completes, so an
interrupted batch resumes by rerunning it against the same cache.  See
:mod:`repro.cache.store` for the storage contract.
"""

from .._lazy import lazy_exports

#: Environment variable naming a default cache root for the regression
#: CLI (``--cache-dir`` overrides it, ``--no-cache`` ignores it).  Defined
#: here, not in :mod:`~repro.cache.store`, so the CLI can read it without
#: loading the store (and its ``pickle``, ``zlib`` and digest modules)
#: into a batch with no cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "store": ("CACHE_SCHEMA", "DESIGN_ROOTS", "DIAGNOSTIC_SCHEMA",
              "CacheDiagnostic", "CacheStats", "ResultCache", "cache_key",
              "design_source_hash"),
})
__all__ += ["CACHE_DIR_ENV"]
