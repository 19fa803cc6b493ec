"""BCA view: transaction-level, cycle-quantized models of the STBus components."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "node": ("BcaNode",),
    "queues": ("TimedFifo",),
    "converter": ("BcaBridge", "BcaSizeConverter", "BcaTypeConverter"),
    "register_decoder": ("BcaRegisterDecoder",),
    "bugs": ("ALL_BUGS", "BUG_CATALOG", "BugInfo", "validate_bugs",
             "BUG_LRU_STUCK", "BUG_SUBWORD_LANES", "BUG_SRC_TRUNCATION",
             "BUG_CHUNK_IGNORED", "BUG_PROG_STALE"),
})
