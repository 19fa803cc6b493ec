"""RTL view: cycle-accurate, signal-level models of the STBus components."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "pipeline": ("Pipe",),
    "node": ("RtlNode", "ERROR_TARGET"),
    "converter": ("RtlBridge", "RtlSizeConverter", "RtlTypeConverter"),
    "register_decoder": ("RtlRegisterDecoder",),
})
