"""STBus Analyzer (STBA): VCD extraction, alignment rates, transaction diff."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "extract": ("PORT_SIGNALS", "ExtractionError", "ExtractedPacket",
                "ExtractedResponse", "PortTraffic", "discover_ports",
                "extract_port", "extract_all"),
    "align": ("PortAlignment", "AlignmentReport", "SIGNOFF_THRESHOLD",
              "compare_vcds"),
    "diff": ("PortDiff", "TransactionDiff", "diff_transactions"),
    "waveview": ("render_port_wave", "render_signals_wave",
                 "render_divergence"),
})
