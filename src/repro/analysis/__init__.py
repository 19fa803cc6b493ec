"""Static dataflow analysis over elaborated designs.

Where :mod:`repro.lint` checks local structural rules (one signal, one
process at a time), this package reasons about *flows*:

* :mod:`~repro.analysis.dataflow` — signal-level dataflow graph with
  fan-in/fan-out cones of influence, derived from the kernel's
  declared/harvested read-write sets;
* :mod:`~repro.analysis.constants` — constant propagation over declared
  tie-offs and undriven nets, plus width-derived value ranges;
* :mod:`~repro.analysis.races` — ordering-race and clock-domain-crossing
  rules the multi-driver lint rule cannot see;
* :mod:`~repro.analysis.unr` — coverage-unreachability proofs: a
  REACHABLE / UNREACHABLE verdict per functional-coverage bin, with the
  proving witness or blocking constant (the decode-error bins by an
  exact interval union over the address map); UNKNOWN is reserved for
  a rule that cannot decide its bin, and no shipped rule emits it;
* :mod:`~repro.analysis.xview` — cross-view cone-equivalence check (RTL
  vs BCA cones per STBus port);
* :mod:`~repro.analysis.symbolic` — the symbolic pass (``--symbolic``):
  check per-port functional RTL/BCA agreement on bare dual harnesses
  (comb-cone enumeration from reset plus bounded lockstep);
* :mod:`~repro.analysis.impact` — static change-impact analysis:
  per-process semantic fingerprints, the schema-versioned design
  fingerprint manifest + differ, fan-out-cone change closure, and the
  cone-scoped design keys every cached regression batch keys on;
* :mod:`~repro.analysis.waivers` — the waiver format shared with
  ``repro.lint``.

CLI: ``python -m repro.analysis`` (text/JSON; same waiver files as
``repro.lint``) and ``python -m repro.analysis impact`` (fingerprint
manifests and change-impact reports).  The regression tool exposes the
UNR half as the opt-in ``--unr`` gate.

Only :mod:`~repro.analysis.waivers` is imported eagerly — it is a leaf
module that ``repro.lint.diagnostics`` re-exports, and loading the full
engine would drag the lint/catg stack into every ``import repro.lint``.
Everything else resolves lazily through module ``__getattr__``.
"""

from .waivers import (
    Waiver,
    WaiverError,
    apply_waivers,
    load_waiver_file,
    parse_waivers,
)

#: JSON schema version stamped into every machine-readable report this
#: package (and ``repro.lint``) emits.  Bump on breaking field changes.
SCHEMA_VERSION = 1

_LAZY = {
    "DataflowGraph": "dataflow",
    "ConeReport": "dataflow",
    "interface_cones": "dataflow",
    "AnalysisContext": "races",
    "ConstantFacts": "constants",
    "ValueRange": "constants",
    "derive_constants": "constants",
    "ANALYSIS_RULES": "races",
    "DEFAULT_ANALYSIS_RULES": "races",
    "AnalysisRule": "races",
    "BinVerdict": "unr",
    "UnrReport": "unr",
    "analyze_unreachability": "unr",
    "cone_equivalence_findings": "xview",
    "SymbolicReport": "symbolic.report",
    "run_symbolic_analysis": "symbolic.report",
    "AnalysisReport": "runner",
    "ConfigAnalysisReport": "runner",
    "analyze_simulator": "runner",
    "analyze_config": "runner",
    "resolve_analysis_rules": "runner",
    "MANIFEST_SCHEMA": "impact",
    "DesignManifest": "impact",
    "DesignFingerprints": "impact",
    "ProcessFingerprint": "impact",
    "ImpactIndex": "impact",
    "ImpactReport": "impact",
    "ManifestError": "impact",
    "build_manifest": "impact",
    "design_fingerprints": "impact",
    "diff_manifests": "impact",
    "process_fingerprint": "impact",
}

__all__ = [
    "SCHEMA_VERSION",
    "Waiver",
    "WaiverError",
    "parse_waivers",
    "apply_waivers",
    "load_waiver_file",
] + sorted(_LAZY)


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f".{target}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
