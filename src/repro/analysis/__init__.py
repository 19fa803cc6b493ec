"""The static checker: one pass of rules over elaborated designs.

Rules come in two tiers (:mod:`~repro.analysis.rules`, the one
registry): the *structural* rules of :mod:`repro.lint` (one signal, one
process at a time) and the *dataflow* rules, which reason about flows —
ordering races, clock-domain crossings and tie-off conflicts
(:mod:`~repro.analysis.rules` itself) — over these engines:

* :mod:`~repro.analysis.dataflow` — signal-level dataflow graph with
  fan-in/fan-out cones of influence, derived from the kernel's
  declared/harvested read-write sets;
* :mod:`~repro.analysis.constants` — constant propagation over declared
  tie-offs and undriven nets, plus width-derived value ranges;
* :mod:`~repro.analysis.unr` — coverage-unreachability proofs: a
  REACHABLE / UNREACHABLE verdict per functional-coverage bin, with the
  proving witness or blocking constant (the decode-error bins by an
  exact interval union over the address map); UNKNOWN is reserved for
  a rule that cannot decide its bin, and no shipped rule emits it;
* :mod:`~repro.analysis.xview` — cross-view cone-equivalence check (RTL
  vs BCA cones per STBus port);
* :mod:`~repro.analysis.agreement` — per-port RTL/BCA agreement on bare
  dual harnesses (comb-cone enumeration from reset plus bounded
  lockstep): a bounded check with a witness on mismatch, not a proof;
* :mod:`~repro.analysis.impact` — static change-impact analysis:
  per-process semantic fingerprints, the schema-versioned design
  fingerprint manifest + differ, fan-out-cone change closure, and the
  cone-scoped design keys every cached regression batch keys on;
* :mod:`~repro.analysis.waivers` — the waiver file dialect.

CLI: ``python -m repro.analysis`` (text/JSON) and
``python -m repro.analysis impact`` (fingerprint manifests and
change-impact reports).  :func:`~repro.analysis.runner.analyze_config`
runs every rule by default; given only the structural tier
(``repro.lint.lint_config``, the regression's default gate) it builds
no dataflow graph, derives no constants and loads none of the UNR,
cone or agreement modules.  The regression tool exposes the UNR half
as the opt-in ``--unr`` annotation.

Only :mod:`~repro.analysis.waivers` is imported eagerly — it is a leaf
module.  Everything else resolves on first use through
:func:`repro._lazy.lazy_exports`.
"""

from .._lazy import lazy_exports
from .waivers import (
    Waiver,
    WaiverError,
    apply_waivers,
    load_waiver_file,
    parse_waivers,
)

#: JSON schema version stamped into every machine-readable report this
#: package emits.  Bump on breaking field changes.
SCHEMA_VERSION = 1

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dataflow": ("DataflowGraph", "ConeReport", "interface_cones"),
    "constants": ("ConstantFacts", "ValueRange", "derive_constants"),
    "rules": ("AnalysisContext", "Rule", "RULES", "DEFAULT_RULES",
              "STRUCTURAL_RULES", "DATAFLOW_RULES", "resolve_rules"),
    "unr": ("BinVerdict", "UnrReport", "analyze_unreachability"),
    "xview": ("cone_equivalence_findings",),
    "agreement": ("AgreementReport", "PortAgreement", "check_agreement"),
    "runner": ("AnalysisReport", "ConfigAnalysisReport", "analyze_simulator",
               "analyze_config"),
    "impact": ("MANIFEST_SCHEMA", "DesignManifest", "DesignFingerprints",
               "ProcessFingerprint", "ImpactIndex", "ImpactReport",
               "ManifestError", "build_manifest", "design_fingerprints",
               "diff_manifests", "process_fingerprint"),
})
__all__ += ["SCHEMA_VERSION", "Waiver", "WaiverError", "parse_waivers",
            "apply_waivers", "load_waiver_file"]
