"""The static checker: one pass of rules over elaborated designs.

Rules come in two tiers (:mod:`~repro.analysis.rules`, the one
registry): the *structural* rules of :mod:`~repro.analysis.structural`
(one signal, one process at a time, over the
:class:`~repro.analysis.graph.DesignGraph` of an elaborated simulator)
and the *dataflow* rules, which reason about flows — ordering races,
clock-domain crossings and tie-off conflicts
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
* :mod:`~repro.analysis.agreement` — per-port RTL/BCA agreement by
  bounded lockstep of one verification environment per view: a bounded
  check with a witness on mismatch, not a proof;
* :mod:`~repro.analysis.impact` — static change-impact analysis:
  per-process semantic fingerprints, the cone-scoped design keys every
  cached regression batch keys on, and the schema-versioned design
  fingerprint manifest each cached batch keeps in its store and diffs
  to say why a miss re-ran;
* :mod:`~repro.analysis.waivers` — the waiver file dialect, over the
  :class:`~repro.analysis.diagnostics.Finding` every rule reports;
* :mod:`~repro.analysis.demo` — a design with one defect per structural
  rule.

CLI: ``python -m repro.analysis`` (text/JSON).
:func:`~repro.analysis.runner.analyze_config` runs every rule by
default; given only the structural tier
(:func:`repro.lint.lint_config`, the regression's default gate) it
builds no dataflow graph, derives no constants and loads none of the
UNR, cone or agreement modules.  Nothing in this package imports
:mod:`repro.lint`.  The regression tool exposes the UNR half as the
opt-in ``--unr`` annotation.

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
    "diagnostics": ("Finding", "Severity"),
    "graph": ("DesignGraph",),
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
               "ProcessFingerprint", "ImpactIndex", "ManifestError",
               "design_fingerprints", "diff_manifests",
               "process_fingerprint"),
})
__all__ += ["SCHEMA_VERSION", "Waiver", "WaiverError", "parse_waivers",
            "apply_waivers", "load_waiver_file"]
