"""The triage artifact: first divergence + suspect set + minimal repro.

One :class:`TriageReport` is the self-contained answer to "this run
failed — now what": the first diverging (signal, cycle) point, the
cone-ranked process suspects, a trimmed waveview excerpt of the cone
signals around the split, and the exact commands that replay the failure
in isolation.  It is a plain picklable dataclass of primitives so the
regression pool can ship it across process boundaries and CI can diff
its JSON form against golden files.

The JSON schema is versioned (``schema_version``); paths inside the
repro commands are stored relative to the triage file's own directory so
the artifact stays byte-stable across work directories.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..ioutil import atomic_write
from ..stbus import NodeConfig
from ..vcd import VcdFile, parse_vcd
from .divergence import DivergenceScan, find_first_divergence
from .suspects import SuspectReport, rank_suspects

#: Version tag written into every triage.json.
TRIAGE_SCHEMA = "repro.triage/v1"
TRIAGE_SCHEMA_VERSION = 1

#: Wave excerpt: cone signals shown and cycles each side of the split.
WAVE_SIGNAL_LIMIT = 8
WAVE_WINDOW = 4

#: Suspects listed in the human-readable render (JSON keeps them all).
RENDER_SUSPECT_LIMIT = 8

#: Why a triage ran.
REASON_CHECKERS = "checkers-failed"
REASON_ALIGNMENT = "low-alignment"
REASON_MANUAL = "manual"

#: What it concluded.
VERDICT_LOCALIZED = "localized"
VERDICT_NOT_PIN_VISIBLE = "divergence-not-pin-visible"


@dataclass
class TriageReport:
    """Structured triage of one failing (config, test, seed) entry."""

    config_name: str
    test_name: str
    seed: int
    reason: str
    verdict: str
    bugs: Tuple[str, ...] = ()
    #: First diverging point (None when not pin-visible).
    signal: Optional[str] = None
    cycle: Optional[int] = None
    rtl_value: Optional[int] = None
    bca_value: Optional[int] = None
    #: Other signals that split at the same cycle.
    co_diverging: Tuple[str, ...] = ()
    #: Trimmed cycle window around the divergence.
    window_start: Optional[int] = None
    window_end: Optional[int] = None
    total_cycles: int = 0
    truncated: bool = False
    only_in_rtl: Tuple[str, ...] = ()
    only_in_bca: Tuple[str, ...] = ()
    #: Cone-ranked suspects (dicts, see Suspect.to_dict) and the cone
    #: excerpt signals the wave shows.
    suspects: List[Dict[str, object]] = field(default_factory=list)
    cone_signals: Tuple[str, ...] = ()
    cone_complete: bool = True
    #: Replay commands (paths relative to the triage file's directory)
    #: and the configuration text that makes the artifact self-contained.
    repro: Dict[str, str] = field(default_factory=dict)
    config_text: str = ""
    #: Waveview excerpt of the diverging cone signals.
    wave: str = ""
    schema: str = TRIAGE_SCHEMA
    schema_version: int = TRIAGE_SCHEMA_VERSION
    #: The triage job's :class:`~repro.telemetry.RunTelemetry` payload,
    #: when the batch recorded one; never part of ``triage.json``.
    telemetry: Optional[object] = field(default=None, compare=False,
                                        repr=False)

    @property
    def localized(self) -> bool:
        return self.verdict == VERDICT_LOCALIZED

    @property
    def suspect_names(self) -> Tuple[str, ...]:
        return tuple(str(s["process"]) for s in self.suspects)

    @property
    def top_suspect(self) -> Optional[str]:
        return str(self.suspects[0]["process"]) if self.suspects else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "schema_version": self.schema_version,
            "config": self.config_name,
            "test": self.test_name,
            "seed": self.seed,
            "reason": self.reason,
            "verdict": self.verdict,
            "bugs": list(self.bugs),
            "first_divergence": (
                None if self.signal is None else {
                    "signal": self.signal,
                    "cycle": self.cycle,
                    "rtl": self.rtl_value,
                    "bca": self.bca_value,
                    "co_diverging": list(self.co_diverging),
                }
            ),
            "window": (
                None if self.window_start is None else
                {"start": self.window_start, "end": self.window_end}
            ),
            "total_cycles": self.total_cycles,
            "truncated": self.truncated,
            "only_in_rtl": list(self.only_in_rtl),
            "only_in_bca": list(self.only_in_bca),
            "suspects": [dict(s) for s in self.suspects],
            "cone_signals": list(self.cone_signals),
            "cone_complete": self.cone_complete,
            "repro": dict(self.repro),
            "config_text": self.config_text,
            "wave": self.wave,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def render(self) -> str:
        """Human-readable block for the regression report."""
        head = f"{self.config_name} {self.test_name} seed={self.seed}"
        if self.signal is None:
            lines = [
                f"{head}: {self.verdict} — no shared signal diverges "
                f"over {self.total_cycles} cycle(s); the checker failure "
                "is not visible at the dumped pins"
            ]
        else:
            lines = [
                f"{head}: first divergence {self.signal} @ cycle "
                f"{self.cycle} (rtl={self.rtl_value} bca={self.bca_value})"
            ]
            if self.co_diverging:
                lines.append(
                    f"  also split that cycle: "
                    f"{', '.join(self.co_diverging)}"
                )
            if self.window_start is not None:
                lines.append(
                    f"  window: cycles {self.window_start}.."
                    f"{self.window_end} of {self.total_cycles}"
                )
        if self.suspects:
            bound = "" if self.cone_complete else \
                " (lower bound: opaque process(es) in the design)"
            lines.append(f"  suspects, cone-ranked{bound}:")
            shown = self.suspects[:RENDER_SUSPECT_LIMIT]
            for pos, s in enumerate(shown, 1):
                wrote = (
                    f"last wrote @{s['last_write_cycle']}"
                    if s.get("last_write_cycle") is not None
                    else "no write in trace"
                )
                lines.append(
                    f"    {pos}. {s['process']} ({s['kind']}, "
                    f"distance {s['distance']}, {wrote})"
                )
            hidden = len(self.suspects) - len(shown)
            if hidden:
                lines.append(f"    ... and {hidden} more in triage.json")
        for key in ("analyzer", "regression"):
            if key in self.repro:
                lines.append(f"  repro ({key}): {self.repro[key]}")
        return "\n".join(lines) + "\n"


def _relative(path: str, base: Optional[str]) -> str:
    if not base:
        return path
    try:
        return os.path.relpath(path, base)
    except ValueError:  # different drive (Windows); keep it absolute
        return path


def _wave_signals(scan: DivergenceScan,
                  suspects: SuspectReport) -> List[str]:
    """The cone signals worth showing: the split set first, then the
    nearest cone signals, capped at :data:`WAVE_SIGNAL_LIMIT`."""
    chosen: List[str] = [d.signal for d in scan.at_first_cycle]
    for name in suspects.cone_signals:
        if len(chosen) >= WAVE_SIGNAL_LIMIT:
            break
        if name not in chosen:
            chosen.append(name)
    return chosen[:WAVE_SIGNAL_LIMIT]


def triage_entry(
    config: NodeConfig,
    test_name: str,
    seed: int,
    rtl_vcd: Union[str, VcdFile],
    bca_vcd: Union[str, VcdFile],
    *,
    bugs: Sequence[str] = (),
    reason: str = REASON_MANUAL,
    out_path: Optional[str] = None,
    telemetry=None,
) -> TriageReport:
    """Triage one failing entry from its two dumps.

    Walks the dumps to the first divergence, ranks the BCA processes
    that can influence it, and hands both to :func:`build_triage`.
    ``telemetry`` optionally records the scan and ranking spans and the
    ``triage.complete`` log record.
    """
    from ..telemetry import NULL_TELEMETRY

    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    with tele.span("triage.scan", config=config.name, test=test_name,
                   seed=seed):
        parsed_rtl = parse_vcd(rtl_vcd) if isinstance(rtl_vcd, str) \
            else rtl_vcd
        parsed_bca = parse_vcd(bca_vcd) if isinstance(bca_vcd, str) \
            else bca_vcd
        scan = find_first_divergence(parsed_rtl, parsed_bca)
    suspects = None
    if scan.first is not None:
        with tele.span("triage.suspects", signal=scan.first.signal):
            suspects = rank_suspects(
                config, scan.first.signal, scan.first.cycle, view="bca",
                trace=parsed_bca,
            )
    paths = (rtl_vcd, bca_vcd) \
        if isinstance(rtl_vcd, str) and isinstance(bca_vcd, str) else None
    report = build_triage(
        config, test_name, seed, (parsed_rtl, parsed_bca), scan, suspects,
        paths=paths, bugs=bugs, reason=reason, out_path=out_path,
    )
    tele.log.log(
        "triage.complete",
        config=config.name, test=test_name, seed=seed,
        verdict=report.verdict, signal=report.signal,
        cycle=report.cycle, suspects=len(report.suspects),
    )
    return report


def build_triage(
    config: NodeConfig,
    test_name: str,
    seed: int,
    dumps: Tuple[VcdFile, VcdFile],
    scan: DivergenceScan,
    suspects: Optional[SuspectReport],
    *,
    paths: Optional[Tuple[str, str]] = None,
    bugs: Sequence[str] = (),
    reason: str = REASON_MANUAL,
    out_path: Optional[str] = None,
) -> TriageReport:
    """The triage report of a pair already scanned and ranked.

    ``dumps`` are the parsed (rtl, bca) files ``scan`` walked;
    ``suspects`` ranks the cone of ``scan.first`` (``None`` when the
    dumps never diverge).  ``paths`` name the dump files for the
    analyzer replay command.  With ``out_path`` the ``triage.json``
    artifact is written atomically.
    """
    # Materialize the lazy address-map default before rendering the
    # config text: a config that already elaborated in this process
    # prints the map, a freshly unpickled one would not, and the
    # artifact must be byte-identical for serial and pooled batches.
    config.resolved_map
    base = os.path.dirname(out_path) if out_path else None
    report = TriageReport(
        config_name=config.name,
        test_name=test_name,
        seed=seed,
        reason=reason,
        verdict=VERDICT_LOCALIZED if scan.diverged
        else VERDICT_NOT_PIN_VISIBLE,
        bugs=tuple(sorted(bugs)),
        total_cycles=scan.total_cycles,
        truncated=scan.truncated,
        only_in_rtl=scan.only_in_a,
        only_in_bca=scan.only_in_b,
        config_text=config.to_text(),
    )
    if scan.first is not None:
        first = scan.first
        report.signal = first.signal
        report.cycle = first.cycle
        report.rtl_value = first.a_value
        report.bca_value = first.b_value
        report.co_diverging = tuple(
            d.signal for d in scan.at_first_cycle
            if d.signal != first.signal
        )
        report.window_start = max(0, first.cycle - WAVE_WINDOW)
        report.window_end = min(scan.total_cycles - 1,
                                first.cycle + WAVE_WINDOW)
        report.suspects = [s.to_dict() for s in suspects.suspects]
        report.cone_complete = suspects.complete
        wave_signals = _wave_signals(scan, suspects)
        report.cone_signals = tuple(wave_signals)
        from ..analyzer.waveview import render_signals_wave

        report.wave = render_signals_wave(
            dumps[0], dumps[1], wave_signals, first.cycle,
            window=WAVE_WINDOW,
            title=f"cone of {first.signal}",
        )
    repro: Dict[str, str] = {}
    if paths:
        repro["analyzer"] = (
            f"python -m repro.analyzer {_relative(paths[0], base)} "
            f"{_relative(paths[1], base)} --first-divergence"
        )
    bug_flags = f" --bugs {' '.join(sorted(bugs))}" if bugs else ""
    repro["regression"] = (
        f"python -m repro.regression <config-dir> --workdir <workdir> "
        f"--tests {test_name} --seeds {seed}{bug_flags} --triage"
    )
    report.repro = repro
    if out_path:
        with atomic_write(out_path) as handle:
            handle.write(report.to_json())
    return report


def load_triage(path: str) -> Dict[str, object]:
    """Read a ``triage.json`` back, validating the schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != TRIAGE_SCHEMA:
        raise ValueError(
            f"{path!r} is not a triage artifact "
            f"(schema {payload.get('schema')!r})"
        )
    return payload
