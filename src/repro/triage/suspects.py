"""Cone-ranked suspect scoring for a diverging signal.

Given the first diverging (signal, cycle) point of an RTL/BCA pair, the
question is "which process of the compared model must be wrong".  The
static dataflow graph already knows which signals can influence the
diverging one (:meth:`~repro.analysis.dataflow.DataflowGraph.fan_in_cone`)
and which processes write each signal
(:attr:`~repro.analysis.graph.DesignGraph.known_writers`); intersecting the
two shrinks the whole model down to the handful of processes that can
possibly have produced the wrong value.

Suspects are ranked by

1. **cone distance** — the BFS depth (in signal hops) from the diverging
   signal back to the nearest signal the process writes.  A process that
   drives the diverging pin itself (distance 0) outranks one that only
   feeds it indirectly.
2. **last-write cycle** — the most recent cycle at or before the
   divergence at which any of the process's in-cone signals changed in
   the compared trace.  Between equally-near processes, the one whose
   outputs moved last is the likelier culprit.
3. name, for determinism.

The graph is built from an elaboration dry run (no cycle is simulated),
so triage costs one elaboration plus a BFS — independent of test length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stbus import NodeConfig
from ..vcd import VcdFile


@dataclass(frozen=True)
class Suspect:
    """One process that can influence the diverging signal."""

    process: str
    kind: str                       # "clocked" | "comb"
    distance: int                   # signal hops from the divergence
    via: Tuple[str, ...]            # its written signals inside the cone
    last_write_cycle: Optional[int]  # from the compared trace, if seen

    def describe(self) -> str:
        wrote = (
            f"last wrote @{self.last_write_cycle}"
            if self.last_write_cycle is not None else "no write in trace"
        )
        return (
            f"{self.process} ({self.kind}, distance {self.distance}, "
            f"{wrote})"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "process": self.process,
            "kind": self.kind,
            "distance": self.distance,
            "via": list(self.via),
            "last_write_cycle": self.last_write_cycle,
        }


@dataclass
class SuspectReport:
    """Ranked suspect set for one diverging signal."""

    signal: str
    suspects: Tuple[Suspect, ...]
    #: Signals in the fan-in cone (including the anchor), sorted by BFS
    #: distance then name — the wave-excerpt candidates.
    cone_signals: Tuple[str, ...]
    #: False when an undeclared clocked process may hide influence paths
    #: (the suspect set is then a lower bound, stated, not guessed).
    complete: bool

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.process for s in self.suspects)


def _signal_distances(dataflow, anchor) -> Dict[object, int]:
    """BFS depth of every fan-in-cone signal from ``anchor`` (depth 0)."""
    dist = {anchor: 0}
    frontier = [anchor]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for sig in frontier:
            for src in sorted(dataflow.fan_in.get(sig, ()),
                              key=lambda s: s.name):
                if src not in dist:
                    dist[src] = depth
                    nxt.append(src)
        frontier = nxt
    return dist


def _last_write_cycle(trace: Optional[VcdFile], names: Tuple[str, ...],
                      cycle: int) -> Optional[int]:
    """Most recent cycle <= ``cycle`` at which any of ``names`` changed."""
    if trace is None:
        return None
    latest: Optional[int] = None
    horizon = cycle * trace.timescale
    for name in names:
        if name not in trace:
            continue
        for when, _value in trace[name].changes:
            if when > horizon:
                break
            c = when // trace.timescale
            if latest is None or c > latest:
                latest = c
    return latest


def rank_suspects(
    config: NodeConfig,
    signal_name: str,
    divergence_cycle: int,
    view: str = "bca",
    trace: Optional[VcdFile] = None,
) -> SuspectReport:
    """Rank the processes of ``view`` that can influence ``signal_name``.

    ``trace`` is the compared run's parsed dump (used only for the
    last-write tiebreaker; suspects are still ranked without it).
    """
    from ..analysis.dataflow import DataflowGraph
    from ..catg.env import VerificationEnv
    from ..analysis.graph import DesignGraph

    env = VerificationEnv(config, view=view)
    graph = DesignGraph.from_simulator(env.sim)
    dataflow = DataflowGraph(graph)
    by_name = {sig.name: sig for sig in graph.signals}
    anchor = by_name.get(signal_name)
    if anchor is None:
        return SuspectReport(
            signal=signal_name, suspects=(), cone_signals=(),
            complete=dataflow.complete,
        )
    dist = _signal_distances(dataflow, anchor)
    cone_signals = tuple(
        sig.name for sig in sorted(dist, key=lambda s: (dist[s], s.name))
    )
    suspects: List[Suspect] = []
    for info in list(graph.comb) + list(graph.clocked):
        if info.kind == "comb":
            written = set(info.observed_writes)
        else:
            written = set(info.declared_writes or ())
            written.update(sig for sig, _ in info.declared_tie_offs)
        in_cone = sorted(
            (sig for sig in written if sig in dist),
            key=lambda s: (dist[s], s.name),
        )
        if not in_cone:
            continue
        via = tuple(sig.name for sig in in_cone)
        suspects.append(Suspect(
            process=info.name,
            kind=info.kind,
            distance=min(dist[sig] for sig in in_cone),
            via=via,
            last_write_cycle=_last_write_cycle(
                trace, via, divergence_cycle),
        ))
    suspects.sort(key=lambda s: (
        s.distance,
        -(s.last_write_cycle if s.last_write_cycle is not None else -1),
        s.process,
    ))
    return SuspectReport(
        signal=signal_name,
        suspects=tuple(suspects),
        cone_signals=cone_signals,
        complete=dataflow.complete,
    )
