"""Cycle-based simulation scheduler with delta-cycle settling.

The kernel replaces the NCSim VHDL/SystemC co-simulation of the paper: it
hosts both the RTL view (clocked + combinational processes at pin level) and
the BCA view (transaction engines that still drive pins every cycle), and it
samples every traced signal once per clock cycle for VCD dumping — which is
exactly the granularity the paper's bus analyzer compares at.

Scheduling model (single implicit clock domain):

1. **Posedge phase** — every clocked process runs once, observing the stable
   pre-edge snapshot and scheduling register updates via ``Signal.drive``.
2. **Commit** — pending writes are applied; signals that changed wake the
   combinational processes sensitive to them.
3. **Delta loop** — woken combinational processes run, their writes commit,
   further processes wake, until no signal changes (bounded; a combinational
   oscillation raises :class:`DeltaOverflowError`).
4. **Sample** — tracers observe the settled end-of-cycle values.

A value visible during cycle *N* is therefore what the circuit shows between
clock edge *N* and edge *N+1*; clocked processes at edge *N+1* read it.

Static metadata
---------------

Every registered process gets a :class:`ProcessInfo` record.  During
:meth:`Simulator.elaborate` the kernel performs a one-shot *read/write
tracking dry run*: while the combinational processes execute for the first
time (and settle), per-signal read and write hooks attribute every signal
access to the running process.  The resulting
``observed_reads``/``observed_writes`` sets, together with the declared
sensitivity lists and any declared clocked read/write sets, form the signal
dataflow graph that the static checker (:mod:`repro.analysis`, with the
structural rules of :mod:`repro.lint`) analyzes before a single cycle is
simulated.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .signal import Signal, SignalError

#: Upper bound on delta cycles per clock cycle before declaring oscillation.
MAX_DELTAS = 1000

Process = Callable[[], None]


class SimulatorError(Exception):
    """Base class for scheduler errors."""


class DeltaOverflowError(SimulatorError):
    """Combinational logic failed to settle (feedback loop)."""


class ElaborationError(SimulatorError):
    """The design was modified after elaboration or used before it."""


def delta_overflow_message(changed: Sequence[Signal]) -> str:
    """The canonical :class:`DeltaOverflowError` text.

    Raised by the delta loop both during the elaboration dry run and
    while simulating, so an oscillating design is reported with
    identical wording and signal names wherever it is found.
    """
    names = ", ".join(s.name for s in changed[:5])
    return (
        f"combinational logic did not settle after {MAX_DELTAS} "
        f"delta cycles (still toggling: {names})"
    )


def _default_label(process: Process) -> str:
    return getattr(process, "__qualname__", None) or repr(process)


@dataclass
class ProcessInfo:
    """Static metadata for one registered process.

    ``sensitivity`` applies to combinational processes only.  The
    ``declared_*`` sets are optional self-descriptions passed at
    registration (``None`` means "unknown"); the ``observed_*`` sets are
    filled in by the elaboration-time dry run.  ``errors`` collects
    exceptions harvested during ``elaborate(harvest_errors=True)``.

    ``declared_tie_offs`` records signals this process drives to a fixed
    constant every activation (``(signal, value)`` pairs); the static
    analysis pass treats them as proven constant nets.  ``domain`` names
    the clock domain a clocked process belongs to; ``None`` means the
    implicit default domain.  Neither changes scheduling — the kernel
    still runs every clocked process on the single simulated clock — but
    they let the CDC rule reason about designs annotated with their
    eventual physical clocking.
    """

    process: Process
    name: str
    kind: str  # "clocked" | "comb"
    index: int
    sensitivity: Tuple[Signal, ...] = ()
    declared_reads: Optional[Tuple[Signal, ...]] = None
    declared_writes: Optional[Tuple[Signal, ...]] = None
    declared_tie_offs: Tuple[Tuple[Signal, int], ...] = ()
    domain: Optional[str] = None
    observed_reads: Set[Signal] = field(default_factory=set)
    observed_writes: Set[Signal] = field(default_factory=set)
    errors: List[Exception] = field(default_factory=list)
    # Memoized source capture: False = not yet attempted, None = attempted
    # and unavailable.  Populated lazily by source()/source_ast() so the
    # registration and simulation hot paths never pay for inspect.
    _source: object = field(default=False, repr=False, compare=False)
    _source_ast: object = field(default=False, repr=False, compare=False)

    def source(self) -> Optional[str]:
        """Dedented source text of the process callable, or None.

        Captured lazily via :func:`inspect.getsource` and memoized; a
        process whose source is unavailable (builtins, callables defined
        in a REPL, ``functools.partial`` objects) yields None — callers
        such as the impact fingerprint degrade honestly instead of failing.
        """
        if self._source is False:
            try:
                self._source = textwrap.dedent(
                    inspect.getsource(self.process)
                )
            except (OSError, TypeError):
                self._source = None
        return self._source  # type: ignore[return-value]

    def source_ast(self) -> Optional[ast.AST]:
        """Parsed AST of :meth:`source` (memoized), or None.

        For a registered lambda the returned node is the ``ast.Lambda``
        itself (the surrounding registration statement is stripped); for
        ``def`` processes it is the ``ast.FunctionDef``.
        """
        if self._source_ast is False:
            self._source_ast = None
            text = self.source()
            if text is not None:
                try:
                    tree = ast.parse(text)
                except SyntaxError:
                    # getsource() of a lambda returns the whole enclosing
                    # statement, which may not parse standalone (e.g. a
                    # dangling close-paren); retry below via the name.
                    tree = None
                if tree is not None:
                    func = getattr(self.process, "__func__", self.process)
                    wanted = getattr(func, "__name__", None)
                    for node in ast.walk(tree):
                        if wanted == "<lambda>":
                            if isinstance(node, ast.Lambda):
                                self._source_ast = node
                                break
                        elif (isinstance(node, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))
                              and node.name == wanted):
                            self._source_ast = node
                            break
        return self._source_ast  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessInfo({self.kind}:{self.name!r})"


class Tracer:
    """Interface for per-cycle waveform observers (e.g. a VCD writer).

    The simulator calls :meth:`declare` once per traced signal during
    elaboration and :meth:`sample` once per cycle after settling.
    """

    def declare(self, signal: Signal) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def sample(self, cycle: int, signals: Sequence[Signal]) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def sample_changes(
        self,
        cycle: int,
        signals: Sequence[Signal],
        changed: Set[Signal],
    ) -> None:
        """Per-cycle sample with the set of signals that committed a
        change this cycle.  The default falls back to the full
        :meth:`sample` scan, so tracers that predate the fast path keep
        working; observers that only care about deltas (the VCD writer)
        override this and skip the unchanged majority.
        """
        self.sample(cycle, signals)

    def finish(self, cycle: int) -> None:
        """Called when the simulation ends; flush buffered output."""


class Simulator:
    """Single-clock, cycle-based scheduler.

    Typical use::

        sim = Simulator()
        a = sim.signal("a", width=8)
        ...build modules, registering processes...
        sim.elaborate()
        sim.run(1000)
    """

    def __init__(self) -> None:
        self.signals: List[Signal] = []
        self._names: Set[str] = set()
        self._clocked: List[Process] = []
        self._comb: List[Process] = []
        self._sensitivity: Dict[Signal, List[int]] = {}
        self._commit_queue: List[Signal] = []
        self._tracers: List[Tracer] = []
        # Per-cycle changed-signal set, maintained only when tracers are
        # attached (the VCD writer samples just these instead of scanning
        # every signal every cycle).
        self._track_changes = False
        self._cycle_changed: Set[Signal] = set()
        # O(1) process -> label lookups (by id; the registration lists
        # keep every process object alive, so ids are never recycled).
        self._comb_labels: Dict[int, str] = {}
        self._clocked_labels: Dict[int, str] = {}
        self._elaborated = False
        self._finished = False
        self.now = 0  #: number of completed clock cycles
        self.active_process: Optional[object] = None
        #: Static metadata, aligned with the registration order.
        self.comb_processes: List[ProcessInfo] = []
        self.clocked_processes: List[ProcessInfo] = []
        #: ``(info-or-None, exception)`` pairs harvested by
        #: ``elaborate(harvest_errors=True)`` (``None`` = raised outside a
        #: specific process, e.g. a delta overflow while settling).
        self.elaboration_errors: List[Tuple[Optional[ProcessInfo], Exception]] = []
        #: ``(info-or-None, signal, value)`` for every over-wide drive
        #: attempt seen during the elaboration dry run.
        self.width_events: List[Tuple[Optional[ProcessInfo], Signal, int]] = []
        # Read/write attribution hooks; installed only while elaborating.
        self._read_hook: Optional[Callable[[Signal], None]] = None
        self._write_hook: Optional[Callable[[Signal, int], None]] = None
        self._track_info: Optional[ProcessInfo] = None
        self._harvest = False
        # Kernel activity counters, always on: each is bumped O(1) per
        # delta iteration or per cycle (never per signal access), so the
        # post-elaboration fast path keeps its cost.  Reset at the end of
        # elaborate() so they count simulated activity only.
        self.stat_deltas = 0  #: delta-loop iterations across all cycles
        self.stat_activations = 0  #: process invocations (clocked + comb)
        self.stat_commits = 0  #: scheduled writes committed
        self.stat_toggles = 0  #: commits that changed a signal's value
        # Opt-in per-process cumulative wall time: None (off, default) or
        # {process name: [activations, seconds]}.
        self._proc_times: Optional[Dict[str, List[float]]] = None

    # -- construction --------------------------------------------------------

    def signal(self, name: str, width: int = 1, init: int = 0) -> Signal:
        """Create and register a signal owned by this simulator."""
        if self._elaborated:
            raise ElaborationError("cannot add signals after elaborate()")
        if name in self._names:
            raise SignalError(f"duplicate signal name {name!r}")
        sig = Signal(name, width=width, init=init)
        sig._bind(self)
        self.signals.append(sig)
        self._names.add(name)
        return sig

    def add_clocked(
        self,
        process: Process,
        *,
        name: Optional[str] = None,
        reads: Optional[Iterable[Signal]] = None,
        writes: Optional[Iterable[Signal]] = None,
        tie_offs: Optional[Dict[Signal, int]] = None,
        domain: Optional[str] = None,
    ) -> None:
        """Register a process run once per clock posedge.

        ``reads``/``writes`` optionally declare the signals the process may
        ever read or drive.  The kernel never enforces them; they feed the
        static lint pass, whose undriven-input and dead-net rules only run
        when every clocked process in the design declares its set.

        ``tie_offs`` declares signals the process drives to a fixed
        constant on *every* activation (``{signal: value}``); tied
        signals are implicitly part of the write set.  ``domain``
        optionally names the clock domain the process belongs to
        (``None`` = the implicit default domain); the static analysis
        pass flags unsynchronized domain crossings.
        """
        if self._elaborated:
            raise ElaborationError("cannot add processes after elaborate()")
        tied = tuple(tie_offs.items()) if tie_offs else ()
        declared_writes = None if writes is None else tuple(writes)
        if tied and declared_writes is not None:
            # Tie-offs are writes; keep the declared set complete without
            # requiring callers to list tied signals twice.
            extra = tuple(
                sig for sig, _ in tied if sig not in declared_writes
            )
            declared_writes = declared_writes + extra
        info = ProcessInfo(
            process=process,
            name=name or _default_label(process),
            kind="clocked",
            index=len(self._clocked),
            declared_reads=None if reads is None else tuple(reads),
            declared_writes=declared_writes,
            declared_tie_offs=tied,
            domain=domain,
        )
        self._clocked.append(process)
        self.clocked_processes.append(info)
        self._clocked_labels.setdefault(id(process), info.name)

    def add_comb(
        self,
        process: Process,
        sensitive_to: Iterable[Signal],
        *,
        name: Optional[str] = None,
    ) -> None:
        """Register a combinational process woken by its sensitivity list."""
        if self._elaborated:
            raise ElaborationError("cannot add processes after elaborate()")
        sens = list(sensitive_to)
        if not sens:
            raise SimulatorError("combinational process needs a sensitivity list")
        idx = len(self._comb)
        info = ProcessInfo(
            process=process,
            name=name or _default_label(process),
            kind="comb",
            index=idx,
            sensitivity=tuple(sens),
        )
        self._comb.append(process)
        self.comb_processes.append(info)
        self._comb_labels.setdefault(id(process), info.name)
        for sig in sens:
            self._sensitivity.setdefault(sig, []).append(idx)

    def add_tracer(self, tracer: Tracer) -> None:
        """Attach a waveform observer (must be added before elaborate)."""
        if self._elaborated:
            raise ElaborationError("cannot add tracers after elaborate()")
        self._tracers.append(tracer)

    # -- introspection --------------------------------------------------------

    @property
    def elaborated(self) -> bool:
        return self._elaborated

    @property
    def tracers(self) -> Tuple[Tracer, ...]:
        return tuple(self._tracers)

    def process_label(self, process: Optional[object]) -> str:
        """Human-readable name for a registered process object."""
        if process is None:
            return "<external>"
        label = self._comb_labels.get(id(process))
        if label is None:
            label = self._clocked_labels.get(id(process))
        if label is None:
            return _default_label(process)  # not registered here
        return label

    def enable_process_timing(self) -> None:
        """Opt in to per-process cumulative wall-time accounting.

        Each process activation is then bracketed by two
        ``perf_counter`` calls — cheap, but not free on the hottest
        loop, hence opt-in.  Idempotent; may be called before or after
        :meth:`elaborate`.
        """
        if self._proc_times is None:
            self._proc_times = {}

    def process_times(self) -> Dict[str, Tuple[int, float]]:
        """``{process name: (activations, cumulative seconds)}`` recorded
        since :meth:`enable_process_timing`; empty when timing is off."""
        if self._proc_times is None:
            return {}
        return {
            name: (int(cell[0]), cell[1])
            for name, cell in self._proc_times.items()
        }

    def stats_snapshot(self) -> Dict[str, int]:
        """The kernel activity counters as a plain dict.

        ``cycles`` is the number of completed clock cycles; the other
        counters accumulate from the end of :meth:`elaborate` (the
        elaboration dry run is excluded).
        """
        return {
            "cycles": self.now,
            "delta_iterations": self.stat_deltas,
            "process_activations": self.stat_activations,
            "signal_commits": self.stat_commits,
            "signal_toggles": self.stat_toggles,
        }

    # -- kernel internals ------------------------------------------------------

    def _schedule_commit(self, sig: Signal) -> None:
        self._commit_queue.append(sig)

    def _commit_all(self) -> List[Signal]:
        changed: List[Signal] = []
        append = changed.append
        queue, self._commit_queue = self._commit_queue, []
        # Signal._commit inlined: this runs once per scheduled write and
        # the method-call overhead alone was measurable (see E5 bench).
        for sig in queue:
            sig._pending = False
            sig._writer = None
            if sig._next != sig._value:
                sig._value = sig._next
                append(sig)
        self.stat_commits += len(queue)
        self.stat_toggles += len(changed)
        if self._track_changes and changed:
            self._cycle_changed.update(changed)
        return changed

    def _abort_commits(self) -> None:
        """Drop pending writes (recovery after a harvested settle error)."""
        for sig in self._commit_queue:
            sig._pending = False
            sig._writer = None
        self._commit_queue.clear()

    def _run_harvested(self, info: ProcessInfo) -> None:
        """Run ``info.process`` recording kernel errors instead of raising."""
        try:
            info.process()
        except (SignalError, SimulatorError) as exc:
            info.errors.append(exc)
            self.elaboration_errors.append((info, exc))

    def _settle(self) -> None:
        """Run the delta loop until no signal changes."""
        self._settle_changed(self._commit_all())

    def _settle_changed(self, changed: List[Signal]) -> None:
        """Delta-iterate to fixpoint from an initial changed-signal list."""
        deltas = 0
        tracking = self._read_hook is not None
        times = self._proc_times
        while changed:
            deltas += 1
            if deltas > MAX_DELTAS:
                raise DeltaOverflowError(delta_overflow_message(changed))
            woken: List[int] = []
            seen: Set[int] = set()
            for sig in changed:
                for idx in self._sensitivity.get(sig, ()):
                    if idx not in seen:
                        seen.add(idx)
                        woken.append(idx)
            self.stat_activations += len(woken)
            for idx in woken:
                proc = self._comb[idx]
                self.active_process = proc
                if tracking:
                    self._track_info = self.comb_processes[idx]
                    if self._harvest:
                        self._run_harvested(self.comb_processes[idx])
                        continue
                if times is None:
                    proc()
                else:
                    start = perf_counter()
                    proc()
                    cell = times.get(self.comb_processes[idx].name)
                    if cell is None:
                        times[self.comb_processes[idx].name] = cell = [0, 0.0]
                    cell[0] += 1
                    cell[1] += perf_counter() - start
            self.active_process = None
            changed = self._commit_all()
        self.stat_deltas += deltas

    # -- dry-run attribution hooks ---------------------------------------------

    def _note_read(self, sig: Signal) -> None:
        info = self._track_info
        if info is not None:
            info.observed_reads.add(sig)

    def _note_write(self, sig: Signal, value: int) -> None:
        info = self._track_info
        if info is not None:
            info.observed_writes.add(sig)
        if value < 0 or value > sig.mask:
            self.width_events.append((info, sig, value))

    # -- running ---------------------------------------------------------------

    def elaborate(self, *, harvest_errors: bool = False) -> None:
        """Freeze the design, run every combinational process once, settle.

        The first run doubles as the read/write tracking dry run: every
        signal access is attributed to the running combinational process
        and recorded in its :class:`ProcessInfo`.

        With ``harvest_errors=True`` (used by the lint pass) kernel errors
        raised while elaborating — :class:`~repro.kernel.WidthError`,
        :class:`~repro.kernel.MultipleDriverError`,
        :class:`DeltaOverflowError` — are collected into
        ``elaboration_errors`` instead of propagating, so a defective
        design can still be analyzed statically.
        """
        if self._elaborated:
            raise ElaborationError("elaborate() called twice")
        self._elaborated = True
        for tracer in self._tracers:
            for sig in self.signals:
                tracer.declare(sig)
        self._read_hook = self._note_read
        self._write_hook = self._note_write
        self._harvest = harvest_errors
        try:
            for info in self.comb_processes:
                self.active_process = info.process
                self._track_info = info
                if harvest_errors:
                    self._run_harvested(info)
                else:
                    info.process()
            self.active_process = None
            self._track_info = None
            if harvest_errors:
                try:
                    self._settle()
                except (SignalError, SimulatorError) as exc:
                    self.elaboration_errors.append((None, exc))
                    self._abort_commits()
            else:
                self._settle()
        finally:
            self._read_hook = None
            self._write_hook = None
            self._track_info = None
            self._harvest = False
            self.active_process = None
        # The dry run is over and the hooks are gone for good: switch
        # every signal to the unguarded fast accessors, and start
        # maintaining the per-cycle changed-signal set tracers sample.
        for sig in self.signals:
            sig._enable_fast_path()
        self._track_changes = bool(self._tracers)
        # Activity counters start at zero simulated work: the dry-run
        # settle above would otherwise leak into the first cycle's stats.
        self.stat_deltas = 0
        self.stat_activations = 0
        self.stat_commits = 0
        self.stat_toggles = 0
        if self._proc_times is not None:
            self._proc_times.clear()

    def step(self) -> None:
        """Advance one clock cycle: posedge, commit, settle, sample."""
        if not self._elaborated:
            raise ElaborationError("call elaborate() before step()")
        if self._finished:
            raise SimulatorError("simulation already finished")
        times = self._proc_times
        if times is None:
            for proc in self._clocked:
                self.active_process = proc
                proc()
        else:
            for info in self.clocked_processes:
                self.active_process = info.process
                start = perf_counter()
                info.process()
                cell = times.get(info.name)
                if cell is None:
                    times[info.name] = cell = [0, 0.0]
                cell[0] += 1
                cell[1] += perf_counter() - start
        self.active_process = None
        self.stat_activations += len(self._clocked)
        self._settle()
        if self._tracers:
            changed = self._cycle_changed
            for tracer in self._tracers:
                tracer.sample_changes(self.now, self.signals, changed)
            if changed:
                changed.clear()
        self.now += 1

    def run(self, cycles: int) -> None:
        """Run ``cycles`` clock cycles."""
        for _ in range(cycles):
            self.step()

    def run_until(self, predicate: Callable[[], bool], max_cycles: int) -> int:
        """Run until ``predicate()`` is true (checked after each cycle).

        Returns the number of cycles executed; raises
        :class:`SimulatorError` if the predicate never became true.
        """
        for executed in range(1, max_cycles + 1):
            self.step()
            if predicate():
                return executed
        raise SimulatorError(
            f"condition not reached within {max_cycles} cycles"
        )

    def finish(self) -> None:
        """End the simulation, flush tracers and release the design.

        The process tables hold bound methods of modules that hold this
        simulator, and every bound signal points back at it.  Dropping
        the tables and unbinding the signals (back to plain
        :class:`Signal`) leaves the object graph acyclic, so a finished
        run is freed by reference counting alone.  Counters,
        :meth:`process_times` and the tracers stay readable.  Idempotent.
        """
        if self._finished:
            return
        self._finished = True
        for tracer in self._tracers:
            tracer.finish(self.now)
        self._clocked = []
        self._comb = []
        self.clocked_processes = []
        self.comb_processes = []
        self._comb_labels.clear()
        self._clocked_labels.clear()
        for sig in self.signals:
            sig._sim = None
            sig.__class__ = Signal
