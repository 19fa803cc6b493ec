"""Standard Value Change Dump (VCD, IEEE 1364) writer.

The paper's regression tool dumps one VCD per run "so that it can be used
later for bus accurate comparison".  This writer implements the
:class:`~repro.kernel.simulator.Tracer` interface: the simulator declares
every signal during elaboration and the writer emits one timestep per clock
cycle, recording only the signals whose value changed (per the format).

Hierarchical signal names (``top.dut.req``) become nested ``$scope module``
sections so third-party viewers show the same hierarchy the testbench has.
"""

from __future__ import annotations

import contextlib
import io
import os
from typing import (
    Dict, Iterable, List, Optional, Sequence, Set, TextIO, Tuple, Union,
)

from ..ioutil import TMP_SUFFIX
from ..kernel.signal import Signal
from ..kernel.simulator import Tracer

#: Flush the output buffer once it holds this many characters.
_FLUSH_CHARS = 1 << 16

#: VCD identifier alphabet (printable ASCII, per the standard).
_ID_FIRST = 33  # '!'
_ID_LAST = 126  # '~'
_ID_RANGE = _ID_LAST - _ID_FIRST + 1


def make_identifier(index: int) -> str:
    """Return the VCD short identifier for the ``index``-th variable."""
    if index < 0:
        raise ValueError("identifier index must be non-negative")
    chars = [chr(_ID_FIRST + index % _ID_RANGE)]
    index //= _ID_RANGE
    while index:
        index -= 1
        chars.append(chr(_ID_FIRST + index % _ID_RANGE))
        index //= _ID_RANGE
    return "".join(chars)


class _ScopeNode:
    """A node of the scope tree built from hierarchical signal names."""

    def __init__(self) -> None:
        self.children: Dict[str, "_ScopeNode"] = {}
        self.vars: List[tuple] = []  # (leaf name, width, ident)

    def emit(self, out: TextIO, name: Optional[str] = None) -> None:
        if name is not None:
            out.write(f"$scope module {name} $end\n")
        for leaf, width, ident in self.vars:
            ref = leaf if width == 1 else f"{leaf} [{width - 1}:0]"
            out.write(f"$var wire {width} {ident} {ref} $end\n")
        for child_name in sorted(self.children):
            self.children[child_name].emit(out, child_name)
        if name is not None:
            out.write("$upscope $end\n")


class VcdWriter(Tracer):
    """Write a VCD file sampled once per clock cycle.

    Parameters
    ----------
    target:
        File path or writable text stream.
    timescale_ns:
        Nanoseconds per clock cycle; one cycle advances the VCD timestamp
        by this amount (default 10 ns, a 100 MHz clock).
    """

    def __init__(self, target: Union[str, TextIO], timescale_ns: int = 10):
        if timescale_ns < 1:
            raise ValueError("timescale_ns must be >= 1")
        self._own_stream = isinstance(target, str)
        # When the writer owns the file it stages into a sibling temp
        # file and atomically renames in finish(): a run killed mid-dump
        # leaves no half-written VCD behind for the analyzer (or the
        # result cache) to trust.
        self._final_path: Optional[str] = target if self._own_stream else None
        self._out: TextIO = (
            open(target + TMP_SUFFIX, "w", encoding="ascii")
            if isinstance(target, str) else target
        )
        self.timescale_ns = timescale_ns
        # Everything per signal is kept by declaration rank, the order
        # changes are emitted in.  A one-bit signal's two change lines
        # (``0!``, ``1!``) are made once; a vector's line is ``b``, the
        # value in binary, then its tail (`` "``).
        self._signals: List[Signal] = []
        self._rank: Dict[Signal, int] = {}
        self._bit_lines: List[Optional[Tuple[str, str]]] = []
        self._tails: List[str] = []
        #: Last-emitted value per rank (None until the header dumps it).
        self._last: List[Optional[int]] = []
        self._header_written = False
        self._finished = False
        #: Characters flushed to the stream so far (the output is ASCII,
        #: so this equals bytes on disk); telemetry reads it per run.
        self.bytes_written = 0
        # Value-change lines are batched here and written in one
        # ``str.join`` per ~64 KiB instead of one stream write per line.
        self._buf: List[str] = []
        self._buf_chars = 0

    # -- Tracer interface -------------------------------------------------

    def declare(self, signal: Signal) -> None:
        if self._header_written:
            raise RuntimeError("cannot declare signals after the first sample")
        rank = len(self._signals)
        signal.vcd_id = ident = make_identifier(rank)
        self._rank[signal] = rank
        self._signals.append(signal)
        if signal.width == 1:
            self._bit_lines.append((f"0{ident}", f"1{ident}"))
            self._tails.append("")
        else:
            self._bit_lines.append(None)
            self._tails.append(f" {ident}")
        self._last.append(None)

    def sample(self, cycle: int, signals: Sequence[Signal]) -> None:
        self._emit(cycle, range(len(self._signals)))

    def sample_changes(
        self,
        cycle: int,
        signals: Sequence[Signal],
        changed: Set[Signal],
    ) -> None:
        """Fast-path sample: only signals that committed a change this
        cycle are inspected.  Emission stays in declaration order, so the
        bytes are identical to a full :meth:`sample` scan."""
        if len(changed) == len(self._signals):
            self._emit(cycle, range(len(self._signals)))
        else:
            self._emit(cycle, sorted(map(self._rank.__getitem__, changed)))

    def finish(self, cycle: int) -> None:
        if self._finished:
            return
        self._finished = True
        if not self._header_written:
            self._write_header()
        self._w(f"#{cycle * self.timescale_ns}\n")
        self._flush()
        if self._own_stream:
            self._out.close()
            os.replace(self._final_path + TMP_SUFFIX, self._final_path)
        else:
            self._out.flush()

    def abort(self) -> None:
        """Stop without finishing the dump: close the stream and, when the
        writer owns the file, remove its temp file (the final path is
        never written).  A no-op after :meth:`finish`."""
        if self._finished:
            return
        self._finished = True
        if self._own_stream:
            self._out.close()
            with contextlib.suppress(OSError):
                os.remove(self._final_path + TMP_SUFFIX)

    # -- internals ---------------------------------------------------------

    def _emit(self, cycle: int, ranks: Iterable[int]) -> None:
        """Write the changes among the signals of ``ranks`` (ascending)."""
        if not self._header_written:
            self._write_header()
        # One string per sampled cycle: the timestamp line (filled in
        # below), then one line per change.
        lines: List[str] = [""]
        append = lines.append
        signals, last = self._signals, self._last
        bit_lines, tails = self._bit_lines, self._tails
        for rank in ranks:
            value = signals[rank]._value
            if last[rank] != value:
                last[rank] = value
                bit = bit_lines[rank]
                append(bit[value] if bit is not None
                       else f"b{value:b}{tails[rank]}")
        if len(lines) > 1 or cycle == 0:
            lines[0] = f"#{cycle * self.timescale_ns}"
            lines.append("")
            self._w("\n".join(lines))

    def _w(self, text: str) -> None:
        self._buf.append(text)
        self._buf_chars += len(text)
        if self._buf_chars >= _FLUSH_CHARS:
            self._flush()

    def _flush(self) -> None:
        if self._buf:
            self._out.write("".join(self._buf))
            self.bytes_written += self._buf_chars
            self._buf.clear()
            self._buf_chars = 0

    def _write_header(self) -> None:
        self._header_written = True
        w = self._w
        w("$date\n  repro common verification environment\n$end\n")
        w("$version\n  repro.vcd 1.0\n$end\n")
        w(f"$timescale {self.timescale_ns}ns $end\n")
        root = _ScopeNode()
        for sig in self._signals:
            parts = sig.name.split(".")
            node = root
            for part in parts[:-1]:
                node = node.children.setdefault(part, _ScopeNode())
            node.vars.append((parts[-1], sig.width, sig.vcd_id))
        header = io.StringIO()
        root.emit(header)
        w(header.getvalue())
        w("$enddefinitions $end\n")
        w("$dumpvars\n")
        for rank, sig in enumerate(self._signals):
            self._last[rank] = value = sig._value
            bit = self._bit_lines[rank]
            w((bit[value] if bit is not None
               else f"b{value:b}{self._tails[rank]}") + "\n")
        w("$end\n")


def dump_to_string(sample_rows: Sequence[Dict[str, int]], widths: Dict[str, int]) -> str:
    """Utility: build a VCD text from explicit per-cycle samples.

    ``sample_rows[c][name]`` is the value of ``name`` during cycle ``c``.
    Used by tests and by the BCA trace replayer.
    """
    buf = io.StringIO()
    writer = VcdWriter(buf)
    signals = [Signal(name, width=width) for name, width in widths.items()]
    for sig in signals:
        writer.declare(sig)
    for cycle, row in enumerate(sample_rows):
        for sig in signals:
            if sig.name in row:
                sig.poke(row[sig.name])
        writer.sample(cycle, signals)
    writer.finish(len(sample_rows))
    return buf.getvalue()
