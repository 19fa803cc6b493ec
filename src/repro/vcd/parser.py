"""VCD (Value Change Dump) parser.

Parses the subset of IEEE 1364 VCD that simulators emit for 2-state designs
(``$scope``/``$var`` headers, scalar ``0<id>``/``1<id>`` and vector
``b<bits> <id>`` changes, ``x``/``z`` digits mapped to 0).  The result is a
:class:`VcdFile` whose signals can be expanded to one value per clock cycle —
the representation the bus analyzer compares across the RTL and BCA runs.

One token walk builds every change list.  A dump whose value section is
in the canonical form :class:`~repro.vcd.writer.VcdWriter` emits is only
checked by one regex pass at parse time; its change lists are built on
first use, so two byte-identical dumps compare without building any.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union
import io
import re
import sys


class VcdParseError(Exception):
    """Malformed VCD input."""


class VcdSignal:
    """One declared variable: hierarchical name, width, change list."""

    __slots__ = ("name", "width", "ident", "changes")

    def __init__(self, name: str, width: int, ident: str) -> None:
        self.name = name
        self.width = width
        self.ident = ident
        #: list of (time, value), time-ordered, first entry from $dumpvars
        self.changes: List[Tuple[int, int]] = []

    def value_at(self, time: int) -> int:
        """Value at ``time`` (last change at or before it; 0 before any)."""
        result = 0
        for when, value in self.changes:
            if when > time:
                break
            result = value
        return result

    def expand(self, n_cycles: int, timescale: int) -> List[int]:
        """Per-cycle values for cycles ``0..n_cycles-1``."""
        out: List[int] = []
        value = 0
        idx = 0
        changes = self.changes
        n_changes = len(changes)
        for cycle in range(n_cycles):
            t = cycle * timescale
            while idx < n_changes and changes[idx][0] <= t:
                value = changes[idx][1]
                idx += 1
            out.append(value)
        return out


class VcdFile:
    """Parsed VCD: timescale, declared signals, and the final timestamp.

    A canonical dump keeps its text until :attr:`signals` or ``vcd[name]``
    first asks for change lists; names, ``in`` and :attr:`n_cycles` never
    build them.
    """

    def __init__(self, timescale: int) -> None:
        self.timescale = timescale
        self._signals: Dict[str, VcdSignal] = {}
        self.end_time = 0
        #: The dump's text and its header's token count while the change
        #: lists are unbuilt.
        self._pending: Optional[Tuple[str, int]] = None

    @property
    def signals(self) -> Dict[str, VcdSignal]:
        """Every declared signal by name, change lists built."""
        if self._pending is not None:
            text, pos = self._pending
            self._pending = None
            _walk_values(text.split(), pos, self._signals)
        return self._signals

    def same_dump(self, other: "VcdFile") -> bool:
        """True when both files hold the same unbuilt canonical text, so
        every signal has equal change lists in the two."""
        return (self._pending is not None and other._pending is not None
                and self._pending[0] == other._pending[0])

    @property
    def n_cycles(self) -> int:
        """Number of whole clock cycles covered by the dump."""
        if self.timescale <= 0:
            return 0
        return self.end_time // self.timescale

    def names(self) -> List[str]:
        return sorted(self._signals)

    def __getitem__(self, name: str) -> VcdSignal:
        return self.signals[name]

    def __contains__(self, name: str) -> bool:
        return name in self._signals


def _parse_vector(token: str) -> int:
    """Parse the binary digits of a vector change, mapping x/z to 0."""
    value = 0
    for ch in token:
        value <<= 1
        if ch == "1":
            value |= 1
        elif ch not in "0xXzZ":
            raise VcdParseError(f"bad vector digit {ch!r}")
    return value


def parse_vcd(source: Union[str, io.TextIOBase], is_path: Optional[bool] = None) -> VcdFile:
    """Parse a VCD from a file path, VCD text, or text stream.

    ``is_path`` disambiguates strings; by default a string containing a
    newline is treated as VCD text, otherwise as a path.  Malformed input
    raises :class:`VcdParseError` here, never on later access.
    """
    if isinstance(source, str):
        if is_path is None:
            is_path = "\n" not in source
        if is_path:
            with open(source, "r", encoding="ascii") as handle:
                source = handle.read()
    else:
        source = source.read()
    vcd = _parse_canonical(source)
    return vcd if vcd is not None else _parse_tokens(source.split())


# -- canonical dumps ----------------------------------------------------------

#: Where a canonical header ends; the value section follows it.
_HEADER_END = "\n$enddefinitions $end"

#: Timestamps of a canonical value section.
_TIMESTAMP = re.compile(r"\n#([0-9]+)")

#: The canonical scan's loop over lines.  A possessive loop keeps no
#: backtracking state per line; before Python 3.11 ``re`` has only the
#: greedy one, which accepts the same text.
_EACH_LINE = "*+" if sys.version_info >= (3, 11) else "*"


class _Header:
    """A canonical header, parsed once however many dumps repeat it."""

    __slots__ = ("timescale", "decls", "n_tokens", "body")

    def __init__(self, vcd: VcdFile, n_tokens: int) -> None:
        self.timescale = vcd.timescale
        #: (name, width, ident) in the order the token walk lists signals
        self.decls = tuple((sig.name, sig.width, sig.ident)
                           for sig in vcd._signals.values())
        self.n_tokens = n_tokens
        # Canonical means one change per line, each naming a declared id.
        ident = _ident_pattern({sig.ident for sig in vcd._signals.values()})
        self.body = re.compile(
            r"\n(?:(?:b[01]+ %s|[01]%s|#[0-9]{1,18}|\$dumpvars|\$end)\n)%s"
            % (ident, ident, _EACH_LINE))


def _ident_pattern(idents: set[str]) -> str:
    """A regex matching exactly ``idents``: one character class of first
    characters per shared tail, so a line tries a handful of branches
    rather than one per id."""
    if not idents:
        return "(?!)"
    heads: Dict[str, List[str]] = {}
    for ident in sorted(idents):
        heads.setdefault(ident[1:], []).append(ident[0])
    return "(?:%s)" % "|".join(
        "[%s]%s" % ("".join(map(re.escape, firsts)), re.escape(tail))
        for tail, firsts in sorted(heads.items(), key=lambda kv: -len(kv[1])))


@lru_cache(maxsize=32)
def _canonical_header(text: str) -> Optional[_Header]:
    """The header ``text`` parsed by the token walk, or ``None`` when it
    is not a complete header on its own (the full walk then decides)."""
    tokens = text.split()
    try:
        vcd, pos = _parse_header(tokens)
    except VcdParseError:
        return None
    return _Header(vcd, pos) if pos == len(tokens) else None


def _parse_canonical(text: str) -> Optional[VcdFile]:
    """A file with unbuilt change lists when the value section is
    canonical and names only declared ids; otherwise ``None``."""
    end = text.find(_HEADER_END)
    if end < 0:
        return None
    end += len(_HEADER_END)
    header = _canonical_header(text[:end])
    if header is None or header.body.fullmatch(text, end) is None:
        return None
    vcd = VcdFile(header.timescale)
    vcd._signals = {name: VcdSignal(name, width, ident)
                    for name, width, ident in header.decls}
    vcd.end_time = max(map(int, _TIMESTAMP.findall(text, end)), default=0)
    vcd._pending = (text, header.n_tokens)
    return vcd


# -- token walk ---------------------------------------------------------------


def _section(tokens: List[str], pos: int) -> Tuple[List[str], int]:
    """The body of the ``$`` section starting at ``pos``, and the index
    just past its ``$end``."""
    try:
        end = tokens.index("$end", pos)
    except ValueError:
        raise VcdParseError("unterminated $ section") from None
    return tokens[pos:end], end + 1


def _parse_tokens(tokens: List[str]) -> VcdFile:
    vcd, pos = _parse_header(tokens)
    vcd.end_time = _walk_values(tokens, pos, vcd._signals)
    return vcd


def _parse_header(tokens: List[str]) -> Tuple[VcdFile, int]:
    """The file the header declares, and the index of the first value
    token."""
    timescale = 1
    by_ident: Dict[str, List[VcdSignal]] = {}
    scope: List[str] = []
    n_tokens = len(tokens)
    pos = 0
    while pos < n_tokens:
        token = tokens[pos]
        pos += 1
        if token in ("$date", "$version", "$comment"):
            _, pos = _section(tokens, pos)
        elif token == "$timescale":
            body, pos = _section(tokens, pos)
            body = "".join(body)
            digits = "".join(ch for ch in body if ch.isdigit())
            if not digits:
                raise VcdParseError(f"bad timescale {body!r}")
            timescale = int(digits)
        elif token == "$scope":
            body, pos = _section(tokens, pos)
            if len(body) != 2:
                raise VcdParseError(f"bad $scope {body!r}")
            scope.append(body[1])
        elif token == "$upscope":
            _, pos = _section(tokens, pos)
            if not scope:
                raise VcdParseError("$upscope with empty scope stack")
            scope.pop()
        elif token == "$var":
            body, pos = _section(tokens, pos)
            if len(body) < 4:
                raise VcdParseError(f"bad $var {body!r}")
            try:
                width = int(body[1])
            except ValueError:
                width = -1
            if width < 0:
                raise VcdParseError(f"bad $var width {body[1]!r}")
            ident = body[2]
            leaf = body[3]  # ignore optional [msb:lsb] reference tail
            name = ".".join(scope + [leaf])
            sig = VcdSignal(name, width, ident)
            by_ident.setdefault(ident, []).append(sig)
        elif token == "$enddefinitions":
            _, pos = _section(tokens, pos)
            vcd = VcdFile(timescale)
            for ident_signals in by_ident.values():
                for sig in ident_signals:
                    if sig.name in vcd._signals:
                        raise VcdParseError(f"duplicate signal {sig.name!r}")
                    vcd._signals[sig.name] = sig
            return vcd, pos
        else:
            raise VcdParseError(f"unexpected header token {token!r}")
    raise VcdParseError("no $enddefinitions in input")


def _walk_values(tokens: List[str], pos: int,
                 signals: Dict[str, VcdSignal]) -> int:
    """Append the value changes from ``tokens[pos:]`` to the change lists
    of ``signals``; return the largest timestamp."""
    # Per ident, each signal's pre-bound change-list appender and mask.
    sinks: Dict[str, List[Tuple[object, int]]] = {}
    for sig in signals.values():
        sinks.setdefault(sig.ident, []).append(
            (sig.changes.append, (1 << sig.width) - 1))
    n_tokens = len(tokens)
    time = 0
    end_time = 0
    while pos < n_tokens:
        token = tokens[pos]
        pos += 1
        first = token[0]
        if first == "#":
            try:
                time = int(token[1:])
            except ValueError:
                raise VcdParseError(f"bad timestamp {token!r}") from None
            if time > end_time:
                end_time = time
            continue
        if first in "01xXzZ":
            ident = token[1:]
            value = 1 if first == "1" else 0
        elif first in "bB":
            if pos == n_tokens:
                raise VcdParseError("vector change missing identifier")
            bits = token[1:]
            ident = tokens[pos]
            pos += 1
            # int() alone would also accept "0b1", "1_0", "+1" and "-1".
            if bits and not bits.strip("01"):
                value = int(bits, 2)
            else:
                value = _parse_vector(bits)
        elif first in "rR":
            if pos == n_tokens:
                raise VcdParseError("real change missing identifier")
            pos += 1  # real values unsupported; skip id
            continue
        elif first == "$":
            if token not in ("$dumpvars", "$dumpall", "$dumpon", "$dumpoff",
                             "$end"):
                _, pos = _section(tokens, pos)
            continue
        else:
            raise VcdParseError(f"unexpected token {token!r} in value section")
        group = sinks.get(ident)
        if group is None:
            raise VcdParseError(f"value change for undeclared id {ident!r}")
        for append, mask in group:
            append((time, value & mask))
    return end_time
