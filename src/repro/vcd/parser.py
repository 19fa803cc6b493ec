"""VCD (Value Change Dump) parser.

Parses the subset of IEEE 1364 VCD that simulators emit for 2-state designs
(``$scope``/``$var`` headers, scalar ``0<id>``/``1<id>`` and vector
``b<bits> <id>`` changes, ``x``/``z`` digits mapped to 0).  The result is a
:class:`VcdFile` whose signals can be expanded to one value per clock cycle —
the representation the bus analyzer compares across the RTL and BCA runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union
import io


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
    """Parsed VCD: timescale, declared signals, and the final timestamp."""

    def __init__(self, timescale: int) -> None:
        self.timescale = timescale
        self.signals: Dict[str, VcdSignal] = {}
        self.end_time = 0

    @property
    def n_cycles(self) -> int:
        """Number of whole clock cycles covered by the dump."""
        if self.timescale <= 0:
            return 0
        return self.end_time // self.timescale

    def names(self) -> List[str]:
        return sorted(self.signals)

    def __getitem__(self, name: str) -> VcdSignal:
        return self.signals[name]

    def __contains__(self, name: str) -> bool:
        return name in self.signals


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
    newline is treated as VCD text, otherwise as a path.
    """
    if isinstance(source, str):
        if is_path is None:
            is_path = "\n" not in source
        if is_path:
            with open(source, "r", encoding="ascii") as handle:
                source = handle.read()
    else:
        source = source.read()
    return _parse_tokens(source.split())


def _section(tokens: List[str], pos: int) -> Tuple[List[str], int]:
    """The body of the ``$`` section starting at ``pos``, and the index
    just past its ``$end``."""
    try:
        end = tokens.index("$end", pos)
    except ValueError:
        raise VcdParseError("unterminated $ section") from None
    return tokens[pos:end], end + 1


def _parse_tokens(tokens: List[str]) -> VcdFile:
    timescale = 1
    by_ident: Dict[str, List[VcdSignal]] = {}
    scope: List[str] = []
    vcd: Optional[VcdFile] = None
    n_tokens = len(tokens)
    pos = 0

    # -- header ------------------------------------------------------------
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
            width = int(body[1])
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
                    if sig.name in vcd.signals:
                        raise VcdParseError(f"duplicate signal {sig.name!r}")
                    vcd.signals[sig.name] = sig
            break
        else:
            raise VcdParseError(f"unexpected header token {token!r}")
    if vcd is None:
        raise VcdParseError("no $enddefinitions in input")

    # -- value changes -------------------------------------------------------
    # Per ident, each signal's pre-bound change-list appender and mask.
    sinks = {
        ident: [(sig.changes.append, (1 << sig.width) - 1) for sig in group]
        for ident, group in by_ident.items()
    }
    time = 0
    end_time = 0
    while pos < n_tokens:
        token = tokens[pos]
        pos += 1
        first = token[0]
        if first == "#":
            time = int(token[1:])
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
    vcd.end_time = end_time
    return vcd
