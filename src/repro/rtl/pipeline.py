"""Elastic register pipeline used by the RTL node's datapaths.

The node inserts ``pipe_depth`` register stages between the arbitrated
input and each output port.  The pipeline is *elastic*: a stage advances
whenever the next stage is free (bubbles collapse), and the whole pipe
accepts a new payload whenever any stage is free or the output is being
consumed this cycle — the classic ready-chain:

    ready[D-1] = not valid[D-1] or output_fired
    ready[k]   = not valid[k]   or ready[k+1]

State lives in plain Python (the stage registers); the surrounding module
must mirror whatever the grant logic needs into signals or re-evaluate its
combinational processes every cycle (the node uses a tick signal for
that).
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

T = TypeVar("T")


class Pipe(Generic[T]):
    """``depth`` register stages with bubble collapsing.

    A stage holds its payload, or None when it is empty (a payload is
    never None).  Call pattern per clock edge (from a clocked process):

    1. Read :attr:`output` (None: not valid) — it reflects the value
       presented on the port *during the previous cycle*.
    2. Call :meth:`advance` with whether the output was consumed and the
       optional newly accepted payload.
    """

    def __init__(self, depth: int):
        if depth < 1:
            raise ValueError("pipe depth must be >= 1")
        self.depth = depth
        self._data: List[Optional[T]] = [None] * depth
        self._count = 0  # occupied stages
        #: Payload at the output stage (None when not valid).
        self.output: Optional[T] = None

    def can_accept(self, output_fired: bool) -> bool:
        """The combinational ready chain seen by the grant logic."""
        return output_fired or self._count < self.depth

    def advance(self, output_fired: bool, load: Optional[T] = None) -> None:
        """One clock edge: pop the consumed output, shift, load stage 0.

        ``load`` must only be non-None when :meth:`can_accept` was true in
        the pre-edge cycle (the grant logic guarantees this); violating it
        raises ``OverflowError`` to catch node bugs early.
        """
        data = self._data
        if output_fired:
            if data[-1] is None:
                raise RuntimeError("output consumed while pipe output invalid")
            data[-1] = None
            self._count -= 1
        elif not self._count and load is None:
            return  # empty, and it stays empty
        # Shift from the output backwards so a cell moves at most one stage.
        for stage in range(self.depth - 1, 0, -1):
            if data[stage] is None and data[stage - 1] is not None:
                data[stage] = data[stage - 1]
                data[stage - 1] = None
        if load is not None:
            if data[0] is not None:
                raise OverflowError("pipe stage 0 loaded while occupied")
            data[0] = load
            self._count += 1
        self.output = data[-1]
