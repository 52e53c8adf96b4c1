"""Abstract global-state semantics of the E/O/S/I protocol.

The declarative table in :mod:`repro.coma.protocol` describes one node's
copy of a line.  This module lifts it to a *machine-wide* transition
system over small configurations so the model checker can enumerate every
reachable global state: a global state assigns one of I/S/O/E to each
(line, node) pair, and a step is a locally-triggered event — a load, a
store or an eviction at one node — together with the bus side effects the
table prescribes for every other node.

The lifting rules mirror the simulator exactly:

* a ``local_read``/``local_write`` whose table row carries a bus action
  makes every other node snoop the matching remote event (``read`` →
  ``remote_read``; ``read_excl``/``upgrade`` → ``remote_write``);
* an eviction whose row carries ``replace`` is the accept-based
  relocation: some *receiver* node applies its ``inject`` row, resolved
  against the surviving sharer set (:meth:`Transition.resolved`).  All
  possible receivers are explored nondeterministically;
* evictions of Shared copies are silent local drops.

Lines do not interact (the abstract model has no capacity), so multiple
lines compose as an interleaved product — useful for checking that the
invariants are genuinely per-line.

:meth:`ProtocolModel.fire` is the one implementation of a step: it
returns the successor together with the table cells the step fired.
:class:`StateGraph` is the one search over the model — a breadth-first
exploration that keeps every labelled edge and a parent pointer per
state.  The model checker, the liveness proofs, the C104 bisimulation
and the coverage pass are all queries over that graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.coma.protocol import TRANSITIONS, Transition
from repro.coma.states import EXCLUSIVE, INVALID, SHARED, state_name

#: Events a node can trigger on its own; the remaining events in
#: :data:`repro.coma.protocol.EVENTS` only ever occur as side effects.
LOCAL_EVENTS = ("local_read", "local_write", "evict")

#: Per-line global state: one protocol state per node.
LineState = tuple[int, ...]
#: Full global state: one LineState per modeled line.
GlobalState = tuple[LineState, ...]

#: One table cell: (state letter, event, sharer tag).  ``tag`` is
#: "alone"/"sharers" for the sharer-dependent inject rows, "-" otherwise.
Cell = tuple[str, str, str]

#: Sharer tag for sharer-independent cells.
NO_TAG = "-"

#: Hard backstop on explored states; real configurations explore far fewer.
MAX_STATES = 1_000_000

#: Remote event every other node snoops when a row carries a bus action
#: (``replace`` is handled via the receiver instead).
_SNOOPED = {"read": "remote_read", "read_excl": "remote_write",
            "upgrade": "remote_write"}


@dataclass(frozen=True)
class Step:
    """One atomic global transition: ``event`` triggered at ``node`` for
    ``line``, relocating into ``receiver`` when the event is an owner
    eviction."""

    line: int
    node: int
    event: str
    receiver: Optional[int] = None

    def describe(self) -> str:
        s = f"node {self.node} {self.event}"
        if self.receiver is not None:
            s += f" -> inject@node {self.receiver}"
        if self.line:
            s += f" [line {self.line}]"
        return s


def format_line_state(states: LineState) -> str:
    return " ".join(state_name(s) for s in states)


def format_global_state(gs: GlobalState) -> str:
    return " | ".join(format_line_state(ls) for ls in gs)


class ProtocolModel:
    """The table lifted to a finite transition system."""

    def __init__(
        self,
        transitions: Sequence[Transition] | Mapping[tuple[int, str], Transition] = TRANSITIONS,
        n_nodes: int = 3,
        n_lines: int = 1,
    ) -> None:
        if n_nodes < 2:
            raise ValueError("the protocol is only meaningful with >= 2 nodes")
        if n_lines < 1:
            raise ValueError("need at least one line")
        if isinstance(transitions, Mapping):
            self.table = dict(transitions)
        else:
            self.table = {(t.state, t.event): t for t in transitions}
        self.n_nodes = n_nodes
        self.n_lines = n_lines

    # ------------------------------------------------------------------
    def initial_state(self) -> GlobalState:
        """Every line freshly materialized at node 0 in Exclusive state —
        exactly what first-touch page allocation produces.  All other
        owner placements are reachable from here by relocation, so one
        symmetric start suffices."""
        ls = (EXCLUSIVE,) + (INVALID,) * (self.n_nodes - 1)
        return (ls,) * self.n_lines

    def _row(self, state: int, event: str) -> Optional[Transition]:
        """The row for ``(state, event)``, or None when it cannot fire."""
        row = self.table.get((state, event))
        return None if row is None or row.next_state is None else row

    # ------------------------------------------------------------------
    def steps(self, gs: GlobalState) -> list[Step]:
        """All steps enabled in ``gs`` (excluding stuck relocations)."""
        out: list[Step] = []
        for line, ls in enumerate(gs):
            for node, state in enumerate(ls):
                for event in LOCAL_EVENTS:
                    row = self._row(state, event)
                    if row is None:
                        continue
                    if event == "evict" and row.bus_action == "replace":
                        for rcv in self.receivers(ls, node):
                            out.append(Step(line, node, event, rcv))
                    else:
                        out.append(Step(line, node, event))
        return out

    def stuck_relocations(self, gs: GlobalState) -> list[Step]:
        """Owner evictions that are enabled but have no willing receiver:
        applying one would drop the machine's last copy of the line."""
        out: list[Step] = []
        for line, ls in enumerate(gs):
            for node, state in enumerate(ls):
                row = self._row(state, "evict")
                if (row is not None and row.bus_action == "replace"
                        and not self.receivers(ls, node)):
                    out.append(Step(line, node, "evict"))
        return out

    def receivers(self, ls: LineState, evictor: int) -> list[int]:
        """Nodes whose ``inject`` row can accept a relocated line."""
        return [
            node for node, state in enumerate(ls)
            if node != evictor and self._row(state, "inject") is not None
        ]

    # ------------------------------------------------------------------
    def apply(self, gs: GlobalState, step: Step) -> GlobalState:
        """The global state after ``step``."""
        return self.fire(gs, step)[0]

    def fire(
        self, gs: GlobalState, step: Step
    ) -> tuple[GlobalState, tuple[Cell, ...]]:
        """The global state after ``step`` and the table cells it fired:
        the actor's row, each snooping node's remote row, then the
        receiver's ``inject`` row resolved against the surviving sharer
        set (tagged alone/sharers when the row is sharer-dependent)."""
        ls = list(gs[step.line])
        actor = step.node
        row = self._row(ls[actor], step.event)
        if row is None:
            raise ValueError(f"step not enabled: {step.describe()}")
        cells = [(state_name(ls[actor]), step.event, NO_TAG)]

        remote = _SNOOPED.get(row.bus_action)
        if remote is not None:
            for node, state in enumerate(ls):
                snoop = self._row(state, remote)
                if node != actor and snoop is not None:
                    cells.append((state_name(state), remote, NO_TAG))
                    ls[node] = snoop.next_state

        ls[actor] = row.next_state

        if step.receiver is not None:
            rcv_state = ls[step.receiver]
            rcv_row = self._row(rcv_state, "inject")
            if rcv_row is None:
                raise ValueError(f"receiver cannot accept: {step.describe()}")
            sharers_exist = any(
                s == SHARED
                for n, s in enumerate(ls)
                if n not in (actor, step.receiver)
            )
            tag = NO_TAG
            if rcv_row.next_state_sharers not in (None, rcv_row.next_state):
                tag = "sharers" if sharers_exist else "alone"
            cells.append((state_name(rcv_state), "inject", tag))
            ls[step.receiver] = rcv_row.resolved(sharers_exist)

        new = list(gs)
        new[step.line] = tuple(ls)
        return tuple(new), tuple(cells)


#: One labelled out-edge of the state graph.
Edge = tuple[Step, GlobalState, tuple[Cell, ...]]
#: One counterexample entry: the step taken and the state it produced
#: (None: the step would lose the line).  The initial state has step None.
TraceEntry = tuple[Optional[Step], Optional[GlobalState]]


class StateGraph:
    """Every global state reachable from ``model.initial_state()``,
    explored breadth-first.

    ``edges`` maps each expanded state, in BFS order, to its complete
    ``(step, successor, cells)`` out-edges in :meth:`ProtocolModel.steps`
    order.  ``parent`` maps each discovered state to the ``(previous
    state, step)`` that first reached it (None for the initial state);
    FIFO order makes those paths — and so every counterexample built by
    :meth:`trace_to` — minimal.  Once ``max_states`` states are
    discovered the search stops and ``truncated`` is set; the state being
    expanded still keeps all its edges, some leading out of the graph.
    """

    def __init__(self, model: ProtocolModel, max_states: int = MAX_STATES) -> None:
        self.model = model
        init = model.initial_state()
        self.parent: dict[GlobalState, Optional[tuple[GlobalState, Step]]] = {init: None}
        self.edges: dict[GlobalState, list[Edge]] = {}
        self.truncated = False
        queue = deque([init])
        while queue and not self.truncated:
            state = queue.popleft()
            out: list[Edge] = []
            self.edges[state] = out
            for step in model.steps(state):
                succ, cells = model.fire(state, step)
                out.append((step, succ, cells))
                if succ in self.parent:
                    continue
                if len(self.parent) >= max_states:
                    self.truncated = True
                else:
                    self.parent[succ] = (state, step)
                    queue.append(succ)

    @property
    def n_transitions(self) -> int:
        return sum(len(out) for out in self.edges.values())

    def trace_to(self, state: GlobalState) -> list[TraceEntry]:
        """The (step, resulting state) path from the initial state to
        ``state``; the first entry has step None (the initial state)."""
        path: list[TraceEntry] = []
        cur: Optional[GlobalState] = state
        while cur is not None:
            link = self.parent[cur]
            path.append((None if link is None else link[1], cur))
            cur = None if link is None else link[0]
        path.reverse()
        return path

    def counterexample(self, state: GlobalState, *tail: TraceEntry) -> str:
        """:func:`format_trace` of the path to ``state``, then ``tail``."""
        return format_trace(self.trace_to(state) + list(tail))


def format_trace(trace: Sequence[TraceEntry]) -> str:
    """Render a counterexample as numbered events with per-node states."""
    lines = ["counterexample trace (states are per-node, nodes left to right):"]
    for i, (step, state) in enumerate(trace):
        states = format_global_state(state) if state is not None else "(would lose the line)"
        if step is None:
            lines.append(f"  init: {states}")
        else:
            lines.append(f"  step {i}: {step.describe():40s} -> {states}")
    return "\n".join(lines)
