"""Immutable DAG model of a synthesized FPGA netlist.

Cells are nodes carrying an integer logic delay in picoseconds; nets are
directed edges carrying an integer routing delay. A flip-flop appears as two
unconnected nodes: its D input port (a path sink) and its Q output port (a
path source). No combinational path therefore ever crosses a register, and
every maximal path runs from a source-kind cell (CLK, IN, FF_Q) to a
sink-kind cell (FF_D, MEM_IN, OUT).

All delays are exact integers; no floating point enters the graph layer.
"""

from __future__ import annotations

import copy
import heapq
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, unique
from typing import Mapping


class BlockscopeError(Exception):
    """Base class for every error raised by this package."""


@unique
class CellKind(Enum):
    """Node types: LUTs by input width, FF ports, clock, top-level I/O, memory."""

    LUT1 = "LUT1"
    LUT2 = "LUT2"
    LUT3 = "LUT3"
    LUT4 = "LUT4"
    LUT5 = "LUT5"
    LUT6 = "LUT6"
    FF_D = "FF_D"
    FF_Q = "FF_Q"
    CLK = "CLK"
    IN = "IN"
    OUT = "OUT"
    MEM_IN = "MEM_IN"

    # members are singletons and compare by identity, so the identity hash is
    # consistent and skips Enum's Python-level __hash__ on every set lookup
    __hash__ = object.__hash__

    @property
    def is_source(self) -> bool:
        return self in SOURCE_KINDS

    @property
    def is_sink(self) -> bool:
        return self in SINK_KINDS

    @property
    def is_lut(self) -> bool:
        return self in LUT_KINDS

    @property
    def lut_width(self) -> int:
        if not self.is_lut:
            raise ValueError(f"{self.value} is not a LUT kind")
        return int(self.value[3])


SOURCE_KINDS = frozenset({CellKind.CLK, CellKind.IN, CellKind.FF_Q})
SINK_KINDS = frozenset({CellKind.FF_D, CellKind.MEM_IN, CellKind.OUT})
LUT_KINDS = frozenset(
    {CellKind.LUT1, CellKind.LUT2, CellKind.LUT3, CellKind.LUT4, CellKind.LUT5, CellKind.LUT6}
)


@dataclass(frozen=True, slots=True)
class Cell:
    """One netlist node. logic_delay is in integer picoseconds."""

    id: str
    kind: CellKind
    logic_delay: int = 0


@dataclass(frozen=True, slots=True)
class Net:
    """Directed edge src -> dst with a routing delay in integer picoseconds.

    Fan-out is multiple Net instances sharing src.
    """

    src: str
    dst: str
    net_delay: int = 0


def _successors(
    nets: tuple[Net, ...], index: dict[str, int], at: list[int]
) -> tuple[array, list[tuple[int, ...]], list[int]]:
    """Each cell's successors in ascending order, and the maximum delay of
    the parallel nets into each, flat, with each cell's first position in it.
    Nets with an unknown endpoint are skipped."""
    n = len(at)
    delay_of: dict[int, int] = {}  # i * n + j -> maximum delay of the nets i -> j
    for net in nets:
        i, j = index.get(net.src), index.get(net.dst)
        if i is not None and j is not None:
            d, key = net.net_delay, i * n + j
            if d > delay_of.setdefault(key, d):
                delay_of[key] = d
    keys = sorted(delay_of)  # row-major, so each cell's successors ascend
    delays = [delay_of[k] for k in keys]
    del delay_of  # the largest transient; free it before the rows are built
    starts = array("i", [bisect_left(keys, i * n) for i in range(n + 1)])
    columns = [at[k % n] for k in keys]
    return starts, [tuple(columns[a:b]) for a, b in zip(starts, starts[1:])], delays


class Netlist:
    """Immutable-by-convention container for cells, nets and flip-flop pairs.

    ff_pairs records which FF_D/FF_Q node pair belongs to one physical
    flip-flop; the two nodes stay unconnected in the graph. Construction never
    validates; call validate() for a structured report.

    The graph is indexed once, here, and every layer reads this index. Cell i
    is the i-th distinct id in sorted order, so comparing indices compares
    ids; for a duplicate id the first cell wins. Per index the netlist keeps
    its logic delay, source and sink flags and FF partner (-1 for none).
    succ[i] is the tuple of i's successors in ascending order, and
    succ_delay[succ_first[i] + p] the maximum delay of the parallel nets into
    succ[i][p]; pred[i] holds i's predecessors the same way. Nets with an
    unknown endpoint are left out of the index. order and rank (position in
    order) are the topological order, set once it has been computed.
    """

    __slots__ = (
        "cells", "nets", "ff_pairs", "ids", "index", "_pos", "logic", "source", "sink",
        "succ", "succ_first", "succ_delay", "pred", "partner", "order", "rank",
    )

    def __init__(
        self,
        cells: tuple[Cell, ...] | list[Cell],
        nets: tuple[Net, ...] | list[Net] = (),
        ff_pairs: tuple[tuple[str, str], ...] | list[tuple[str, str]] = (),
    ) -> None:
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.nets: tuple[Net, ...] = tuple(nets)
        self.ff_pairs: tuple[tuple[str, str], ...] = tuple((d, q) for d, q in ff_pairs)
        index: dict[str, int] = {}
        for pos, c in enumerate(self.cells):
            index.setdefault(c.id, pos)
        self.ids = ids = sorted(index)
        n = len(ids)
        self._pos = array("i", [index[cid] for cid in ids])  # position of cell i in cells
        at = list(range(n))  # one int object per index, shared by the dict and every row
        for cid, i in zip(ids, at):
            index[cid] = i  # only values change, so the dict is reused in place
        self.index = index
        kept = [self.cells[p] for p in self._pos]
        self.logic = [c.logic_delay for c in kept]
        self.source = bytes(c.kind in SOURCE_KINDS for c in kept)
        self.sink = bytes(c.kind in SINK_KINDS for c in kept)
        self.succ_first, self.succ, self.succ_delay = _successors(self.nets, index, at)
        pred: list[list[int]] = [[] for _ in range(n)]
        for i, row in zip(at, self.succ):
            for j in row:
                pred[j].append(i)  # i ascends, so every row does too
        self.pred = [tuple(row) for row in pred]
        self.partner = array("i", [-1]) * n
        for d, q in self.ff_pairs:  # a later pair overrides; -1 marks an unknown partner
            i, j = index.get(d, -1), index.get(q, -1)
            if i >= 0:
                self.partner[i] = j
            if j >= 0:
                self.partner[j] = i
        self.order: array | None = None  # set by _kahn once it sorts every cell
        self.rank: array | None = None

    def with_logic_delays(self, delays: Mapping[CellKind, int]) -> "Netlist":
        """This netlist with each cell's logic delay replaced by its kind's.

        Only the cells and the logic delays are new: nets, ff_pairs, the index
        and any cached topological order are shared, since ids and edges are
        unchanged.
        """
        new = copy.copy(self)
        new.cells = tuple(Cell(c.id, c.kind, delays[c.kind]) for c in self.cells)
        new.logic = [new.cells[p].logic_delay for p in self._pos]
        return new

    def cell(self, cell_id: str) -> Cell:
        return self.cells[self._pos[self.index[cell_id]]]

    def cell_at(self, i: int) -> Cell:
        return self.cells[self._pos[i]]

    def has_cell(self, cell_id: str) -> bool:
        return cell_id in self.index

    def cell_ids(self) -> list[str]:
        return list(self.ids)

    def canonical_key(self):
        cells = tuple(sorted(self.cells, key=lambda c: (c.id, c.kind.value, c.logic_delay)))
        nets = tuple(sorted(self.nets, key=lambda n: (n.src, n.dst, n.net_delay)))
        pairs = tuple(sorted(self.ff_pairs))
        return (cells, nets, pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Netlist(cells={len(self.cells)}, nets={len(self.nets)}, ff_pairs={len(self.ff_pairs)})"


@dataclass(frozen=True)
class Violation:
    """One broken structural rule; subject names the offending cell or net."""

    rule: str
    subject: str
    message: str
    cells: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class ValidationError(BlockscopeError):
    """Raised when an operation requires a valid netlist and gets violations."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


def validate(netlist: Netlist) -> ValidationReport:
    """Check every structural invariant and report all violations found.

    Acyclicity is only checked once ids are unique and nets are not dangling,
    so cycle reports always refer to real, well-formed edges.
    """
    out: list[Violation] = []
    index, first = netlist.index, netlist._pos
    for pos, c in enumerate(netlist.cells):
        if first[index[c.id]] != pos:
            out.append(
                Violation("duplicate-cell-id", c.id, f"duplicate cell id {c.id}")
            )
        if not isinstance(c.logic_delay, int) or c.logic_delay < 0:
            out.append(
                Violation(
                    "negative-delay", c.id, f"cell {c.id} logic_delay must be a non-negative integer"
                )
            )
        elif c.kind.is_source and c.logic_delay != 0:
            out.append(
                Violation(
                    "source-kind-delay",
                    c.id,
                    f"cell {c.id} has kind {c.kind.value} and must have logic_delay 0",
                )
            )

    structural = True
    source, sink = netlist.source, netlist.sink
    for n in netlist.nets:
        # endpoints are read once; the key and a Violation exist only for a broken net
        i = index.get(n.src)
        j = index.get(n.dst)
        if i is None or j is None:
            key = f"{n.src}->{n.dst}"
            side, missing = ("src", n.src) if i is None else ("dst", n.dst)
            out.append(Violation(f"dangling-net-{side}", key, f"net {key} references unknown cell {missing}"))
            structural = False
            continue
        bad_delay = not isinstance(n.net_delay, int) or n.net_delay < 0
        into_source = source[j]
        from_sink = sink[i]
        if not (bad_delay or into_source or from_sink):
            continue
        key = f"{n.src}->{n.dst}"
        if bad_delay:
            out.append(
                Violation("negative-delay", key, f"net {key} net_delay must be a non-negative integer")
            )
        if into_source:
            out.append(
                Violation(
                    "edge-into-source-kind",
                    key,
                    f"net {key} drives {n.dst} of source kind {netlist.cell_at(j).kind.value}",
                )
            )
        if from_sink:
            out.append(
                Violation(
                    "edge-from-sink-kind",
                    key,
                    f"net {key} leaves {n.src} of sink kind {netlist.cell_at(i).kind.value}",
                )
            )

    paired: set[str] = set()
    for d, q in netlist.ff_pairs:
        key = f"{d}/{q}"
        missing = [x for x in (d, q) if not netlist.has_cell(x)]
        if missing:
            out.append(
                Violation("ffpair-unknown-cell", key, f"ffpair {key} references unknown cell {missing[0]}")
            )
            continue
        if netlist.cell(d).kind is not CellKind.FF_D or netlist.cell(q).kind is not CellKind.FF_Q:
            out.append(
                Violation(
                    "ffpair-kind-mismatch",
                    key,
                    f"ffpair {key} must pair an FF_D cell with an FF_Q cell",
                )
            )
        for x in (d, q):
            if x in paired:
                out.append(
                    Violation("ffpair-duplicate", x, f"cell {x} appears in more than one ffpair")
                )
            paired.add(x)

    if structural and len(netlist.ids) == len(netlist.cells):
        cycle = _find_cycle(netlist)
        if cycle:
            out.append(_cycle_violation(cycle))
    return ValidationReport(tuple(out))


def _cycle_violation(cycle: list[str]) -> Violation:
    return Violation(
        "combinational-cycle",
        ",".join(cycle),
        "combinational cycle through " + ", ".join(cycle),
        cells=tuple(cycle),
    )


def _kahn(netlist: Netlist) -> list[int]:
    """Kahn's algorithm with a heap so ties pop in ascending index (= id)
    order; returns each cell's in-degree left unprocessed.

    A complete order and its ranks are cached on the netlist.
    """
    succ = netlist.succ
    indeg = [len(row) for row in netlist.pred]
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) == len(indeg):
        netlist.order = array("i", order)
        netlist.rank = rank = array("i", order)
        for r, i in enumerate(order):
            rank[i] = r
    return indeg


def _find_cycle(netlist: Netlist) -> list[str]:
    """Return one real cycle as an id sequence, or [] if the graph is acyclic.

    Walks predecessors inside the unprocessed remainder of Kahn's algorithm
    (every remaining node keeps at least one remaining predecessor), then
    rotates the cycle to start at its smallest id for determinism.
    """
    indeg = _kahn(netlist)
    remaining = {i for i, d in enumerate(indeg) if d > 0}
    if not remaining:
        return []
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    node = min(remaining)
    while node not in seen_at:
        seen_at[node] = len(walk)
        walk.append(node)
        node = next(p for p in netlist.pred[node] if p in remaining)
    cycle = walk[seen_at[node]:]
    cycle.reverse()  # predecessor walk is backwards; report in edge direction
    pivot = cycle.index(min(cycle))
    return [netlist.ids[i] for i in cycle[pivot:] + cycle[:pivot]]


def topological_ranks(netlist: Netlist) -> tuple[array, array]:
    """The topological order as cell indices, and each index's rank in it.

    Computed once per netlist (validate() already does so); ties break by
    ascending cell id. Raises ValidationError carrying the same
    combinational-cycle violation that validate() reports.
    """
    if netlist.order is None:
        cycle = _find_cycle(netlist)
        if cycle:
            raise ValidationError((_cycle_violation(cycle),))
    return netlist.order, netlist.rank


def topological_order(netlist: Netlist) -> list[str]:
    """Deterministic topological order of the cell ids, as a fresh list."""
    ids = netlist.ids
    return [ids[i] for i in topological_ranks(netlist)[0]]
