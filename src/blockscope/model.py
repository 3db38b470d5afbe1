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


SOURCE_KINDS = frozenset({CellKind.CLK, CellKind.IN, CellKind.FF_Q})
SINK_KINDS = frozenset({CellKind.FF_D, CellKind.MEM_IN, CellKind.OUT})


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
    nets: tuple[Net, ...], index: dict[str, int], at: list[int], kept: list[Cell],
    source: bytes, sink: bytes, out: list[Violation],
) -> tuple[array, list[tuple[int, ...]], list[int], bool]:
    """Each cell's successors in ascending order, and the maximum delay of
    the parallel nets into each, flat, with each cell's first position in it;
    and whether every net was indexed. A net with an unknown endpoint is
    skipped. Each broken net appends its violations to out, in net order."""
    n = len(at)
    complete = True
    delay_of: dict[int, int] = {}  # i * n + j -> maximum delay of the nets i -> j
    for net in nets:
        i, j = index.get(net.src), index.get(net.dst)
        if i is None or j is None:
            key = f"{net.src}->{net.dst}"
            side, missing = ("src", net.src) if i is None else ("dst", net.dst)
            message = f"net {key} references unknown cell {missing}"
            out.append(Violation(f"dangling-net-{side}", key, message))
            complete = False
            continue
        d = net.net_delay
        if source[j] or sink[i] or not isinstance(d, int) or d < 0:
            out += _net_violations(net, kept[i].kind, kept[j].kind)
        key = i * n + j
        if d > delay_of.setdefault(key, d):
            delay_of[key] = d
    keys = sorted(delay_of)  # row-major, so each cell's successors ascend
    delays = [delay_of[k] for k in keys]
    del delay_of  # the largest transient; free it before the rows are built
    starts = array("i", [bisect_left(keys, i * n) for i in range(n + 1)])
    columns = [at[k % n] for k in keys]
    return starts, [tuple(columns[a:b]) for a, b in zip(starts, starts[1:])], delays, complete


def _net_violations(net: Net, src: CellKind, dst: CellKind) -> list[Violation]:
    """The rules a net between two known cells of these kinds breaks."""
    key = f"{net.src}->{net.dst}"
    out = []
    if not isinstance(net.net_delay, int) or net.net_delay < 0:
        out.append(Violation("negative-delay", key, f"net {key} net_delay must be a non-negative integer"))
    if dst in SOURCE_KINDS:
        out.append(
            Violation("edge-into-source-kind", key, f"net {key} drives {net.dst} of source kind {dst.value}")
        )
    if src in SINK_KINDS:
        out.append(
            Violation("edge-from-sink-kind", key, f"net {key} leaves {net.src} of sink kind {src.value}")
        )
    return out


class Netlist:
    """Immutable-by-convention container for cells, nets and flip-flop pairs.

    ff_pairs records which FF_D/FF_Q node pair belongs to one physical
    flip-flop; the two nodes stay unconnected in the graph. Construction
    records the rules the nets and ffpairs break, and a cycle, in
    graph_violations; validate() adds the rules on single cells.

    The graph is indexed once, here, and every layer reads this index. Cell i
    is the i-th distinct id in sorted order, so comparing indices compares
    ids; for a duplicate id the first cell wins. Per index the netlist keeps
    its logic delay, source and sink flags and FF partner (-1 for none).
    succ[i] is the tuple of i's successors in ascending order, and
    succ_delay[succ_first[i] + p] the maximum delay of the parallel nets into
    succ[i][p]; pred[i] holds i's predecessors the same way. Nets with an
    unknown endpoint are left out of the index. order and rank (position in
    order) are the topological order; both are None and cycle holds the
    combinational-cycle violation when the indexed graph has a cycle.
    """

    __slots__ = (
        "cells", "nets", "ff_pairs", "ids", "index", "_pos", "logic", "source", "sink",
        "succ", "succ_first", "succ_delay", "pred", "partner", "order", "rank", "cycle",
        "graph_violations",
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
        out: list[Violation] = []
        self.succ_first, self.succ, self.succ_delay, complete = _successors(
            self.nets, index, at, kept, self.source, self.sink, out
        )
        pred: list[list[int]] = [[] for _ in range(n)]
        for i, row in zip(at, self.succ):
            for j in row:
                pred[j].append(i)  # i ascends, so every row does too
        self.pred = [tuple(row) for row in pred]
        self.partner = partner = array("i", [-1]) * n
        paired: set[int] = set()
        for d, q in self.ff_pairs:  # a later pair overrides; -1 marks an unknown partner
            i, j = index.get(d, -1), index.get(q, -1)
            if i >= 0:
                partner[i] = j
            if j >= 0:
                partner[j] = i
            if i < 0 or j < 0:
                key, missing = f"{d}/{q}", d if i < 0 else q
                message = f"ffpair {key} references unknown cell {missing}"
                out.append(Violation("ffpair-unknown-cell", key, message))
                continue
            if kept[i].kind is not CellKind.FF_D or kept[j].kind is not CellKind.FF_Q:
                key = f"{d}/{q}"
                message = f"ffpair {key} must pair an FF_D cell with an FF_Q cell"
                out.append(Violation("ffpair-kind-mismatch", key, message))
            for x, cid in ((i, d), (j, q)):
                if x in paired:
                    message = f"cell {cid} appears in more than one ffpair"
                    out.append(Violation("ffpair-duplicate", cid, message))
                paired.add(x)
        del kept, at, pred, paired  # free the transients before the sort
        self.order = self.rank = self.cycle = None
        indeg = [len(row) for row in self.pred]
        order = _kahn(self.succ, indeg)
        if len(order) == n:
            self.order = array("i", order)
            self.rank = rank = array("i", order)
            for r, i in enumerate(order):
                rank[i] = r
        else:
            self.cycle = _find_cycle(self.pred, ids, indeg)
            if complete and n == len(self.cells):  # only a cycle of real, well-formed edges is reported
                out.append(self.cycle)
        self.graph_violations: tuple[Violation, ...] = tuple(out)

    def with_logic_delays(self, delays: Mapping[CellKind, int]) -> "Netlist":
        """This netlist with each cell's logic delay replaced by its kind's.

        Only the cells and the logic delays are new: nets, ff_pairs, the index,
        the topological order and the graph violations are shared, since ids
        and edges are unchanged and no graph rule reads a logic delay.
        """
        new = copy.copy(self)
        new.cells = tuple(Cell(c.id, c.kind, delays[c.kind]) for c in self.cells)
        new.logic = [new.cells[p].logic_delay for p in self._pos]
        return new

    def cell(self, cell_id: str) -> Cell:
        return self.cells[self._pos[self.index[cell_id]]]

    def cell_at(self, i: int) -> Cell:
        return self.cells[self._pos[i]]

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

    The rules on single cells are checked here, in cell order; those on nets,
    ffpairs and acyclicity follow, as the netlist recorded them when it was
    built. Acyclicity is only checked once ids are unique and every net is
    indexed, so cycle reports always refer to real, well-formed edges.
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
    return ValidationReport((*out, *netlist.graph_violations))


def _kahn(succ: list[tuple[int, ...]], indeg: list[int]) -> list[int]:
    """Kahn's algorithm with a heap, so ties pop in ascending index (= id)
    order. It consumes indeg: a cell left out of the order keeps its
    in-degree from the other cells left out."""
    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order


def _find_cycle(pred: list[tuple[int, ...]], ids: list[str], indeg: list[int]) -> Violation:
    """The combinational-cycle violation of one real cycle among the cells
    Kahn's algorithm left out, those with in-degree left in indeg.

    Walks predecessors inside that remainder (every remaining node keeps at
    least one remaining predecessor), then rotates the cycle to start at its
    smallest id for determinism.
    """
    remaining = {i for i, d in enumerate(indeg) if d > 0}
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    node = min(remaining)
    while node not in seen_at:
        seen_at[node] = len(walk)
        walk.append(node)
        node = next(p for p in pred[node] if p in remaining)
    cycle = walk[seen_at[node]:]
    cycle.reverse()  # predecessor walk is backwards; report in edge direction
    pivot = cycle.index(min(cycle))
    names = [ids[i] for i in cycle[pivot:] + cycle[:pivot]]
    return Violation(
        "combinational-cycle",
        ",".join(names),
        "combinational cycle through " + ", ".join(names),
        cells=tuple(names),
    )


def topological_ranks(netlist: Netlist) -> tuple[array, array]:
    """The topological order as cell indices, and each index's rank in it.

    Ties break by ascending cell id. Raises ValidationError carrying the
    combinational-cycle violation that the netlist found when it was built.
    """
    if netlist.order is None:
        raise ValidationError((netlist.cycle,))
    return netlist.order, netlist.rank


def topological_order(netlist: Netlist) -> list[str]:
    """Deterministic topological order of the cell ids, as a fresh list."""
    ids = netlist.ids
    return [ids[i] for i in topological_ranks(netlist)[0]]
