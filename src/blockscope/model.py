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

import heapq
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


def _first_by_id(cells: tuple[Cell, ...]) -> dict[str, Cell]:
    by_id: dict[str, Cell] = {}
    for c in cells:
        by_id.setdefault(c.id, c)
    return by_id


class Netlist:
    """Immutable-by-convention container for cells, nets and flip-flop pairs.

    ff_pairs records which FF_D/FF_Q node pair belongs to one physical
    flip-flop; the two nodes stay unconnected in the graph. Construction never
    validates; call validate() for a structured report.
    """

    __slots__ = ("cells", "nets", "ff_pairs", "_by_id", "_in", "_out", "_order")

    def __init__(
        self,
        cells: tuple[Cell, ...] | list[Cell],
        nets: tuple[Net, ...] | list[Net] = (),
        ff_pairs: tuple[tuple[str, str], ...] | list[tuple[str, str]] = (),
    ) -> None:
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.nets: tuple[Net, ...] = tuple(nets)
        self.ff_pairs: tuple[tuple[str, str], ...] = tuple((d, q) for d, q in ff_pairs)
        self._by_id = _first_by_id(self.cells)
        ins: dict[str, list[Net]] = {}
        outs: dict[str, list[Net]] = {}
        for n in self.nets:
            outs.setdefault(n.src, []).append(n)
            ins.setdefault(n.dst, []).append(n)
        self._in = {k: tuple(v) for k, v in ins.items()}
        self._out = {k: tuple(v) for k, v in outs.items()}
        self._order: list[str] | None = None  # set by _kahn once it sorts every cell

    def with_logic_delays(self, delays: Mapping[CellKind, int]) -> "Netlist":
        """This netlist with each cell's logic delay replaced by its kind's.

        Only the cells are new: nets, ff_pairs, the adjacency maps and any
        cached topological order are shared, since ids and edges are unchanged.
        """
        new = Netlist.__new__(Netlist)
        new.cells = tuple(Cell(c.id, c.kind, delays[c.kind]) for c in self.cells)
        new._by_id = _first_by_id(new.cells)
        new.nets, new.ff_pairs = self.nets, self.ff_pairs
        new._in, new._out, new._order = self._in, self._out, self._order
        return new

    def cell(self, cell_id: str) -> Cell:
        return self._by_id[cell_id]

    def has_cell(self, cell_id: str) -> bool:
        return cell_id in self._by_id

    def in_nets(self, cell_id: str) -> tuple[Net, ...]:
        return self._in.get(cell_id, ())

    def out_nets(self, cell_id: str) -> tuple[Net, ...]:
        return self._out.get(cell_id, ())

    def cell_ids(self) -> list[str]:
        return sorted(self._by_id)

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
    seen: set[str] = set()
    for c in netlist.cells:
        if c.id in seen:
            out.append(
                Violation("duplicate-cell-id", c.id, f"duplicate cell id {c.id}")
            )
        seen.add(c.id)
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
    by_id = netlist._by_id
    for n in netlist.nets:
        # endpoints are read once; the key and a Violation exist only for a broken net
        src = by_id.get(n.src)
        dst = by_id.get(n.dst)
        if src is None or dst is None:
            key = f"{n.src}->{n.dst}"
            side, missing = ("src", n.src) if src is None else ("dst", n.dst)
            out.append(Violation(f"dangling-net-{side}", key, f"net {key} references unknown cell {missing}"))
            structural = False
            continue
        bad_delay = not isinstance(n.net_delay, int) or n.net_delay < 0
        into_source = dst.kind in SOURCE_KINDS
        from_sink = src.kind in SINK_KINDS
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
                    f"net {key} drives {n.dst} of source kind {dst.kind.value}",
                )
            )
        if from_sink:
            out.append(
                Violation(
                    "edge-from-sink-kind",
                    key,
                    f"net {key} leaves {n.src} of sink kind {src.kind.value}",
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

    if structural and len(seen) == len(netlist.cells):
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


def _kahn(netlist: Netlist) -> tuple[list[str], dict[str, int]]:
    """Kahn's algorithm with a heap so ties pop in ascending id order.

    A complete order is cached on the netlist for topological_order.
    """
    indeg = {cid: 0 for cid in netlist._by_id}
    for n in netlist.nets:
        if n.dst in indeg and n.src in indeg:
            indeg[n.dst] += 1
    ready = [cid for cid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        cid = heapq.heappop(ready)
        order.append(cid)
        for n in netlist.out_nets(cid):
            if n.dst in indeg:
                indeg[n.dst] -= 1
                if indeg[n.dst] == 0:
                    heapq.heappush(ready, n.dst)
    if len(order) == len(indeg):
        netlist._order = order
    return order, indeg


def _find_cycle(netlist: Netlist) -> list[str]:
    """Return one real cycle as an id sequence, or [] if the graph is acyclic.

    Walks predecessors inside the unprocessed remainder of Kahn's algorithm
    (every remaining node keeps at least one remaining predecessor), then
    rotates the cycle to start at its smallest id for determinism.
    """
    order, indeg = _kahn(netlist)
    remaining = {cid for cid, d in indeg.items() if d > 0}
    if not remaining:
        return []
    start = min(remaining)
    seen_at: dict[str, int] = {}
    walk: list[str] = []
    node = start
    while node not in seen_at:
        seen_at[node] = len(walk)
        walk.append(node)
        node = min(n.src for n in netlist.in_nets(node) if n.src in remaining)
    cycle = walk[seen_at[node]:]
    cycle.reverse()  # predecessor walk is backwards; report in edge direction
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


def topological_order(netlist: Netlist) -> list[str]:
    """Deterministic topological order; ties break by ascending cell id.

    The order is computed once per netlist (validate() already does so) and
    each call returns a fresh copy. Raises ValidationError carrying the same
    combinational-cycle violation that validate() reports.
    """
    if netlist._order is None:
        cycle = _find_cycle(netlist)
        if cycle:
            raise ValidationError((_cycle_violation(cycle),))
    return list(netlist._order)
