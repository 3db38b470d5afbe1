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
from array import array
from enum import Enum, unique
from itertools import accumulate, compress
from typing import Mapping, NamedTuple


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


SOURCE_KINDS = frozenset({CellKind.CLK, CellKind.IN, CellKind.FF_Q})
SINK_KINDS = frozenset({CellKind.FF_D, CellKind.MEM_IN, CellKind.OUT})


class Cell(NamedTuple):
    """One netlist node. logic_delay is in integer picoseconds."""

    id: str
    kind: CellKind
    logic_delay: int = 0


class Net(NamedTuple):
    """Directed edge src -> dst with a routing delay in integer picoseconds.

    Fan-out is multiple Net instances sharing src.
    """

    src: str
    dst: str
    net_delay: int = 0


def _bad_delay(delay) -> bool:
    """Whether a delay is anything but a non-negative int; a bool is not one."""
    return delay.__class__ is not int or delay < 0


def delay_row_key(row: tuple) -> tuple:
    """Sort key of a row ending in a delay: rows with int delays keep their order, and
    any other delay sorts after them by its repr, never compared with or equal to an int."""
    *head, delay = row
    return (*head, False, delay) if delay.__class__ is int else (*head, True, repr(delay))


def _successors(
    netlist: "Netlist", out: list[Violation],
) -> tuple[list[list[int]], list[list[int]], list[int], bool]:
    """Each cell's successors and the delays of the nets into them, in net
    order, parallel nets kept; each cell's in-degree over those nets; and
    whether every net was indexed. A net with an unknown endpoint is
    skipped. A net whose delay is not a non-negative integer is indexed with
    delay 0, so the cycle check still sees its edge. Each broken net appends
    its violations to out, in net order."""
    get, kind, source, sink = netlist.index.get, netlist.kind, netlist.source, netlist.sink
    n = len(netlist.ids)
    rows: list[list[int]] = [[] for _ in range(n)]
    delays: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    complete = True
    for src, dst, d in zip(netlist.net_src, netlist.net_dst, netlist.net_delay):
        i, j = get(src), get(dst)
        if i is None or j is None:
            key = f"{src}->{dst}"
            side, missing = ("src", src) if i is None else ("dst", dst)
            message = f"net {key} references unknown cell {missing}"
            out.append(Violation(f"dangling-net-{side}", key, message))
            complete = False
            continue
        if source[j] or sink[i] or d.__class__ is not int or d < 0:
            out += _net_violations(src, dst, d, kind[i], kind[j])
            if _bad_delay(d):
                d = 0
        rows[i].append(j)
        delays[i].append(d)
        indeg[j] += 1
    return rows, delays, indeg, complete


class DelayGraph(NamedTuple):
    """What only the delay search reads; order is a topological order, the one
    construction's pass found, and rank its inverse; see Netlist.delay_graph."""

    succ: list[tuple[int, ...]]
    succ_first: array
    succ_delay: list[int]
    pred: list[tuple[int, ...]]
    order: array
    rank: array


def _delay_graph(rows: list[list[int]], delays: list[list[int]], order: array) -> DelayGraph:
    """Ascending successors with parallel nets collapsed to their maximum
    delay, flat, with each cell's first position in it; ascending
    predecessors; order, a topological order of the rows, which construction's
    pass found; and each cell's position in it."""
    succ: list[tuple[int, ...]] = []
    flat: list[int] = []
    for row, ds in zip(rows, delays):
        if len(row) < 2:  # no sort or dict: without this, deep_paths indexed slower in 20/20 A/B pairs
            succ.append(tuple(row))
            flat += ds
        else:
            best = dict(sorted(zip(row, ds)))  # the last, largest delay of each successor wins
            succ.append(tuple(best))
            flat += best.values()
    pred: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)  # i ascends, so every row does too
    rank = array("i", order)
    for r, i in enumerate(order):
        rank[i] = r
    first = array("i", accumulate(map(len, succ), initial=0))
    return DelayGraph(succ, first, flat, [tuple(row) for row in pred], order, rank)


def _net_violations(src: str, dst: str, delay, src_kind: CellKind, dst_kind: CellKind) -> list[Violation]:
    """The rules a net between two known cells of these kinds breaks."""
    key = f"{src}->{dst}"
    out = []
    if _bad_delay(delay):
        out.append(Violation("negative-delay", key, f"net {key} net_delay must be a non-negative integer"))
    if dst_kind in SOURCE_KINDS:
        out.append(
            Violation("edge-into-source-kind", key, f"net {key} drives {dst} of source kind {dst_kind.value}")
        )
    if src_kind in SINK_KINDS:
        out.append(
            Violation("edge-from-sink-kind", key, f"net {key} leaves {src} of sink kind {src_kind.value}")
        )
    return out


class Netlist:
    """Immutable-by-convention container for cells, nets and flip-flop pairs.

    ff_pairs records which FF_D/FF_Q node pair belongs to one physical
    flip-flop; the two nodes stay unconnected in the graph. Construction
    records the rules the nets and ffpairs break, and a cycle, in
    graph_violations; validate() adds the rules on single cells.

    Cells and nets are held only as columns in input order: cell_id,
    cell_kind and cell_logic per cell, net_src, net_dst and net_delay per
    net. No Cell or Net object is kept: the cells and nets properties build
    fresh tuples on each access, and cell() builds one Cell.

    The graph is indexed once, here, and every layer reads this index. Cell i
    is the i-th distinct id in sorted order, so comparing indices compares
    ids; for a duplicate id the first cell wins. Per index the netlist keeps
    its kind, logic delay, source and sink flags and FF partner (-1 for none).
    Nets with an unknown endpoint are left out of the index. Construction
    runs the one Kahn pass, in queue order: it checks acyclicity and its
    order is the delay graph's; cycle holds the combinational-cycle
    violation when the graph has one.

    The delay graph, which only the delay search reads, is the DelayGraph
    that the first delay_graph() call by the netlist or any with_logic_delays
    copy builds, once for all of them: succ[i] is the tuple of i's successors
    in ascending order, and succ_delay[succ_first[i] + p] the maximum delay
    of the parallel nets into succ[i][p]; pred[i] holds i's predecessors the
    same way; order is a topological order, the one construction's FIFO
    Kahn found, so it depends on the net input order, and rank[i] is i's
    position in it.
    """

    __slots__ = (
        "cell_id", "cell_kind", "cell_logic", "net_src", "net_dst", "net_delay", "ff_pairs",
        "ids", "index", "_pos", "kind", "logic", "source", "sink",
        "partner", "_graph", "cycle", "graph_violations",
    )

    def __init__(
        self,
        cells: tuple[Cell, ...] | list[Cell],
        nets: tuple[Net, ...] | list[Net] = (),
        ff_pairs: tuple[tuple[str, str], ...] | list[tuple[str, str]] = (),
    ) -> None:
        cells, nets = tuple(cells), tuple(nets)
        self.cell_id = [c.id for c in cells]
        self.cell_kind = [c.kind for c in cells]
        self.cell_logic = [c.logic_delay for c in cells]
        self.net_src = [n.src for n in nets]
        self.net_dst = [n.dst for n in nets]
        self.net_delay = [n.net_delay for n in nets]
        self._build_index(ff_pairs)

    @classmethod
    def _from_columns(
        cls, cell_id: list[str], cell_kind: list[CellKind], cell_logic: list[int],
        net_src: list[str], net_dst: list[str], net_delay: list[int], ff_pairs: list[tuple[str, str]],
    ) -> "Netlist":
        """A netlist over these columns, which it keeps; no objects are built."""
        new = cls.__new__(cls)
        new.cell_id, new.cell_kind, new.cell_logic = cell_id, cell_kind, cell_logic
        new.net_src, new.net_dst, new.net_delay = net_src, net_dst, net_delay
        new._build_index(ff_pairs)
        return new

    def _build_index(self, ff_pairs) -> None:
        self.ff_pairs: tuple[tuple[str, str], ...] = tuple((d, q) for d, q in ff_pairs)
        cell_id = self.cell_id
        # written from the last cell back, so the first cell with an id wins
        index = dict(zip(reversed(cell_id), range(len(cell_id) - 1, -1, -1)))
        self.ids = ids = sorted(index)
        n = len(ids)
        self._pos = array("i", map(index.__getitem__, ids))  # position of cell i in the columns
        # only values change, so the dict is reused in place; its int objects are shared by every row
        index.update(zip(ids, range(n)))
        self.index = index
        self.kind = kind = list(map(self.cell_kind.__getitem__, self._pos))
        self.logic = list(map(self.cell_logic.__getitem__, self._pos))
        self.source = bytes(map(SOURCE_KINDS.__contains__, kind))
        self.sink = bytes(map(SINK_KINDS.__contains__, kind))
        out: list[Violation] = []
        rows, delays, indeg, complete = _successors(self, out)
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
            if kind[i] is not CellKind.FF_D or kind[j] is not CellKind.FF_Q:
                key = f"{d}/{q}"
                message = f"ffpair {key} must pair an FF_D cell with an FF_Q cell"
                out.append(Violation("ffpair-kind-mismatch", key, message))
            for x, cid in ((i, d), (j, q)):
                if x in paired:
                    message = f"cell {cid} appears in more than one ffpair"
                    out.append(Violation("ffpair-duplicate", cid, message))
                paired.add(x)
        del paired  # free the transient before the acyclicity check
        ready = [i for i, d in enumerate(indeg) if d == 0]  # a FIFO Kahn: any topological order serves
        for i in ready:
            for j in rows[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        # one box shared by every with_logic_delays copy: the rows until the graph is read
        self._graph = [(rows, delays, array("i", ready)) if len(ready) == n else None]
        self.cycle = _find_cycle(rows, ids, indeg) if len(ready) < n else None  # any Kahn leaves these counts
        if self.cycle and complete and n == len(cell_id):  # only a cycle of real, well-formed edges is reported
            out.append(self.cycle)
        self.graph_violations: tuple[Violation, ...] = tuple(out)

    def delay_graph(self) -> DelayGraph:
        """The delay graph, built from the construction rows on the first call by
        this netlist or any copy; a cyclic netlist raises its cycle as a ValidationError."""
        box = self._graph
        if box[0].__class__ is tuple:
            box[0] = _delay_graph(*box[0])
        elif box[0] is None:
            raise ValidationError((self.cycle,))
        return box[0]

    @property
    def cells(self) -> tuple[Cell, ...]:
        """The cells in input order, built from the columns on each access."""
        return tuple(map(Cell, self.cell_id, self.cell_kind, self.cell_logic))

    @property
    def nets(self) -> tuple[Net, ...]:
        """The nets in input order, built from the columns on each access."""
        return tuple(map(Net, self.net_src, self.net_dst, self.net_delay))

    def with_logic_delays(self, delays: Mapping[CellKind, int]) -> "Netlist":
        """This netlist with each cell's logic delay replaced by its kind's.

        Only the logic delay columns are new: the other columns, ff_pairs, the
        index, the graph violations and the delay graph are shared, since ids
        and edges are unchanged and no graph rule reads a logic delay. The
        delay graph is built once, by whichever of them reads it first.
        """
        new = copy.copy(self)
        new.cell_logic = list(map(delays.__getitem__, self.cell_kind))
        new.logic = list(map(delays.__getitem__, self.kind))
        return new

    def cell(self, cell_id: str) -> Cell:
        """The first cell with this id, built from its column position."""
        pos = self._pos[self.index[cell_id]]
        return Cell(self.cell_id[pos], self.cell_kind[pos], self.cell_logic[pos])

    def canonical_key(self):
        """The sorted delay_row_key of each (id, kind name, delay) cell and
        (src, dst, delay) net, and the sorted pairs, read from the columns."""
        kinds = [k.value for k in self.cell_kind]
        cells = tuple(sorted(map(delay_row_key, zip(self.cell_id, kinds, self.cell_logic))))
        nets = tuple(sorted(map(delay_row_key, zip(self.net_src, self.net_dst, self.net_delay))))
        return (cells, nets, tuple(sorted(self.ff_pairs)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Netlist):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Netlist(cells={len(self.cell_id)}, nets={len(self.net_src)}, ff_pairs={len(self.ff_pairs)})"


class Violation(NamedTuple):
    """One broken structural rule; subject names the offending cell or net."""

    rule: str
    subject: str
    message: str
    cells: tuple[str, ...] = ()


class ValidationError(BlockscopeError):
    """Raised when an operation requires a valid netlist and gets violations."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


def validate(netlist: Netlist) -> tuple[Violation, ...]:
    """Check every structural invariant and return all violations found;
    an empty tuple means the netlist is valid.

    The rules on single cells are checked here, in cell order; those on nets,
    ffpairs and acyclicity follow, as the netlist recorded them when it was
    built. Acyclicity is only checked once ids are unique and every net is
    indexed, so cycle reports always refer to real, well-formed edges.
    """
    logic = netlist.cell_logic
    if (
        len(netlist._pos) == len(netlist.cell_id)  # ids are unique
        and set(map(type, logic)) <= {int}
        and min(logic, default=0) >= 0
        and not any(compress(logic, map(SOURCE_KINDS.__contains__, netlist.cell_kind)))
    ):
        return netlist.graph_violations  # the loop below would find nothing
    out: list[Violation] = []
    index, first = netlist.index, netlist._pos
    columns = zip(netlist.cell_id, netlist.cell_kind, logic)
    for pos, (cid, kind, delay) in enumerate(columns):
        if first[index[cid]] != pos:
            out.append(Violation("duplicate-cell-id", cid, f"duplicate cell id {cid}"))
        if _bad_delay(delay):
            out.append(
                Violation("negative-delay", cid, f"cell {cid} logic_delay must be a non-negative integer")
            )
        elif delay != 0 and kind in SOURCE_KINDS:
            out.append(
                Violation(
                    "source-kind-delay", cid, f"cell {cid} has kind {kind.value} and must have logic_delay 0"
                )
            )
    return (*out, *netlist.graph_violations)


def _find_cycle(rows: list[list[int]], ids: list[str], indeg: list[int]) -> Violation:
    """The combinational-cycle violation of one real cycle among the cells
    Kahn's algorithm left out, those with in-degree left in indeg.

    Walks each remaining node's smallest remaining predecessor, read from the
    successor rows (every remaining node keeps at least one), then rotates
    the cycle to start at its smallest id for determinism.
    """
    remaining = [i for i, d in enumerate(indeg) if d > 0]
    back: dict[int, int] = {}
    for i in remaining:  # ascending, so a node's first predecessor is its smallest
        for j in rows[i]:
            if indeg[j] > 0:
                back.setdefault(j, i)
    seen_at: dict[int, int] = {}
    walk: list[int] = []
    node = remaining[0]
    while node not in seen_at:
        seen_at[node] = len(walk)
        walk.append(node)
        node = back[node]
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
