"""Back-annotate post-synthesis timing onto blocks.

Each block's annotated cells are seeds; its delay is the longest complete
source-to-sink path crossing at least one seed, under two weightings:

* system delay: every node contributes its logic_delay and every edge its
  net_delay, measuring the full paths the block sits on;
* block delay: only nodes inside the block contribute logic_delay, and (by
  default) only edges with both endpoints inside the block contribute
  net_delay, measuring the block's own share of those paths.

`DelayGraph` indexes the netlist once per report, with the netlist's one
topological order (kept from validation) and parallel nets collapsed to
their maximum delay. Each block then runs one dynamic program over its cone
(the seeds' ancestors and descendants), in O(cone V+E): a state records
whether the path must still cross a seed and keeps only its best weight and
next node. Ties go to the smallest next cell id, which yields the
lexicographically smallest cell-id sequence, because the candidates at one
node all start with distinct successors. `expand_paths` and `connected_sets`
remain as diagnostics of the union of crossing paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from .annotation import BlockLabel, BlockRegistry
from .model import BlockscopeError, Net, Netlist, topological_order


class WeightingMode(Enum):
    SYSTEM = "system-delay"
    BLOCK = "block-delay"


@dataclass(frozen=True)
class PathResult:
    """Winning path and its delay split into logic and network parts."""

    total_delay: int
    logic_delay: int
    network_delay: int
    path: tuple[str, ...]


ZERO_PATH = PathResult(0, 0, 0, ())


@dataclass(frozen=True)
class Subgraph:
    """Edge-induced slice of a netlist; nodes are exactly the edge endpoints."""

    netlist: Netlist = field(compare=False, repr=False)
    nodes: frozenset[str]
    edges: tuple[Net, ...]


def expand_paths(netlist: Netlist, seeds: Iterable[str]) -> Subgraph:
    """Union of all maximal source-to-sink paths containing at least one seed.

    An edge (u, v) survives iff either some source-to-u path already crossed
    a seed and v still reaches a sink, or u is reachable from a source and
    some v-to-sink path still crosses a seed. Both predicates come from one
    forward and one backward sweep in topological order.
    """
    seed_set = frozenset(seeds)
    order = topological_order(netlist)

    def sweep(cells, nets, is_end, far) -> tuple[dict[str, bool], dict[str, bool]]:
        ok: dict[str, bool] = {}  # reaches an end
        hit: dict[str, bool] = {}  # reaches an end through a seed
        for cid in cells:
            near = [far(n) for n in nets(cid)]
            ok[cid] = is_end(netlist.cell(cid).kind) or any(ok[x] for x in near)
            hit[cid] = (cid in seed_set and ok[cid]) or any(hit[x] for x in near)
        return ok, hit

    src_ok, seed_src = sweep(order, netlist.in_nets, lambda k: k.is_source, lambda n: n.src)
    sink_ok, seed_sink = sweep(reversed(order), netlist.out_nets, lambda k: k.is_sink, lambda n: n.dst)

    def on_crossing_path(n: Net) -> bool:
        return (seed_src[n.src] and sink_ok[n.dst]) or (src_ok[n.src] and seed_sink[n.dst])

    edges = sorted(filter(on_crossing_path, netlist.nets), key=lambda n: (n.src, n.dst, n.net_delay))
    nodes = frozenset(n.src for n in edges) | frozenset(n.dst for n in edges)
    return Subgraph(netlist, nodes, tuple(edges))


def connected_sets(sub: Subgraph) -> list[Subgraph]:
    """Weakly connected components, sorted by their smallest cell id."""
    parent: dict[str, str] = {cid: cid for cid in sub.nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for n in sub.edges:
        ra, rb = find(n.src), find(n.dst)
        if ra != rb:
            parent[rb] = ra
    groups: dict[str, set[str]] = {}
    for cid in sub.nodes:
        groups.setdefault(find(cid), set()).add(cid)
    comps = sorted(groups.values(), key=min)
    out: list[Subgraph] = []
    for nodes in comps:
        edges = tuple(n for n in sub.edges if n.src in nodes)
        out.append(Subgraph(sub.netlist, frozenset(nodes), edges))
    return out


class DelayGraph:
    """Integer-indexed view of a netlist, built once per delay report.

    Cell i is the i-th id in sorted order, so comparing indices compares ids.
    succ[i] maps each successor index, ascending, to the maximum delay of the
    parallel nets into it; rank[i] is i's position in the topological order.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.ids = ids = netlist.cell_ids()
        self.index = index = {cid: i for i, cid in enumerate(ids)}
        self.order = [index[cid] for cid in topological_order(netlist)]
        self.rank = [0] * len(ids)
        for r, i in enumerate(self.order):
            self.rank[i] = r
        cells = [netlist.cell(cid) for cid in ids]
        self.logic = [c.logic_delay for c in cells]
        self.source = [c.kind.is_source for c in cells]
        self.sink = [c.kind.is_sink for c in cells]
        self.succ: list[dict[int, int]] = [{} for _ in ids]
        self.pred: list[list[int]] = [[] for _ in ids]
        for n in sorted(netlist.nets, key=lambda n: n.dst):
            i, j = index[n.src], index[n.dst]
            row = self.succ[i]
            if j not in row:
                self.pred[j].append(i)
            if n.net_delay > row.get(j, -1):
                row[j] = n.net_delay


def _reach(starts: set[int], adj) -> set[int]:
    """Every node reachable from starts along adj, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def longest_path(
    graph: DelayGraph,
    block_cells: frozenset[str] | None,
    mode: WeightingMode,
    include_block_nets: bool = True,
) -> PathResult:
    """Best source-to-sink path through the block cells under the weighting.

    block_cells None lifts the crossing constraint (and is only meaningful
    for SYSTEM weighting, used for the global critical path). The winner is
    the maximum weight, ties broken by lexicographically smallest cell-id
    sequence; a netlist with no crossing path yields the zero result.
    """
    if mode is WeightingMode.BLOCK and block_cells is None:
        raise BlockscopeError("block-delay weighting needs the block cell set")
    g, system = graph, mode is WeightingMode.SYSTEM
    if block_cells is None:
        seeds, down, up = set(), g.order, []
    else:
        seeds = {g.index[cid] for cid in block_cells}
        down, up = (sorted(_reach(seeds, adj), key=g.rank.__getitem__) for adj in (g.succ, g.pred))

    def node(i: int) -> int:
        return g.logic[i] if system or i in seeds else 0

    def edge(i: int, j: int) -> int:
        in_scope = system or (include_block_nets and i in seeds and j in seeds)
        return g.succ[i][j] if in_scope else 0

    # free[i] / bound[i] = (weight, next node) of the best suffix from i to a
    # sink; a bound suffix must still cross a seed. Only the seeds'
    # descendants can continue a crossed path and only their ancestors can
    # still reach a seed, so each state lives on that half of the cone.
    free: dict[int, tuple[int, int]] = {}
    bound: dict[int, tuple[int, int]] = {}
    for nodes, states in ((down, free), (up, bound)):
        for i in reversed(nodes):
            if states is bound and i in seeds:
                if i in free:
                    bound[i] = free[i]
            elif g.sink[i]:
                free[i] = (node(i), -1)
            else:
                best_w = best_j = -1
                for j, w in g.succ[i].items():
                    if j in states:
                        w = (w if system else edge(i, j)) + states[j][0]
                        if w > best_w:
                            best_w, best_j = w, j
                if best_j >= 0:
                    states[i] = (node(i) + best_w, best_j)

    states = free if block_cells is None else bound
    roots = [(w, -i) for i, (w, _) in states.items() if g.source[i]]
    if not roots:
        return ZERO_PATH
    total, root = max(roots)  # heaviest, then smallest source id
    path, i = [], -root
    while i >= 0:
        path.append(i)
        if i in seeds:
            states = free
        i = states[i][1]
    logic = sum(node(i) for i in path)
    network = sum(edge(i, j) for i, j in zip(path, path[1:]))
    if logic + network != total:
        raise RuntimeError("internal error: path decomposition does not match its total")
    return PathResult(total, logic, network, tuple(g.ids[i] for i in path))


@dataclass(frozen=True)
class BlockDelay:
    system: PathResult
    block: PathResult


@dataclass(frozen=True)
class DelayReport:
    per_block: dict[BlockLabel, BlockDelay]
    unannotated: BlockDelay | None
    global_critical: PathResult
    critical_blocks: frozenset[BlockLabel]


def delay_report(
    netlist: Netlist,
    registry: BlockRegistry,
    *,
    include_block_nets: bool = True,
) -> DelayReport:
    """Per-block system/block delays, the global critical path, and the blocks
    it crosses."""
    graph = DelayGraph(netlist)

    def solve(cells: frozenset[str]) -> BlockDelay:
        return BlockDelay(
            longest_path(graph, cells, WeightingMode.SYSTEM),
            longest_path(graph, cells, WeightingMode.BLOCK, include_block_nets),
        )

    per_block = {label: solve(cells) for label, cells in registry.blocks.items()}
    unannotated = solve(registry.unannotated) if registry.unannotated else None
    global_critical = longest_path(graph, None, WeightingMode.SYSTEM)
    critical_blocks = frozenset(
        label
        for label, cells in registry.blocks.items()
        if not cells.isdisjoint(global_critical.path)
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)
