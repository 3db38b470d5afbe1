"""Back-annotate post-synthesis timing onto blocks.

Pipeline per block: take its annotated cells as seeds, expand them to the
union of all maximal source-to-sink paths that cross at least one seed, split
that subgraph into weakly connected sets, and take the longest path over each
set under two weightings:

* system delay: every node contributes its logic_delay and every edge its
  net_delay, measuring the full paths the block sits on;
* block delay: only nodes inside the block contribute logic_delay, and (by
  default) only edges with both endpoints inside the block contribute
  net_delay, measuring the block's own share of those paths.

Only paths that cross the block compete: the union subgraph can contain
composite source-to-sink walks that dodge every seed (two half-paths glued at
a shared fan node), so the search carries a "crossed a seed" state instead of
maximizing over the raw subgraph. Ties break toward the lexicographically
smallest cell-id sequence, and parallel nets between the same two cells count
with their maximum in-scope delay, matching the exhaustive oracle exactly.
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
    src_ok: dict[str, bool] = {}
    seed_src: dict[str, bool] = {}
    for cid in order:
        reachable = netlist.cell(cid).kind.is_source or any(
            src_ok[n.src] for n in netlist.in_nets(cid)
        )
        src_ok[cid] = reachable
        seed_src[cid] = (cid in seed_set and reachable) or any(
            seed_src[n.src] for n in netlist.in_nets(cid)
        )
    sink_ok: dict[str, bool] = {}
    seed_sink: dict[str, bool] = {}
    for cid in reversed(order):
        reaches = netlist.cell(cid).kind.is_sink or any(
            sink_ok[n.dst] for n in netlist.out_nets(cid)
        )
        sink_ok[cid] = reaches
        seed_sink[cid] = (cid in seed_set and reaches) or any(
            seed_sink[n.dst] for n in netlist.out_nets(cid)
        )
    edges = tuple(
        sorted(
            (
                n
                for n in netlist.nets
                if (seed_src[n.src] and sink_ok[n.dst]) or (src_ok[n.src] and seed_sink[n.dst])
            ),
            key=lambda n: (n.src, n.dst, n.net_delay),
        )
    )
    nodes = frozenset(n.src for n in edges) | frozenset(n.dst for n in edges)
    return Subgraph(netlist, nodes, edges)


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


def _scoped_adjacency(
    sub: Subgraph, block_cells: frozenset[str] | None, mode: WeightingMode, include_block_nets: bool
) -> dict[str, dict[str, int]]:
    """dst -> effective weight per source node; parallels keep the max in scope."""
    adj: dict[str, dict[str, int]] = {}
    for n in sub.edges:
        if mode is WeightingMode.SYSTEM:
            w = n.net_delay
        elif include_block_nets and block_cells is not None and n.src in block_cells and n.dst in block_cells:
            w = n.net_delay
        else:
            w = 0
        row = adj.setdefault(n.src, {})
        if w > row.get(n.dst, -1):
            row[n.dst] = w
    return adj


def longest_path(
    sub: Subgraph,
    block_cells: frozenset[str] | None,
    mode: WeightingMode,
    include_block_nets: bool = True,
) -> PathResult:
    """Best source-to-sink path through the block cells under the weighting.

    block_cells None lifts the crossing constraint (and is only meaningful
    for SYSTEM weighting, used for the global critical path). The winner is
    the maximum weight, ties broken by lexicographically smallest cell-id
    sequence; an empty or crossing-free subgraph yields the zero result.
    """
    if mode is WeightingMode.BLOCK and block_cells is None:
        raise BlockscopeError("block-delay weighting needs the block cell set")
    if not sub.nodes:
        return ZERO_PATH
    netlist = sub.netlist
    seeds = sub.nodes if block_cells is None else frozenset(block_cells)

    def node_weight(cid: str) -> int:
        if mode is WeightingMode.SYSTEM or cid in block_cells:  # type: ignore[operator]
            return netlist.cell(cid).logic_delay
        return 0

    adj = _scoped_adjacency(sub, block_cells, mode, include_block_nets)
    order = [cid for cid in topological_order(netlist) if cid in sub.nodes]
    # suffix[cid][need] = best (weight, path) from cid to a sink, where need=1
    # means the suffix must still cross a seed; None marks no valid suffix.
    suffix: dict[str, list[tuple[int, tuple[str, ...]] | None]] = {}
    for cid in reversed(order):
        w = node_weight(cid)
        is_sink = netlist.cell(cid).kind.is_sink
        entry: list[tuple[int, tuple[str, ...]] | None] = [None, None]
        for need in (0, 1):
            need_after = 0 if cid in seeds else need
            if is_sink:
                if need_after == 0:
                    entry[need] = (w, (cid,))
                continue
            best: tuple[int, tuple[str, ...]] | None = None
            for dst, edge_w in adj.get(cid, {}).items():
                cont = suffix.get(dst)
                if cont is None or cont[need_after] is None:
                    continue
                cw, cpath = cont[need_after]  # type: ignore[misc]
                cand = (w + edge_w + cw, (cid,) + cpath)
                if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
                    best = cand
            entry[need] = best
        suffix[cid] = entry

    best: tuple[int, tuple[str, ...]] | None = None
    for cid in order:
        if not netlist.cell(cid).kind.is_source:
            continue
        cand = suffix[cid][1]
        if cand is None:
            continue
        if best is None or (-cand[0], cand[1]) < (-best[0], best[1]):
            best = cand
    if best is None:
        return ZERO_PATH
    total, path = best
    logic = sum(node_weight(cid) for cid in path)
    network = sum(adj[a][b] for a, b in zip(path, path[1:]))
    if logic + network != total:
        raise RuntimeError("internal error: path decomposition does not match its total")
    return PathResult(total, logic, network, path)


def _better(a: PathResult, b: PathResult) -> PathResult:
    if (-a.total_delay, a.path) <= (-b.total_delay, b.path):
        return a
    return b


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


def _solve_block(
    netlist: Netlist, cells: frozenset[str], include_block_nets: bool
) -> BlockDelay:
    sub = expand_paths(netlist, cells)
    sets = connected_sets(sub)
    system = ZERO_PATH if not sets else None
    block = ZERO_PATH if not sets else None
    for s in sets:
        sys_r = longest_path(s, cells, WeightingMode.SYSTEM)
        blk_r = longest_path(s, cells, WeightingMode.BLOCK, include_block_nets)
        system = sys_r if system is None else _better(system, sys_r)
        block = blk_r if block is None else _better(block, blk_r)
    return BlockDelay(system, block)  # type: ignore[arg-type]


def delay_report(
    netlist: Netlist,
    registry: BlockRegistry,
    *,
    include_block_nets: bool = True,
) -> DelayReport:
    """Per-block system/block delays, the global critical path, and the blocks
    it crosses."""
    per_block = {
        label: _solve_block(netlist, cells, include_block_nets)
        for label, cells in registry.blocks.items()
    }
    unannotated = (
        _solve_block(netlist, registry.unannotated, include_block_nets)
        if registry.unannotated
        else None
    )

    full = expand_paths(netlist, frozenset(netlist.cell_ids()))
    global_critical = longest_path(full, None, WeightingMode.SYSTEM)
    label_of: dict[str, BlockLabel] = {}
    for label, cells in registry.blocks.items():
        for cid in cells:
            label_of[cid] = label
    critical_blocks = frozenset(
        label_of[cid] for cid in global_critical.path if cid in label_of
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)
