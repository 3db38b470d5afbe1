"""Reference implementations used only by the test suite.

Each oracle recomputes a result by direct enumeration, literal replay or an
independent algorithm, so the production code paths can be checked against
something with no shared logic. All enumeration is exponential and guarded by
a cell-count limit; the reference delay pipeline is polynomial and has none.
``topological_order`` is no oracle: it spells the netlist's own order as ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from blockscope.annotation import BlockLabel, BlockRegistry
from blockscope.delay import BlockDelay, DelayReport, PathResult, ZERO_PATH
from blockscope.model import (
    SINK_KINDS, SOURCE_KINDS, BlockscopeError, CellKind, Net, Netlist, ValidationError,
)
from blockscope.power import ActivityProfile

MAX_ORACLE_CELLS = 14


class Weighting(Enum):
    """Which delay an oracle weighs: the full path (system) or the block's share."""

    SYSTEM = "system-delay"
    BLOCK = "block-delay"


def enumerate_paths(netlist: Netlist, max_cells: int = MAX_ORACLE_CELLS) -> list[tuple[str, ...]]:
    """All complete source-to-sink paths as cell-id tuples, DFS order."""
    if len(netlist.cells) > max_cells:
        raise BlockscopeError(
            f"oracle limited to {max_cells} cells, got {len(netlist.cells)}"
        )
    succ: dict[str, list[str]] = {}
    for net in netlist.nets:
        dsts = succ.setdefault(net.src, [])
        if net.dst not in dsts:
            dsts.append(net.dst)
    for dsts in succ.values():
        dsts.sort()
    paths: list[tuple[str, ...]] = []

    def dfs(node: str, acc: list[str]) -> None:
        if netlist.cell(node).kind in SINK_KINDS:
            paths.append(tuple(acc))
            return
        for nxt in succ.get(node, ()):
            acc.append(nxt)
            dfs(nxt, acc)
            acc.pop()

    for cell in netlist.cells:
        if cell.kind in SOURCE_KINDS:
            dfs(cell.id, [cell.id])
    return paths


def _edge_delay(nets: tuple[Net, ...], src: str, dst: str) -> int:
    return max(n.net_delay for n in nets if n.src == src and n.dst == dst)


def oracle_longest_path(
    netlist: Netlist,
    block_cells: frozenset[str] | None,
    mode: Weighting,
    include_block_nets: bool = True,
    max_cells: int = MAX_ORACLE_CELLS,
) -> PathResult:
    """Enumerate every complete path, weigh it, keep the best.

    Mirrors the production tie rule: maximum total delay first, then the
    lexicographically smallest cell-id sequence.
    """
    candidates = enumerate_paths(netlist, max_cells)
    if block_cells is not None:
        candidates = [p for p in candidates if any(c in block_cells for c in p)]

    def in_scope_node(cid: str) -> bool:
        if mode is Weighting.SYSTEM or block_cells is None:
            return True
        return cid in block_cells

    def in_scope_edge(u: str, v: str) -> bool:
        if mode is Weighting.SYSTEM or block_cells is None:
            return True
        return include_block_nets and u in block_cells and v in block_cells

    nets = netlist.nets  # the netlist builds these on each access
    best: tuple[int, tuple[str, ...]] | None = None
    for path in candidates:
        weight = sum(
            netlist.cell(c).logic_delay for c in path if in_scope_node(c)
        ) + sum(
            _edge_delay(nets, u, v)
            for u, v in zip(path, path[1:])
            if in_scope_edge(u, v)
        )
        key = (-weight, path)
        if best is None or key < (-best[0], best[1]):
            best = (weight, path)
    if best is None:
        return ZERO_PATH
    weight, path = best
    logic = sum(netlist.cell(c).logic_delay for c in path if in_scope_node(c))
    return PathResult(weight, logic, weight - logic, path)


def oracle_expand(
    netlist: Netlist,
    seeds: frozenset[str],
    max_cells: int = MAX_ORACLE_CELLS,
) -> tuple[frozenset[str], frozenset[tuple[str, str]]]:
    """Union of all complete paths that pass through at least one seed,
    returned as node and (src, dst) edge sets."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for path in enumerate_paths(netlist, max_cells):
        if any(c in seeds for c in path):
            nodes.update(path)
            edges.update(zip(path, path[1:]))
    return frozenset(nodes), frozenset(edges)


@dataclass(frozen=True)
class Subgraph:
    """Edge-induced slice of a netlist; nodes are exactly the edge endpoints."""

    netlist: Netlist = field(compare=False, repr=False)
    nodes: frozenset[str]
    edges: tuple[Net, ...]


def _reach(starts: Iterable[str], adj: dict[str, list[str]]) -> set[str]:
    """Every cell reachable from starts along adj, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for x in adj.get(stack.pop(), ()):
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return seen


def expand_paths(netlist: Netlist, seeds: Iterable[str]) -> Subgraph:
    """Union of all maximal source-to-sink paths containing at least one seed.

    An edge (u, v) survives iff either some source-to-u path already crossed
    a seed and v still reaches a sink, or u is reachable from a source and
    some v-to-sink path still crosses a seed. Each predicate is one search
    over adjacency lists built straight from the nets.
    """
    seed_set = frozenset(seeds)
    # read from the columns: the netlist would build every Cell and Net per call
    kinds = list(zip(netlist.cell_id, netlist.cell_kind))
    succs: dict[str, list[str]] = {}
    preds: dict[str, list[str]] = {}
    for src, dst in zip(netlist.net_src, netlist.net_dst):
        succs.setdefault(src, []).append(dst)
        preds.setdefault(dst, []).append(src)
    src_ok = _reach((cid for cid, kind in kinds if kind in SOURCE_KINDS), succs)
    sink_ok = _reach((cid for cid, kind in kinds if kind in SINK_KINDS), preds)
    seed_src = _reach(src_ok & seed_set, succs)  # reached from a source through a seed
    seed_sink = _reach(sink_ok & seed_set, preds)  # reaches a sink through a seed

    def on_crossing_path(src: str, dst: str) -> bool:
        return (src in seed_src and dst in sink_ok) or (src in src_ok and dst in seed_sink)

    nets = zip(netlist.net_src, netlist.net_dst, netlist.net_delay)
    edges = [Net(*n) for n in sorted(n for n in nets if on_crossing_path(n[0], n[1]))]
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


def _topological(sub: Subgraph) -> list[str]:
    """An order of the subgraph's nodes in which every edge points forward,
    by Kahn's algorithm over its own edges, so no production graph code
    orders the reference."""
    indegree = dict.fromkeys(sub.nodes, 0)
    succs: dict[str, list[str]] = {}
    for n in sub.edges:
        indegree[n.dst] += 1
        succs.setdefault(n.src, []).append(n.dst)
    ready = sorted(cid for cid, d in indegree.items() if d == 0)
    order: list[str] = []
    while ready:
        cid = ready.pop()
        order.append(cid)
        for dst in succs.get(cid, ()):
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return order


def _suffix_longest_path(
    sub: Subgraph, block_cells: frozenset[str] | None, mode: Weighting, include_block_nets: bool
) -> PathResult:
    """Longest crossing path over one subgraph, keeping every node's whole
    best suffix as a tuple and comparing (-weight, path) directly."""
    netlist = sub.netlist
    seeds = sub.nodes if block_cells is None else block_cells

    def node_weight(cid: str) -> int:
        if mode is Weighting.SYSTEM or cid in seeds:
            return netlist.cell(cid).logic_delay
        return 0

    adj: dict[str, dict[str, int]] = {}
    for n in sub.edges:
        in_scope = mode is Weighting.SYSTEM or (
            include_block_nets and n.src in seeds and n.dst in seeds
        )
        row = adj.setdefault(n.src, {})
        row[n.dst] = max(row.get(n.dst, -1), n.net_delay if in_scope else 0)
    order = _topological(sub)
    # suffix[cid][need]: best (weight, path) to a sink; need=1 means the
    # suffix must still cross a seed; None marks no valid suffix.
    suffix: dict[str, list[tuple[int, tuple[str, ...]] | None]] = {}
    for cid in reversed(order):
        w = node_weight(cid)
        entry: list[tuple[int, tuple[str, ...]] | None] = [None, None]
        for need in (0, 1):
            need_after = 0 if cid in seeds else need
            if netlist.cell(cid).kind in SINK_KINDS:
                entry[need] = (w, (cid,)) if need_after == 0 else None
                continue
            cands = [
                (w + edge_w + suffix[dst][need_after][0], (cid,) + suffix[dst][need_after][1])
                for dst, edge_w in adj.get(cid, {}).items()
                if suffix[dst][need_after] is not None
            ]
            entry[need] = min(cands, key=lambda c: (-c[0], c[1]), default=None)
        suffix[cid] = entry
    roots = [suffix[c][1] for c in order if netlist.cell(c).kind in SOURCE_KINDS and suffix[c][1]]
    if not roots:
        return ZERO_PATH
    total, path = min(roots, key=lambda c: (-c[0], c[1]))
    logic = sum(node_weight(cid) for cid in path)
    return PathResult(total, logic, total - logic, path)


def _reference_block(
    netlist: Netlist, cells: frozenset[str], include_block_nets: bool
) -> BlockDelay:
    results = {mode: ZERO_PATH for mode in Weighting}
    sets = connected_sets(expand_paths(netlist, cells))
    for mode in Weighting:
        found = [_suffix_longest_path(s, cells, mode, include_block_nets) for s in sets]
        if found:
            results[mode] = min(found, key=lambda r: (-r.total_delay, r.path))
    return BlockDelay(results[Weighting.SYSTEM], results[Weighting.BLOCK])


def reference_delay_report(
    netlist: Netlist, registry: BlockRegistry, *, include_block_nets: bool = True
) -> DelayReport:
    """The delay report by the original pipeline: expand each block's seeds to
    the union of its crossing paths, split that into weakly connected sets,
    run the tuple-suffix search on every set and keep the best result."""
    per_block = {
        label: _reference_block(netlist, cells, include_block_nets)
        for label, cells in registry.blocks.items()
    }
    unannotated = (
        _reference_block(netlist, registry.unannotated, include_block_nets)
        if registry.unannotated
        else None
    )
    full = expand_paths(netlist, (c.id for c in netlist.cells))
    global_critical = _suffix_longest_path(full, None, Weighting.SYSTEM, True)
    critical_blocks = frozenset(
        label
        for label, cells in registry.blocks.items()
        if any(cid in cells for cid in global_critical.path)
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)


def _replay_causes(profile: ActivityProfile):
    """Literal cycle-by-cycle replay of the activity rules, yielding one
    (block, cycle) pair per cause.

    A block is active on a cycle when one of its rules fires, and on the
    cycle after any rule writes a state the block reads (when that next
    cycle is still observed).
    """
    for t in range(profile.cycles):
        for rid, fires in profile.firings.items():
            if t not in fires:
                continue
            yield profile.rule_block[rid], t
            for writer, state in profile.writes:
                if writer != rid:
                    continue
                for reader, read_state in profile.reads:
                    if read_state == state and t + 1 < profile.cycles:
                        yield reader, t + 1


def oracle_replay(profile: ActivityProfile) -> dict[BlockLabel, frozenset[int]]:
    """Active cycles of every profile block, by literal replay."""
    active: dict[BlockLabel, set[int]] = {b: set() for b in profile.blocks()}
    for block, t in _replay_causes(profile):
        active[block].add(t)
    return {b: frozenset(ts) for b, ts in active.items()}


def oracle_events(profile: ActivityProfile) -> dict[BlockLabel, int]:
    """Raw activation events of every profile block, by literal replay: one
    per cause, so causes hitting the same cycle all count."""
    events = {b: 0 for b in profile.blocks()}
    for block, _ in _replay_causes(profile):
        events[block] += 1
    return events


def oracle_resource_counts(netlist: Netlist) -> dict[str, int]:
    """Whole-netlist resource totals counted straight off the cell list:
    one FF per pair plus one per unpaired FF_D/FF_Q half.

    Assumes every pair lives inside one partition, which holds for all
    fixtures; split pairs are covered by dedicated unit tests instead.
    """
    paired_qs = {q for _, q in netlist.ff_pairs}
    counts: dict[str, int] = {}
    for cell in netlist.cells:
        if cell.kind is CellKind.FF_Q and cell.id in paired_qs:
            continue
        name = "FF" if cell.kind in (CellKind.FF_D, CellKind.FF_Q) else cell.kind.name
        counts[name] = counts.get(name, 0) + 1
    return counts


def topological_order(netlist: Netlist) -> list[str]:
    """The netlist's topological order as cell ids; ValidationError on a cycle."""
    if netlist.order is None:
        raise ValidationError((netlist.cycle,))
    return [netlist.ids[i] for i in netlist.order]
