"""Reference implementations used only by the test suite.

Each oracle recomputes a result by direct enumeration, literal replay or an
independent algorithm, so the production code paths can be checked against
something with no shared logic. All enumeration is exponential and guarded by
a cell-count limit; the reference delay pipeline is polynomial and has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .annotation import BlockLabel, BlockRegistry
from .delay import BlockDelay, DelayReport, PathResult, WeightingMode, ZERO_PATH
from .model import BlockscopeError, CellKind, Net, Netlist, topological_order
from .power import ActivityProfile

MAX_ORACLE_CELLS = 14


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
        if netlist.cell(node).kind.is_sink:
            paths.append(tuple(acc))
            return
        for nxt in succ.get(node, ()):
            acc.append(nxt)
            dfs(nxt, acc)
            acc.pop()

    for cell in netlist.cells:
        if cell.kind.is_source:
            dfs(cell.id, [cell.id])
    return paths


def _edge_delay(netlist: Netlist, src: str, dst: str) -> int:
    return max(n.net_delay for n in netlist.nets if n.src == src and n.dst == dst)


def oracle_longest_path(
    netlist: Netlist,
    block_cells: frozenset[str] | None,
    mode: WeightingMode,
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
        if mode is WeightingMode.SYSTEM or block_cells is None:
            return True
        return cid in block_cells

    def in_scope_edge(u: str, v: str) -> bool:
        if mode is WeightingMode.SYSTEM or block_cells is None:
            return True
        return include_block_nets and u in block_cells and v in block_cells

    best: tuple[int, tuple[str, ...]] | None = None
    for path in candidates:
        weight = sum(
            netlist.cell(c).logic_delay for c in path if in_scope_node(c)
        ) + sum(
            _edge_delay(netlist, u, v)
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
    succs: dict[str, list[str]] = {}
    preds: dict[str, list[str]] = {}
    for n in netlist.nets:
        succs.setdefault(n.src, []).append(n.dst)
        preds.setdefault(n.dst, []).append(n.src)
    src_ok = _reach((c.id for c in netlist.cells if c.kind.is_source), succs)
    sink_ok = _reach((c.id for c in netlist.cells if c.kind.is_sink), preds)
    seed_src = _reach(src_ok & seed_set, succs)  # reached from a source through a seed
    seed_sink = _reach(sink_ok & seed_set, preds)  # reaches a sink through a seed

    def on_crossing_path(n: Net) -> bool:
        return (n.src in seed_src and n.dst in sink_ok) or (n.src in src_ok and n.dst in seed_sink)

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


def _suffix_longest_path(
    sub: Subgraph, block_cells: frozenset[str] | None, mode: WeightingMode, include_block_nets: bool
) -> PathResult:
    """Longest crossing path over one subgraph, keeping every node's whole
    best suffix as a tuple and comparing (-weight, path) directly."""
    netlist = sub.netlist
    seeds = sub.nodes if block_cells is None else block_cells

    def node_weight(cid: str) -> int:
        if mode is WeightingMode.SYSTEM or cid in seeds:
            return netlist.cell(cid).logic_delay
        return 0

    adj: dict[str, dict[str, int]] = {}
    for n in sub.edges:
        in_scope = mode is WeightingMode.SYSTEM or (
            include_block_nets and n.src in seeds and n.dst in seeds
        )
        row = adj.setdefault(n.src, {})
        row[n.dst] = max(row.get(n.dst, -1), n.net_delay if in_scope else 0)
    order = [cid for cid in topological_order(netlist) if cid in sub.nodes]
    # suffix[cid][need]: best (weight, path) to a sink; need=1 means the
    # suffix must still cross a seed; None marks no valid suffix.
    suffix: dict[str, list[tuple[int, tuple[str, ...]] | None]] = {}
    for cid in reversed(order):
        w = node_weight(cid)
        entry: list[tuple[int, tuple[str, ...]] | None] = [None, None]
        for need in (0, 1):
            need_after = 0 if cid in seeds else need
            if netlist.cell(cid).kind.is_sink:
                entry[need] = (w, (cid,)) if need_after == 0 else None
                continue
            cands = [
                (w + edge_w + suffix[dst][need_after][0], (cid,) + suffix[dst][need_after][1])
                for dst, edge_w in adj.get(cid, {}).items()
                if suffix[dst][need_after] is not None
            ]
            entry[need] = min(cands, key=lambda c: (-c[0], c[1]), default=None)
        suffix[cid] = entry
    roots = [suffix[c][1] for c in order if netlist.cell(c).kind.is_source and suffix[c][1]]
    if not roots:
        return ZERO_PATH
    total, path = min(roots, key=lambda c: (-c[0], c[1]))
    logic = sum(node_weight(cid) for cid in path)
    return PathResult(total, logic, total - logic, path)


def _reference_block(
    netlist: Netlist, cells: frozenset[str], include_block_nets: bool
) -> BlockDelay:
    results = {mode: ZERO_PATH for mode in WeightingMode}
    sets = connected_sets(expand_paths(netlist, cells))
    for mode in WeightingMode:
        found = [_suffix_longest_path(s, cells, mode, include_block_nets) for s in sets]
        if found:
            results[mode] = min(found, key=lambda r: (-r.total_delay, r.path))
    return BlockDelay(results[WeightingMode.SYSTEM], results[WeightingMode.BLOCK])


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
    global_critical = _suffix_longest_path(full, None, WeightingMode.SYSTEM, True)
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
