"""Back-annotate post-synthesis timing onto blocks.

Each block's annotated cells are seeds; its delay is the longest complete
source-to-sink path crossing at least one seed, under two weightings:

* system delay: every node contributes its logic_delay and every edge its
  net_delay, measuring the full paths the block sits on;
* block delay: only nodes inside the block contribute logic_delay, and (by
  default) only edges with both endpoints inside the block contribute
  net_delay, measuring the block's own share of those paths.

Every block reads the netlist's one integer index (built with the netlist,
parallel nets collapsed to their maximum delay) and its one topological order
(kept from validation). Each block then runs one dynamic program over its
cone (the seeds' ancestors and descendants), in O(cone V+E): a state records
whether the path must still cross a seed and keeps only its best weight and
next node. Ties go to the smallest next cell index, which yields the
lexicographically smallest cell-id sequence, because indices follow sorted
ids and the candidates at one node all start with distinct successors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .annotation import BlockLabel, BlockRegistry
from .model import BlockscopeError, Netlist, topological_ranks


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


def _reach(starts: set[int], adj: list[tuple[int, ...]]) -> set[int]:
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
    netlist: Netlist,
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
    order, rank = topological_ranks(netlist)
    system = mode is WeightingMode.SYSTEM
    logic, succ, succ_first, succ_delay = netlist.logic, netlist.succ, netlist.succ_first, netlist.succ_delay
    if block_cells is None:
        seeds, down, up = set(), order, []
    else:
        seeds = {netlist.index[cid] for cid in block_cells}
        down, up = (sorted(_reach(seeds, adj), key=rank.__getitem__) for adj in (succ, netlist.pred))

    def node(i: int) -> int:
        return logic[i] if system or i in seeds else 0

    def edge(i: int, j: int, k: int) -> int:
        """Weight of the net i -> j, whose delay is succ_delay[k]."""
        in_scope = system or (include_block_nets and i in seeds and j in seeds)
        return succ_delay[k] if in_scope else 0

    # free[i] / bound[i] = (weight, next node) of the best suffix from i to a
    # sink; a bound suffix must still cross a seed. Only the seeds'
    # descendants can continue a crossed path and only their ancestors can
    # still reach a seed, so each state lives on that half of the cone.
    free: dict[int, tuple[int, int]] = {}
    bound: dict[int, tuple[int, int]] = {}
    sink = netlist.sink
    for nodes, states in ((down, free), (up, bound)):
        for i in reversed(nodes):
            if states is bound and i in seeds:
                if i in free:
                    bound[i] = free[i]
            elif sink[i]:
                free[i] = (node(i), -1)
            else:
                best_w = best_j = -1
                for k, j in enumerate(succ[i], succ_first[i]):
                    if j in states:
                        w = (succ_delay[k] if system else edge(i, j, k)) + states[j][0]
                        if w > best_w:
                            best_w, best_j = w, j
                if best_j >= 0:
                    states[i] = (node(i) + best_w, best_j)

    states = free if block_cells is None else bound
    roots = [(w, -i) for i, (w, _) in states.items() if netlist.source[i]]
    if not roots:
        return ZERO_PATH
    total, root = max(roots)  # heaviest, then smallest source id
    path, i = [], -root
    while i >= 0:
        path.append(i)
        if i in seeds:
            states = free
        i = states[i][1]
    logic_sum = sum(node(i) for i in path)
    network = sum(edge(i, j, succ_first[i] + succ[i].index(j)) for i, j in zip(path, path[1:]))
    if logic_sum + network != total:
        raise RuntimeError("internal error: path decomposition does not match its total")
    return PathResult(total, logic_sum, network, tuple(netlist.ids[i] for i in path))


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

    def solve(cells: frozenset[str]) -> BlockDelay:
        return BlockDelay(
            longest_path(netlist, cells, WeightingMode.SYSTEM),
            longest_path(netlist, cells, WeightingMode.BLOCK, include_block_nets),
        )

    per_block = {label: solve(cells) for label, cells in registry.blocks.items()}
    unannotated = solve(registry.unannotated) if registry.unannotated else None
    global_critical = longest_path(netlist, None, WeightingMode.SYSTEM)
    critical_blocks = frozenset(
        label
        for label, cells in registry.blocks.items()
        if not cells.isdisjoint(global_critical.path)
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)
