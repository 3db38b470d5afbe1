"""Back-annotate post-synthesis timing onto blocks.

Each block's annotated cells are seeds; its delay is the longest complete
source-to-sink path crossing at least one seed, under two weightings:

* system delay: every node contributes its logic_delay and every edge its
  net_delay, measuring the full paths the block sits on;
* block delay: only nodes inside the block contribute logic_delay, and (by
  default) only edges with both endpoints inside the block contribute
  net_delay, measuring the block's own share of those paths.

One dynamic program, over the netlist's one integer index and topological
order, finds every path. Swept in reverse topological order, a state records
whether the path must still cross a seed (bound) or not (free) and keeps its
best weight and next node. Ties go to the smallest next cell index, which
yields the lexicographically smallest cell-id sequence, because indices
follow sorted ids and the candidates at one node all start with distinct
successors.

A report starts with one shared pass that keeps, per node, the free state
under system weights, tail (the smallest successor that reaches a sink) and
through (the heaviest complete path through the node). System delay then
sweeps only its tight region, where a path of the seeds' largest through can
run. Block delay skips the seed descendants that reach no seed (they weigh 0
and follow tail), but still sweeps the seeds' whole ancestor cone: O(V+E) of
that cone per block.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .annotation import BlockLabel, BlockRegistry
from .area import cell_indices
from .model import BlockscopeError, Netlist, topological_ranks


class WeightingMode(Enum):
    SYSTEM = "system-delay"
    BLOCK = "block-delay"


class PathResult(NamedTuple):
    """Winning path and its delay split into logic and network parts."""

    total_delay: int
    logic_delay: int
    network_delay: int
    path: tuple[str, ...]


ZERO_PATH = PathResult(0, 0, 0, ())

State = tuple[int, int]  # weight of the best suffix to a sink, and its next node (-1 at a sink)


def _reach(starts, adj: list[tuple[int, ...]], keep=None) -> set[int]:
    """Every node reachable from starts along adj via nodes passing keep, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen and (keep is None or keep(j)):
                seen.add(j)
                stack.append(j)
    return seen


class _Shared:
    """One report's shared pass, and each block's search that starts from it."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        order, self.rank = topological_ranks(netlist)
        self.free: dict[int, State] = {}
        self.critical = self._search(set(), True, True, order, (), self.free)
        free, succ, succ_delay, sink = self.free, netlist.succ, netlist.succ_delay, netlist.sink
        prefix = [0 if s else -1 for s in netlist.source]  # heaviest source-to-i weight before i
        for i in order:
            a = prefix[i]
            if a >= 0 and i in free and not sink[i]:
                a += netlist.logic[i]
                for k, j in enumerate(succ[i], netlist.succ_first[i]):
                    if a + succ_delay[k] > prefix[j]:
                        prefix[j] = a + succ_delay[k]
        self.through = [
            a + free[i][0] if a >= 0 and i in free else -1 for i, a in enumerate(prefix)
        ]
        self.tail = [
            -1 if sink[i] else next((j for j in row if j in free), -1) for i, row in enumerate(succ)
        ]

    def solve(self, seeds: set[int], mode: WeightingMode, include_block_nets: bool) -> PathResult:
        pred, rank, through = self.netlist.pred, self.rank.__getitem__, self.through
        if mode is WeightingMode.SYSTEM:
            weight = max((through[c] for c in seeds), default=-1)
            if weight < 0:
                return ZERO_PATH
            top = [c for c in seeds if through[c] == weight]
            up = sorted(_reach(top, pred, lambda p: through[p] >= weight), key=rank)
            return self._search(seeds, True, True, (), up, self.free)
        ancestors = _reach(seeds, pred)
        down = sorted(_reach(seeds, self.netlist.succ, ancestors.__contains__), key=rank)
        up = sorted(ancestors, key=rank)
        del ancestors  # free the set before the sweep's dicts grow
        return self._search(seeds, False, include_block_nets, down, up, {})

    def _search(self, seeds, system, include_block_nets, down, up, free) -> PathResult:
        """The DP: add the free states of down to free and find the bound
        states of up (both topologically sorted), then follow the best path.
        A free successor with no state in free but a shared one (a seed
        descendant left out by block weighting) weighs 0 and goes on by tail."""
        netlist = self.netlist
        logic, sink, succ, succ_first, succ_delay = (
            netlist.logic, netlist.sink, netlist.succ, netlist.succ_first, netlist.succ_delay,
        )
        bound: dict[int, State] = {}
        for nodes, states, outside in ((down, free, self.free), (up, bound, ())):
            get, crossing = states.get, states is bound
            for i in reversed(nodes):
                seed = i in seeds
                if seed and crossing:
                    if i in free:
                        bound[i] = free[i]
                elif sink[i]:
                    if not crossing:
                        free[i] = (logic[i] if system or seed else 0, -1)
                else:
                    best_w = best_j = -1
                    nets = system or (include_block_nets and seed)
                    for k, j in enumerate(succ[i], succ_first[i]):
                        s = get(j)
                        if s is not None:
                            w = s[0] + succ_delay[k] if nets and (system or j in seeds) else s[0]
                            if w > best_w:
                                best_w, best_j = w, j
                        elif best_w < 0 and j in outside:
                            best_w, best_j = 0, j
                    if best_j >= 0:
                        states[i] = ((logic[i] if system or seed else 0) + best_w, best_j)

        states = bound if seeds else free
        roots = [(w, -i) for i, (w, _) in states.items() if netlist.source[i]]
        if not roots:
            return ZERO_PATH
        total, root = max(roots)  # heaviest, then smallest source id
        path, i = [], -root
        while i >= 0:
            path.append(i)
            if i in seeds:
                states = free
            s = states.get(i)
            i = self.tail[i] if s is None else s[1]  # the shared pass never needs tail
        logic_sum = sum(logic[i] for i in path if system or i in seeds)
        network = sum(
            succ_delay[succ_first[i] + succ[i].index(j)]
            for i, j in zip(path, path[1:])
            if system or (include_block_nets and i in seeds and j in seeds)
        )
        if logic_sum + network != total:
            raise RuntimeError("internal error: path decomposition does not match its total")
        return PathResult(total, logic_sum, network, tuple(netlist.ids[i] for i in path))


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
    shared = _Shared(netlist)
    if block_cells is None:
        return shared.critical
    return shared.solve(cell_indices(netlist, block_cells), mode, include_block_nets)


class BlockDelay(NamedTuple):
    system: PathResult
    block: PathResult


class DelayReport(NamedTuple):
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
    shared = _Shared(netlist)

    def solve(cells: frozenset[str]) -> BlockDelay:
        seeds = cell_indices(netlist, cells)
        return BlockDelay(
            shared.solve(seeds, WeightingMode.SYSTEM, include_block_nets),
            shared.solve(seeds, WeightingMode.BLOCK, include_block_nets),
        )

    per_block = {label: solve(cells) for label, cells in registry.blocks.items()}
    unannotated = solve(registry.unannotated) if registry.unannotated else None
    global_critical = shared.critical
    critical_blocks = frozenset(
        label
        for label, cells in registry.blocks.items()
        if not cells.isdisjoint(global_critical.path)
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)
