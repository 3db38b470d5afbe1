"""Back-annotate post-synthesis timing onto blocks.

``delay_report`` is the one entry point; a single cell set's delays come from
a one-block ``BlockRegistry``. Each block's annotated cells are seeds; its
delay is the longest complete source-to-sink path crossing at least one seed,
under two weightings:

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
under system weights and through (the heaviest complete path through the
node). System delay then sweeps only its tight region, where a path of the
seeds' largest through can run. Block delay sweeps no bound states: outside
the block a node weighs 0 and a net counts only between two seeds, so a
node's bound state is the heaviest free state among the seeds below it, and
the winning path starts at the smallest source above a heaviest seed. Free
states are swept only over the seed descendants that reach a seed that can
weigh more than 0; every path from any other node weighs 0, so its smallest
successor that reaches a sink is its best. Per block, the work left is the
reach over the ancestors of the seeds that can weigh more than 0 and of the
heaviest seeds.

Seeds on a path the shared pass already has skip their search. Under system
weights, seeds on the global critical path take it: it is the heaviest
complete path and the first of the heaviest, so no seed-crossing path beats
it. Under block weights, seeds none of which can weigh more than 0 weigh 0 on
every path, so if they meet the first complete path (the smallest source that
reaches a sink, then the smallest successor that does) it wins; that path is
built once per report, on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from .annotation import BlockLabel, BlockRegistry
from .area import cell_indices
from .model import Netlist


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
    """One report's shared pass, and each block's search that starts from it;
    include_block_nets holds for every block of the report."""

    def __init__(self, netlist: Netlist, include_block_nets: bool) -> None:
        self.netlist, self.include_block_nets = netlist, include_block_nets
        self.succ, self.succ_first, self.succ_delay, self.pred, self.rank = netlist.delay_graph()
        self.free: dict[int, State] = {}
        self.critical = self._search(set(), True, netlist.order, (), self.free)
        self.on_critical = set(map(netlist.index.__getitem__, self.critical.path))
        self.first: tuple[set[int], PathResult] | None = None  # built by _first_path
        free, sink, logic = self.free, netlist.sink, netlist.logic
        succ, succ_first, succ_delay = self.succ, self.succ_first, self.succ_delay
        prefix = [0 if s else -1 for s in netlist.source]  # heaviest source-to-i weight before i
        for i in netlist.order:
            a = prefix[i]
            if a >= 0 and i in free and not sink[i]:
                a += logic[i]
                for k, j in enumerate(succ[i], succ_first[i]):
                    if a + succ_delay[k] > prefix[j]:
                        prefix[j] = a + succ_delay[k]
        self.through = [
            a + free[i][0] if a >= 0 and i in free else -1 for i, a in enumerate(prefix)
        ]

    def system(self, seeds: set[int]) -> PathResult:
        """The heaviest complete path through a seed, every node and net weighing."""
        if not seeds.isdisjoint(self.on_critical):
            return self.critical  # the heaviest of all paths, and the first of the heaviest
        through = self.through
        weight = max((through[c] for c in seeds), default=-1)
        if weight < 0:
            return ZERO_PATH
        top = [c for c in seeds if through[c] == weight]
        up = _reach(top, self.pred, lambda p: through[p] >= weight)
        return self._search(seeds, True, (), sorted(up, key=self.rank.__getitem__), self.free)

    def block(self, seeds: set[int]) -> PathResult:
        """The complete path through a seed on which the seeds weigh the most."""
        logic, succ, nets = self.netlist.logic, self.succ, self.include_block_nets
        weighs = [c for c in seeds if logic[c] or nets and not seeds.isdisjoint(succ[c])]
        if not weighs:  # every path weighs 0, so the first complete path wins if it crosses a seed
            on_first, first = self._first_path()
            if not seeds.isdisjoint(on_first):
                return first
        cone = _reach(weighs, self.pred)
        down = _reach(cone.intersection(seeds), succ, cone.__contains__)
        return self._search(seeds, False, sorted(down, key=self.rank.__getitem__), (), {})

    def _first_path(self) -> tuple[set[int], PathResult]:
        """The first complete path and its cells: the smallest source that
        reaches a sink, then at each step the smallest successor that does."""
        if self.first is None:
            free, succ, source = self.free, self.succ, self.netlist.source
            i = next((i for i, s in enumerate(source) if s and i in free), -1)
            path = []
            while i >= 0:
                path.append(i)
                i = next((j for j in succ[i] if j in free), -1)
            self.first = set(path), PathResult(0, 0, 0, tuple(map(self.netlist.ids.__getitem__, path)))
        return self.first

    def _search(self, seeds, system, down, up, free) -> PathResult:
        """The DP: add the free states of down to free and find the bound
        states of up (both topologically sorted), then follow the best path.
        A successor with no state in free but a shared one (it reaches no
        seed that weighs) weighs 0, plus its net if that counts.

        Block weighting sweeps no bound states (up is empty). There a non-seed
        weighs 0 and its nets do not count, so its bound state is the heaviest
        free state among the seeds below it: the path starts at the smallest
        source above a heaviest seed and steps to the smallest successor that
        still reaches one."""
        netlist, include_block_nets = self.netlist, self.include_block_nets
        logic, sink, succ, succ_first, succ_delay = (
            netlist.logic, netlist.sink, self.succ, self.succ_first, self.succ_delay,
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
                        if s is not None or j in outside:
                            w = s[0] if s else 0
                            if nets and (system or j in seeds):
                                w += succ_delay[k]
                            if w > best_w:
                                best_w, best_j = w, j
                    if best_j >= 0:
                        states[i] = ((logic[i] if system or seed else 0) + best_w, best_j)

        if system:
            states = bound if seeds else free
            roots = ((w, -i) for i, (w, _) in states.items() if netlist.source[i])
            total, root = max(roots, default=(0, 1))  # heaviest, then smallest source id
            root, onward = -root, free  # every node on this walk has a state
        else:
            weight = {c: free[c][0] if c in free else 0 for c in seeds if self.through[c] >= 0}
            total = max(weight.values(), default=-1)
            onward = _reach([c for c, w in weight.items() if w == total], self.pred)
            root = min((i for i in onward if netlist.source[i]), default=-1)
        if root < 0:
            return ZERO_PATH
        path, i, states = [], root, bound if seeds else free
        while i >= 0:
            path.append(i)
            if i in seeds:
                states, onward = free, self.free
            s = states.get(i)  # None only for a node that weighs 0 under block weighting
            i = s[1] if s is not None else next((j for j in succ[i] if j in onward), -1)
        logic_sum = sum(logic[i] for i in path if system or i in seeds)
        network = sum(
            succ_delay[succ_first[i] + succ[i].index(j)]
            for i, j in zip(path, path[1:])
            if system or (include_block_nets and i in seeds and j in seeds)
        )
        if logic_sum + network != total:
            raise RuntimeError("internal error: path decomposition does not match its total")
        return PathResult(total, logic_sum, network, tuple(netlist.ids[i] for i in path))


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
    shared = _Shared(netlist, include_block_nets)

    def solve(cells: frozenset[str]) -> BlockDelay:
        seeds = cell_indices(netlist, cells)
        return BlockDelay(shared.system(seeds), shared.block(seeds))

    per_block = {label: solve(cells) for label, cells in registry.blocks.items()}
    unannotated = solve(registry.unannotated) if registry.unannotated else None
    global_critical = shared.critical
    critical_blocks = frozenset(
        label
        for label, cells in registry.blocks.items()
        if not cells.isdisjoint(global_critical.path)
    )
    return DelayReport(per_block, unannotated, global_critical, critical_blocks)
