"""Path expansion, connected sets, and longest-path scoring in both weightings."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscope import delay as delay_layer
from blockscope.annotation import BlockLabel, BlockRegistry, build_registry, group_to_depth
from blockscope.area import BlockArea, area_report
from blockscope.delay import BlockDelay, PathResult, ZERO_PATH, delay_report
from blockscope.devices import resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.model import SOURCE_KINDS, Cell, CellKind, Net, Netlist, ValidationError, validate
from blockscope.power import ActivityProfile
from blockscope.report import build_report

from oracles import (
    Weighting,
    connected_sets,
    expand_paths,
    oracle_expand,
    oracle_longest_path,
    reference_delay_report,
)

CORE = BlockLabel.parse("core")


def fig6_core():
    nl = gen_fig6()
    return nl, build_registry(nl).blocks[CORE]


def one_block(nl, cells, include_nets=True):
    """The system and block delays of one cell set, through a one-block registry."""
    registry = BlockRegistry({CORE: frozenset(cells)}, frozenset())
    return delay_report(nl, registry, include_block_nets=include_nets).per_block[CORE]


def test_expansion_covers_both_components():
    nl, core = fig6_core()
    sub = expand_paths(nl, core)
    assert len(sub.nodes) == 12
    sets = connected_sets(sub)
    assert [len(s.nodes) for s in sets] == [7, 5]
    assert "ff_q_a" in sets[0].nodes and "ff_q_b" in sets[1].nodes


def test_fig6_system_and_block_delays():
    nl, core = fig6_core()
    report = delay_report(nl, build_registry(nl))
    bd = report.per_block[CORE]
    chain = ("ff_q_a", "core__a1", "core__a2", "core__a3", "mid_a4", "mid_a5", "ff_d_a")
    assert bd.system.total_delay == 5
    assert bd.system.path == chain
    assert bd.block.total_delay == 3
    assert report.global_critical.total_delay == 5
    assert report.global_critical.path == chain
    assert report.critical_blocks == frozenset({CORE})


def test_expansion_drops_edges_outside_seed_paths():
    # mid_b2 -> ff_d_b1 is only reachable through core__b1, so seeding just
    # the A-side cells must exclude the whole B component.
    nl, _ = fig6_core()
    sub = expand_paths(nl, {"core__a1"})
    assert "ff_q_b" not in sub.nodes and "core__b1" not in sub.nodes
    assert len(sub.nodes) == 7


def test_expansion_of_disconnected_seed_is_empty():
    nl = Netlist(
        [Cell("i", CellKind.IN), Cell("o", CellKind.OUT), Cell("b__lone", CellKind.LUT1, 4)],
        [Net("i", "o", 1)],
    )
    sub = expand_paths(nl, {"b__lone"})
    assert sub.nodes == frozenset() and sub.edges == ()
    assert one_block(nl, {"b__lone"}).system == ZERO_PATH


def test_composite_walks_that_dodge_every_seed_cannot_win():
    # Union of through-seed paths contains the walk q2,x2,m,y,d1 (weight 151)
    # glued from two half-paths at m, but no complete path through a seed has
    # weight over 111; the search must not be fooled by the composite.
    cells = [
        Cell("q1", CellKind.FF_Q),
        Cell("q2", CellKind.FF_Q),
        Cell("blk__s1", CellKind.LUT1, 10),
        Cell("x2", CellKind.LUT1, 50),
        Cell("m", CellKind.LUT2, 1),
        Cell("y", CellKind.LUT1, 100),
        Cell("blk__s2", CellKind.LUT1, 1),
        Cell("d1", CellKind.FF_D),
        Cell("d2", CellKind.FF_D),
    ]
    nets = [
        Net("q1", "blk__s1"),
        Net("blk__s1", "m"),
        Net("q2", "x2"),
        Net("x2", "m"),
        Net("m", "y"),
        Net("y", "d1"),
        Net("m", "blk__s2"),
        Net("blk__s2", "d2"),
    ]
    nl = Netlist(cells, nets)
    seeds = frozenset({"blk__s1", "blk__s2"})
    sub = expand_paths(nl, seeds)
    assert {"q2", "x2", "y", "d1"} <= sub.nodes  # the trap is present
    got = one_block(nl, seeds).system
    assert got.total_delay == 111
    assert got.path == ("q1", "blk__s1", "m", "y", "d1")
    assert got == oracle_longest_path(nl, seeds, Weighting.SYSTEM)


def test_ties_break_to_smallest_path():
    cells = [
        Cell("i", CellKind.IN),
        Cell("a", CellKind.LUT1, 5),
        Cell("b", CellKind.LUT1, 5),
        Cell("o", CellKind.OUT),
    ]
    nets = [Net("i", "a", 1), Net("i", "b", 1), Net("a", "o", 1), Net("b", "o", 1)]
    nl = Netlist(cells, nets)
    seeds = frozenset({"a", "b"})
    got = one_block(nl, seeds).system
    assert got.path == ("i", "a", "o")
    assert got == oracle_longest_path(nl, seeds, Weighting.SYSTEM)


def test_parallel_nets_score_their_maximum():
    cells = [Cell("i", CellKind.IN), Cell("b__l", CellKind.LUT1, 2), Cell("o", CellKind.OUT)]
    nets = [Net("i", "b__l", 3), Net("i", "b__l", 9), Net("b__l", "o", 1)]
    nl = Netlist(cells, nets)
    seeds = frozenset({"b__l"})
    got, blk = one_block(nl, seeds)
    assert got.total_delay == 9 + 2 + 1
    assert got.network_delay == 10
    # block weighting: i is outside, so the parallel pair contributes nothing
    assert blk.total_delay == 2 and blk.network_delay == 0


def test_intra_block_nets_flag():
    cells = [
        Cell("i", CellKind.IN),
        Cell("b__u", CellKind.LUT1, 2),
        Cell("b__v", CellKind.LUT1, 3),
        Cell("o", CellKind.OUT),
    ]
    nets = [Net("i", "b__u", 1), Net("b__u", "b__v", 7), Net("b__v", "o", 1)]
    nl = Netlist(cells, nets)
    seeds = frozenset({"b__u", "b__v"})
    with_nets = one_block(nl, seeds).block
    assert (with_nets.total_delay, with_nets.network_delay) == (12, 7)
    nodes_only = one_block(nl, seeds, include_nets=False).block
    assert (nodes_only.total_delay, nodes_only.network_delay) == (5, 0)
    assert nodes_only == oracle_longest_path(nl, seeds, Weighting.BLOCK, include_block_nets=False)


def test_gcd_critical_path_and_dominance():
    nl, _ = gen_gcd()
    report = delay_report(nl, build_registry(nl))
    assert report.global_critical.path == (
        "x__q0",
        "subtract__guard",
        "subtract__diff0",
        "subtract__diff1",
        "subtract__wy1",
        "y__d1",
    )
    for bd in report.per_block.values():
        assert bd.block.total_delay <= bd.system.total_delay
    assert report.critical_blocks == {
        BlockLabel.parse(s) for s in ("subtract", "x", "y")
    }
    # every block the critical path touches reports the critical system delay
    for label in report.critical_blocks:
        assert report.per_block[label].system.total_delay == report.global_critical.total_delay


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_expansion_matches_path_enumeration(seed, n):
    nl = gen_random(seed, n)
    registry = build_registry(nl)
    for cells in list(registry.blocks.values())[:2]:
        sub = expand_paths(nl, cells)
        nodes, edges = oracle_expand(nl, cells)
        assert sub.nodes == nodes
        assert frozenset((e.src, e.dst) for e in sub.edges) == edges


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.booleans())
def test_longest_path_matches_oracle(seed, n, include_nets):
    nl = gen_random(seed, n)
    registry = build_registry(nl)
    report = delay_report(nl, registry, include_block_nets=include_nets)
    assert report.global_critical == oracle_longest_path(nl, None, Weighting.SYSTEM)
    for label, cells in registry.blocks.items():
        bd = report.per_block[label]
        assert bd.system == oracle_longest_path(nl, cells, Weighting.SYSTEM)
        assert bd.block == oracle_longest_path(
            nl, cells, Weighting.BLOCK, include_block_nets=include_nets
        )
        assert bd.block.total_delay <= bd.system.total_delay


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 14))
def test_global_critical_is_the_partition_maximum(seed, n):
    nl = gen_random(seed, n)
    registry = build_registry(nl)
    report = delay_report(nl, registry)
    partition_best = [bd.system.total_delay for bd in report.per_block.values()]
    if report.unannotated is not None:
        partition_best.append(report.unannotated.system.total_delay)
    for best in partition_best:
        assert best <= report.global_critical.total_delay
    if partition_best:
        assert max(partition_best) == report.global_critical.total_delay


@pytest.mark.parametrize(
    "netlist",
    [pytest.param(lambda width=width: gen_gcd(width)[0], id=f"gcd{width}") for width in range(1, 9)]
    + [pytest.param(gen_fig6, id="fig6")]
    # seeds with 2-4 blocks each; seed 0 yields a single block
    + [
        pytest.param(lambda seed=seed, n=n: gen_random(seed, n), id=f"random{seed}-{n}")
        for seed, n in ((1, 500), (4, 500), (3, 1000), (6, 1000), (5, 2000), (7, 2000))
    ],
)
def test_delay_report_matches_reference_pipeline(netlist):
    # beyond the 14-cell enumeration limit the reference is the expansion,
    # connected-set and tuple-suffix pipeline, which shares no search code
    nl = netlist()
    registry = build_registry(nl)
    for include_nets in (True, False):
        got = delay_report(nl, registry, include_block_nets=include_nets)
        assert got == reference_delay_report(nl, registry, include_block_nets=include_nets)


def _lut_chain(n_cells, n_blocks):
    """IN -> n_cells LUTs split into n_blocks consecutive runs -> OUT."""
    size = n_cells // n_blocks
    ids = [f"b{k // size:03d}__c{k:05d}" for k in range(n_cells)]
    cells = [Cell("in", CellKind.IN), Cell("out", CellKind.OUT)]
    cells += [Cell(cid, CellKind.LUT1, 1 + k % 7) for k, cid in enumerate(ids)]
    chain = ["in", *ids, "out"]
    nets = [Net(a, b, k % 5) for k, (a, b) in enumerate(zip(chain, chain[1:]))]
    return Netlist(cells, nets), chain


@pytest.mark.parametrize("n_cells, n_blocks", [(1_000, 200), (20_000, 1)])
def test_long_chains_have_analytic_delays(n_cells, n_blocks):
    # 20,000 cells deep is far past the recursion limit, so nothing may recurse
    nl, chain = _lut_chain(n_cells, n_blocks)
    registry = build_registry(nl)
    started = time.perf_counter()
    report = delay_report(nl, registry)
    assert time.perf_counter() - started < 5.0
    delay_of = {c.id: c.logic_delay for c in nl.cells}
    net_of = {(n.src, n.dst): n.net_delay for n in nl.nets}
    whole = sum(delay_of.values()) + sum(net_of.values())
    assert len(report.per_block) == n_blocks
    for label, cells in registry.blocks.items():
        bd = report.per_block[label]
        assert bd.system.path == tuple(chain)
        assert bd.system.total_delay == whole
        own = sum(delay_of[c] for c in cells)
        inside = sum(d for (a, b), d in net_of.items() if a in cells and b in cells)
        assert (bd.block.logic_delay, bd.block.network_delay) == (own, inside)
        assert bd.block.total_delay == own + inside
    system_best = max(bd.system.total_delay for bd in report.per_block.values())
    assert report.global_critical.total_delay == system_best == whole
    assert report.global_critical.path == tuple(chain)


def _retimed(nl, delay):
    """nl with every net delay and every non-source logic delay drawn from delay()."""
    cells = [Cell(c.id, c.kind, 0 if c.kind in SOURCE_KINDS else delay()) for c in nl.cells]
    return Netlist(cells, [Net(n.src, n.dst, delay()) for n in nl.nets], nl.ff_pairs)


@pytest.mark.parametrize("ties", ["equal", "binary", "zero"])
@pytest.mark.parametrize(
    "seed, n",
    [(1, 40), (2, 120), (9, 250), (3, 400), (1, 500), (4, 500), (6, 1000), (5, 2000), (7, 2000)],
)
def test_tie_heavy_delays_match_reference_pipeline(seed, n, ties):
    # with every delay equal, or every delay 0 or 1, nearly every choice in the
    # search is a tie, so only the tie-break separates the candidate paths; with
    # every delay 0 no block weighs anything, so each block either takes the
    # first complete path or, missing it, runs its search
    rng = random.Random(seed)
    delay = {"equal": lambda: 1, "binary": lambda: rng.randint(0, 1), "zero": lambda: 0}[ties]
    nl = _retimed(gen_random(seed, n), delay)
    assert validate(nl) == ()
    registry = build_registry(nl)
    # blocks of 1-3 cells leave most of every path outside the block
    few = {
        BlockLabel.parse(f"few{k}"): frozenset(rng.sample(nl.ids, rng.randint(1, 3))) for k in range(6)
    }
    for reg in (registry, group_to_depth(registry, 1), BlockRegistry(few, frozenset())):
        for include_nets in (True, False):
            got = delay_report(nl, reg, include_block_nets=include_nets)
            assert got == reference_delay_report(nl, reg, include_block_nets=include_nets)


def _reports_match_reference(nl, registry=None):
    """delay_report with and without block nets, each checked against the
    reference pipeline; returns the two reports, block nets first."""
    registry = registry or build_registry(nl)
    reports = []
    for include_nets in (True, False):
        got = delay_report(nl, registry, include_block_nets=include_nets)
        assert got == reference_delay_report(nl, registry, include_block_nets=include_nets)
        reports.append(got)
    return reports


def test_block_delay_tie_at_the_heaviest_seeds_goes_to_the_smaller_source():
    # b__x and b__y both weigh 5 but share no ancestor: q1 and q2 tie at the
    # top, and q1 wins, through m1 rather than the slower-netted m2. b__z
    # weighs 2 and sits under q0, the smallest source, which must not win.
    cells = [
        Cell("q0", CellKind.IN),
        Cell("q1", CellKind.IN),
        Cell("q2", CellKind.IN),
        Cell("m1", CellKind.LUT1, 1),
        Cell("m2", CellKind.LUT1, 9),
        Cell("b__x", CellKind.LUT1, 5),
        Cell("b__y", CellKind.LUT2, 5),
        Cell("b__z", CellKind.LUT1, 2),
        Cell("o0", CellKind.OUT),
        Cell("o1", CellKind.OUT),
        Cell("o2", CellKind.OUT),
    ]
    nets = [
        Net("q0", "b__z", 8),
        Net("b__z", "o0", 8),
        Net("q2", "b__x", 1),
        Net("b__x", "o1", 1),
        Net("q1", "m1", 1),
        Net("q1", "m2", 6),
        Net("m1", "b__y", 1),
        Net("m2", "b__y", 6),
        Net("b__y", "o2", 1),
    ]
    for report in _reports_match_reference(Netlist(cells, nets)):
        block = report.per_block[BlockLabel.parse("b")].block
        assert block == PathResult(5, 5, 0, ("q1", "m1", "b__y", "o2"))


def test_block_delay_ignores_a_heavier_seed_no_source_reaches():
    # b__h weighs 50 and reaches a sink, but no source reaches it, so no
    # complete path crosses it and the block's delay comes from b__s
    cells = [
        Cell("i", CellKind.IN),
        Cell("b__h", CellKind.LUT1, 50),
        Cell("b__s", CellKind.LUT1, 3),
        Cell("o", CellKind.OUT),
        Cell("o2", CellKind.OUT),
    ]
    nets = [Net("i", "b__s", 2), Net("b__s", "o", 2), Net("b__h", "o2", 2)]
    for report in _reports_match_reference(Netlist(cells, nets)):
        assert report.per_block[BlockLabel.parse("b")].block == PathResult(3, 3, 0, ("i", "b__s", "o"))


def test_block_delay_of_port_only_blocks():
    # p holds two zero-logic ports joined by a net, so it weighs only when
    # block nets count; the unannotated ports weigh nothing, and their block
    # delay is the smallest complete path that crosses one of them
    cells = [
        Cell("i0", CellKind.IN),
        Cell("i1", CellKind.IN),
        Cell("k__a", CellKind.LUT1, 4),
        Cell("k__b", CellKind.LUT2, 3),
        Cell("k__c", CellKind.LUT1, 1),
        Cell("o0", CellKind.OUT),
        Cell("o1", CellKind.OUT),
        Cell("p__i", CellKind.IN),
        Cell("p__o", CellKind.OUT),
    ]
    nets = [
        Net("i1", "k__a", 2),
        Net("k__a", "k__b", 2),
        Net("k__b", "o0", 2),
        Net("i0", "k__c", 1),
        Net("k__c", "o1", 1),
        Net("p__i", "k__b", 5),
        Net("k__b", "p__o", 5),
        Net("p__i", "p__o", 7),
    ]
    with_nets, nodes_only = _reports_match_reference(Netlist(cells, nets))
    ports = BlockLabel.parse("p")
    assert with_nets.per_block[ports].block == PathResult(7, 0, 7, ("p__i", "p__o"))
    # i1 is the smallest source above a port of p, and k__b must go on into p__o
    assert nodes_only.per_block[ports].block == PathResult(0, 0, 0, ("i1", "k__a", "k__b", "p__o"))
    for report in (with_nets, nodes_only):
        assert report.unannotated.block == PathResult(0, 0, 0, ("i0", "k__c", "o1"))


def test_cyclic_netlist_is_a_delay_error_but_still_has_an_area():
    cells = [Cell("b__i", CellKind.IN), Cell("b__m1", CellKind.LUT2, 1),
             Cell("b__m2", CellKind.LUT1, 1), Cell("b__o", CellKind.OUT)]
    nets = [Net("b__i", "b__m1", 1), Net("b__m1", "b__m2", 1), Net("b__m2", "b__m1", 1),
            Net("b__m2", "b__o", 1)]
    nl = Netlist(cells, nets)
    assert nl.cycle is not None and nl.cycle.rule == "combinational-cycle"
    with pytest.raises(ValidationError) as err:
        delay_report(nl, build_registry(nl))
    assert err.value.violations == (nl.cycle,)
    area = build_report(nl, metrics=("area",)).area
    assert area.totals.counts["LUT2"] == area.totals.counts["LUT1"] == 1


def test_block_net_into_a_zero_logic_register_input_counts():
    # r__d weighs nothing itself, but the net into it lies inside the block
    cells = [
        Cell("o", CellKind.OUT),
        Cell("q", CellKind.FF_Q),
        Cell("r__d", CellKind.FF_D),
        Cell("r__l", CellKind.LUT1, 2),
    ]
    nets = [Net("q", "r__l", 1), Net("r__l", "r__d", 9), Net("r__l", "o", 1)]
    with_nets, nodes_only = _reports_match_reference(Netlist(cells, nets))
    block = BlockLabel.parse("r")
    assert with_nets.per_block[block].block == PathResult(11, 2, 9, ("q", "r__l", "r__d"))
    assert nodes_only.per_block[block].block == PathResult(2, 2, 0, ("q", "r__l", "o"))


def _layered(seed, stages=3, modules=4, ops=4, layers=10, width=12):
    """Seeded pipeline with every cell annotated: each s<stage>.m<module>.op<op>
    block builds layers of LUTs, each reading 1-4 cells of its own previous
    layer and now and then one of another block's; registers feed the next
    stage and ports open the first and close the last."""
    rng = random.Random(seed)
    cells, nets, pairs = [], [], []

    def add(cid, kind, inputs=(), delay=0):
        cells.append(Cell(cid, kind, delay))
        nets.extend(Net(src, cid, rng.randint(1, 30)) for src in inputs)
        return cid

    labels = [f"s{s}.m{m}.op{o}" for s in range(stages) for m in range(modules) for o in range(ops)]
    per_stage = modules * ops
    frontier = {}
    for label in labels[:per_stage]:
        frontier[label] = [add(f"{label}__in{p}", CellKind.IN) for p in range(2)]
    for b, label in enumerate(labels):
        s = b // per_stage
        for layer in range(layers):
            own = frontier[label]
            row = []
            for w in range(width):
                extra = rng.sample(own, rng.randint(0, min(3, len(own) - 1)))
                inputs = {own[w % len(own)], *extra}
                if rng.random() < 0.05:
                    other = frontier[labels[s * per_stage + rng.randrange(per_stage)]]
                    inputs.add(other[rng.randrange(len(other))])
                kind = CellKind[f"LUT{len(inputs)}"]
                row.append(add(f"{label}__l{layer}_{w}", kind, sorted(inputs), rng.randint(10, 60)))
            frontier[label] = row
        if s == stages - 1:
            for w, src in enumerate(frontier[label]):
                add(f"{label}__out{w}", CellKind.OUT, [src])
            continue
        qs = []
        for r in range(4):
            d = add(f"{label}__d{r}", CellKind.FF_D, [frontier[label][r]])
            qs.append(add(f"{label}__q{r}", CellKind.FF_Q))
            pairs.append((d, qs[-1]))
        nxt = labels[b + per_stage]
        frontier[nxt] = frontier.get(nxt, []) + qs
        other = labels[(s + 1) * per_stage + rng.randrange(per_stage)]
        frontier[other] = frontier.get(other, []) + qs[:1]
    return Netlist(cells, nets, pairs)


def _chains(seed, count=4, length=1_700):
    """count LUT chains of length cells from IN to OUT ports, the first half of
    each in block chain.head and the second in chain.tail; now and then a LUT
    also reads a recent cell of another chain, so every path runs deep."""
    rng = random.Random(seed)
    cells = [Cell(f"in{c}", CellKind.IN) for c in range(count)]
    cols = [[f"in{c}"] for c in range(count)]
    nets = []
    for i in range(1, length + 1):
        label = "chain.head" if i <= length // 2 else "chain.tail"
        for c in range(count):
            inputs = [cols[c][-1]]
            if rng.random() < 0.02:
                other = cols[(c + rng.randrange(1, count)) % count]
                inputs.append(other[max(0, i - 1 - rng.randrange(4))])
            cid = f"{label}__c{c}_{i}"
            cells.append(Cell(cid, CellKind[f"LUT{len(inputs)}"], rng.randint(10, 60)))
            nets += [Net(src, cid, rng.randint(1, 30)) for src in inputs]
            cols[c].append(cid)
    for c in range(count):
        cells.append(Cell(f"out{c}", CellKind.OUT))
        nets.append(Net(cols[c][-1], f"out{c}", rng.randint(1, 30)))
    return Netlist(cells, nets)


@pytest.mark.parametrize("netlist", [lambda: _layered(11), lambda: _chains(3)], ids=["layered", "chains"])
def test_delay_report_matches_reference_pipeline_at_scale(netlist):
    # past the 2,000 cells of the other reference tests: 6,240 cells in 48
    # blocks, and 6,808 cells on paths 1,700 deep in 2 blocks and the ports
    nl = netlist()
    assert validate(nl) == () and len(nl.cells) in (6_240, 6_808)
    _reports_match_reference(nl)


def test_seed_sets_on_the_first_paths_skip_their_search(monkeypatch):
    # every seed set of the deep_paths shape meets the critical path, and the
    # weightless port-only (unannotated) block meets the first complete path,
    # so no system search runs and the ports reach nothing
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(delay_layer, "_reach", counted("_reach", delay_layer._reach))
    for name in ("system", "block", "_search"):
        monkeypatch.setattr(delay_layer._Shared, name, counted(name, getattr(delay_layer._Shared, name)))
    nl = _chains(3)
    registry = build_registry(nl)
    report = delay_report(nl, registry)
    assert calls[0] == "_search"  # the shared pass
    solves = []  # each system() and block() call, with the calls made inside it
    for name in calls[1:]:
        if name in ("system", "block"):
            solves.append((name, []))
        else:
            solves[-1][1].append(name)
    assert [name for name, _ in solves] == ["system", "block"] * (len(registry.blocks) + 1)
    assert [inner for name, inner in solves if name == "system"] == [[]] * (len(registry.blocks) + 1)
    assert all("_search" in inner for _, inner in solves[1:-1:2])  # the chain blocks weigh
    assert solves[-1] == ("block", [])  # the (unannotated) block, solved last
    assert report.unannotated.system == report.global_critical
    assert report.unannotated.block.total_delay == 0
    assert report.unannotated.block.path[0] == "in0"


def _peak_bytes(call) -> int:
    """The tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_build_report_peak_memory_at_scale():
    # 21,184 cells in 128 blocks, every block with a rule firing on ~10% of
    # 2,000 cycles. The delay graph is netlist memory, so it is built before
    # measuring. Python 3.11 peaked at 5.6 MB above the netlist, its graph and
    # the profile, so 7 MB leaves 25% headroom; keeping each block's free
    # states alive (O(V) per block) peaked at 8.1 MB.
    nl = _layered(5, stages=4, modules=8, ops=4, layers=13)
    labels = sorted(build_registry(nl).blocks)
    assert len(nl.cells) >= 20_000 and len(labels) >= 100
    rng = random.Random(5)
    rules = [f"r{b}" for b in range(len(labels))]
    profile = ActivityProfile(
        2_000,
        dict(zip(rules, labels)),
        {r: tuple(t for t in range(2_000) if rng.random() < 0.1) for r in rules},
        frozenset((r, f"st{b}") for b, r in enumerate(rules)),
        frozenset((label, f"st{b - 1}") for b, label in enumerate(labels) if b),
    )
    nl.delay_graph()  # the first call builds the graph
    assert _peak_bytes(lambda: build_report(nl, metrics=("area", "delay", "power"), profile=profile)) <= 7_000_000


def test_first_delay_graph_read_peak_memory_at_scale():
    # the first delay_graph() call builds the graph: on the 21,184 cells and
    # 48,675 nets above, Python 3.11 peaked at 5.9 MB, the graph included,
    # so 7.5 MB leaves 27% headroom; holding every cell's sorted (successor,
    # delay) pairs at once peaked at 11.1 MB
    nl = _layered(5, stages=4, modules=8, ops=4, layers=13)
    assert len(nl.cells) >= 20_000 and len(nl.net_src) >= 45_000
    assert _peak_bytes(nl.delay_graph) <= 7_500_000


def test_metamorphic_properties_at_scale():
    nl = _layered(11)
    assert validate(nl) == () and 5_000 <= len(nl.cells) <= 20_000
    registry = build_registry(nl)
    assert not registry.unannotated
    report = delay_report(nl, registry)
    critical = report.global_critical
    results = [critical]
    for bd in report.per_block.values():
        assert bd.block.total_delay <= bd.system.total_delay <= critical.total_delay
        results += [bd.system, bd.block]
    for r in results:
        assert r.logic_delay + r.network_delay == r.total_delay
    # every path crosses some block, so the heaviest block path is the critical one
    assert critical.total_delay == max(bd.system.total_delay for bd in report.per_block.values())
    # a parent's seeds are its children's, so its crossing paths are theirs too
    coarse = delay_report(nl, group_to_depth(registry, 2))
    for parent, bd in coarse.per_block.items():
        children = [c for label, c in report.per_block.items() if label.truncated(2) == parent]
        assert bd.system.total_delay == max(c.system.total_delay for c in children)


def _numbers(r):
    return r.total_delay, r.logic_delay, r.network_delay


def test_off_path_zero_delay_cells_change_no_number_at_scale():
    nl = _layered(11)
    # hang a zero-delay unannotated LUT and OUT off every 7th LUT that drives a
    # sink: that LUT's own net to the sink weighs >= 1, so each new path is
    # lighter than an old one through the same blocks, and a tie on block
    # weight can only add a zero-weight tail
    kinds = {c.id: c.kind for c in nl.cells}
    drivers = sorted({n.src for n in nl.nets if kinds[n.src].value.startswith("LUT")
                      and kinds[n.dst] in (CellKind.FF_D, CellKind.OUT)})[::7]
    cells, nets = list(nl.cells), list(nl.nets)
    for k, src in enumerate(drivers):
        cells += [Cell(f"a_off{k}", CellKind.LUT1, 0), Cell(f"a_out{k}", CellKind.OUT, 0)]
        nets += [Net(src, f"a_off{k}", 0), Net(f"a_off{k}", f"a_out{k}", 0)]
    grown = Netlist(cells, nets, nl.ff_pairs)
    assert validate(grown) == () and len(drivers) >= 10
    before = delay_report(nl, build_registry(nl))
    after = delay_report(grown, build_registry(grown))
    assert before.unannotated is None and after.unannotated is not None
    assert after.global_critical == before.global_critical
    assert after.critical_blocks == before.critical_blocks
    assert after.per_block.keys() == before.per_block.keys()
    for label, bd in before.per_block.items():
        assert after.per_block[label].system == bd.system, label
        # the block path may now end in a tied zero-weight tail; its numbers may not change
        assert _numbers(after.per_block[label].block) == _numbers(bd.block), label


def test_order_preserving_label_rename_only_renames_rows_at_scale():
    nl = _layered(11)
    registry = build_registry(nl)
    labels = sorted(registry.blocks)
    new_label = {str(old): f"r{rank:02d}.{old}" for rank, old in enumerate(labels)}

    def rename(cid):
        label, local = cid.split("__", 1)
        return f"{new_label[label]}__{local}"

    ids = {c.id: rename(c.id) for c in nl.cells}
    # labels and cell ids keep their order, so every tie breaks the same way
    assert sorted(ids.values()) == [ids[cid] for cid in sorted(ids)]
    renamed = Netlist(
        [Cell(ids[c.id], c.kind, c.logic_delay) for c in nl.cells],
        [Net(ids[n.src], ids[n.dst], n.net_delay) for n in nl.nets],
        [(ids[d], ids[q]) for d, q in nl.ff_pairs],
    )
    new_registry = build_registry(renamed)
    relabel = {old: BlockLabel.parse(new_label[str(old)]) for old in labels}
    assert sorted(new_registry.blocks) == [relabel[old] for old in labels]

    def moved(r):
        return PathResult(r.total_delay, r.logic_delay, r.network_delay, tuple(ids[c] for c in r.path))

    for include_nets in (True, False):
        before = delay_report(nl, registry, include_block_nets=include_nets)
        after = delay_report(renamed, new_registry, include_block_nets=include_nets)
        assert after.global_critical == moved(before.global_critical)
        assert after.critical_blocks == {relabel[old] for old in before.critical_blocks}
        assert after.per_block == {
            relabel[old]: BlockDelay(moved(bd.system), moved(bd.block))
            for old, bd in before.per_block.items()
        }
    weights = resolve_device("virtex7").weights
    area_before, area_after = area_report(nl, registry, weights), area_report(renamed, new_registry, weights)
    assert area_after.totals == area_before.totals
    assert area_after.per_block == {
        relabel[old]: BlockArea(ba.counts, ba.weighted_area, tuple(ids[c] for c in ba.unpaired_ff))
        for old, ba in area_before.per_block.items()
    }
