"""Netlist construction, validation rules, and deterministic topological order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscope import model
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.model import (
    Cell,
    CellKind,
    Net,
    Netlist,
    SINK_KINDS,
    SOURCE_KINDS,
    ValidationError,
    Violation,
    validate,
)
from oracles import topological_order


def rules(netlist):
    return {v.rule for v in validate(netlist)}


def test_kind_partitions_are_disjoint():
    assert not SOURCE_KINDS & SINK_KINDS
    assert CellKind.FF_Q in SOURCE_KINDS and CellKind.FF_D in SINK_KINDS


def test_valid_minimal_chain():
    nl = Netlist(
        [Cell("a", CellKind.IN), Cell("b", CellKind.LUT1, 3), Cell("c", CellKind.OUT)],
        [Net("a", "b", 1), Net("b", "c", 2)],
    )
    assert validate(nl) == ()
    assert topological_order(nl) == ["a", "b", "c"]


def test_duplicate_cell_id_reported():
    nl = Netlist([Cell("a", CellKind.IN), Cell("a", CellKind.OUT)])
    assert "duplicate-cell-id" in rules(nl)


def test_negative_delay_reported():
    nl = Netlist([Cell("a", CellKind.LUT1, -1)])
    assert "negative-delay" in rules(nl)
    nl = Netlist([Cell("a", CellKind.IN), Cell("b", CellKind.OUT)], [Net("a", "b", -1)])
    assert validate(nl) == (
        Violation("negative-delay", "a->b", "net a->b net_delay must be a non-negative integer"),
    )


@pytest.mark.parametrize("bad", [True, False])
def test_bool_delay_is_a_violation(bad):
    # a bool is an int to isinstance, but the wire format has no spelling for it
    for kind in (CellKind.LUT1, CellKind.IN):
        assert validate(Netlist([Cell("a", kind, bad)])) == (
            Violation("negative-delay", "a", "cell a logic_delay must be a non-negative integer"),
        )
    nl = Netlist([Cell("a", CellKind.IN), Cell("b", CellKind.LUT1, bad), Cell("c", CellKind.OUT)],
                 [Net("a", "b", bad), Net("b", "c", 0)])
    assert validate(nl) == (
        Violation("negative-delay", "b", "cell b logic_delay must be a non-negative integer"),
        Violation("negative-delay", "a->b", "net a->b net_delay must be a non-negative integer"),
    )


def test_source_kind_must_have_zero_delay():
    nl = Netlist([Cell("q", CellKind.FF_Q, 7)])
    assert "source-kind-delay" in rules(nl)
    assert validate(Netlist([Cell("q", CellKind.FF_Q, 0)])) == ()


def test_dangling_net_reported():
    nl = Netlist([Cell("a", CellKind.IN)], [Net("a", "ghost", 1)])
    assert "dangling-net-dst" in rules(nl)
    nl = Netlist([Cell("a", CellKind.OUT)], [Net("ghost", "a", 1)])
    assert "dangling-net-src" in rules(nl)


def test_edges_respect_source_and_sink_roles():
    cells = [Cell("i", CellKind.IN), Cell("q", CellKind.FF_Q), Cell("d", CellKind.FF_D)]
    assert "edge-into-source-kind" in rules(Netlist(cells, [Net("i", "q", 1)]))
    assert "edge-from-sink-kind" in rules(Netlist(cells, [Net("d", "q", 1)]))


def test_ffpair_rules():
    cells = [Cell("d", CellKind.FF_D), Cell("q", CellKind.FF_Q), Cell("x", CellKind.LUT1, 1)]
    assert validate(Netlist(cells, [], [("d", "q")])) == ()
    assert "ffpair-unknown-cell" in rules(Netlist(cells, [], [("d", "nope")]))
    assert "ffpair-kind-mismatch" in rules(Netlist(cells, [], [("q", "d")]))
    assert "ffpair-kind-mismatch" in rules(Netlist(cells, [], [("d", "x")]))
    assert "ffpair-duplicate" in rules(
        Netlist(
            cells + [Cell("q2", CellKind.FF_Q)],
            [],
            [("d", "q"), ("d", "q2")],
        )
    )


def test_cycle_detected_and_rotated_to_smallest_id():
    cells = [
        Cell("i", CellKind.IN),
        Cell("m1", CellKind.LUT2, 1),
        Cell("m2", CellKind.LUT1, 1),
        Cell("m3", CellKind.LUT1, 1),
        Cell("o", CellKind.OUT),
    ]
    nets = [
        Net("i", "m1", 1),
        Net("m1", "m2", 1),
        Net("m2", "m3", 1),
        Net("m3", "m1", 1),
        Net("m2", "o", 1),
    ]
    nl = Netlist(cells, nets)
    (v,) = [x for x in validate(nl) if x.rule == "combinational-cycle"]
    assert v.cells == ("m1", "m2", "m3")
    with pytest.raises(ValidationError) as err:
        topological_order(nl)
    assert err.value.violations[0].cells == ("m1", "m2", "m3")
    # two cycles through m1: the walk back from m1 takes its smallest
    # predecessor, whatever the net order
    two = [Net("m1", "m2", 1), Net("m2", "m1", 1), Net("m1", "m3", 1), Net("m3", "m1", 1)]
    for nets in (two, two[::-1]):
        assert Netlist(cells[1:4], nets).cycle.cells == ("m1", "m2")


def test_construction_indexes_broken_netlists_without_raising():
    # a duplicate id, parallel nets with different delays, a cycle a <-> b and
    # nets to and from an unknown cell; violations as reported before the
    # netlist kept one integer index
    cells = [
        Cell("i", CellKind.IN),
        Cell("b", CellKind.LUT1, 2),
        Cell("a", CellKind.LUT1, 1),
        Cell("a", CellKind.LUT2, 4),
        Cell("o", CellKind.OUT),
    ]
    nets = [
        Net("i", "a", 1),
        Net("a", "b", 3),
        Net("b", "a", 1),
        Net("a", "b", 5),
        Net("b", "o", 1),
        Net("b", "ghost", 2),
        Net("ghost", "o", 0),
    ]
    unique = cells[:3] + cells[4:]
    duplicate = Violation("duplicate-cell-id", "a", "duplicate cell id a")
    dangling = (
        Violation("dangling-net-dst", "b->ghost", "net b->ghost references unknown cell ghost"),
        Violation("dangling-net-src", "ghost->o", "net ghost->o references unknown cell ghost"),
    )
    cycle = Violation("combinational-cycle", "a,b", "combinational cycle through a, b", ("a", "b"))
    cases = [
        (cells, nets, (duplicate, *dangling)),
        (cells, nets[:5], (duplicate,)),
        (unique, nets, dangling),
        (unique, nets[:5], (cycle,)),
    ]
    for case_cells, case_nets, want in cases:
        nl = Netlist(case_cells, case_nets)
        assert validate(nl) == want
    # cell, net and ffpair rules broken together: cells first, then nets and
    # ffpairs in their order, as reported before construction checked the graph
    broken = Netlist(
        [Cell("i", CellKind.IN), Cell("q", CellKind.FF_Q, 3), Cell("d", CellKind.FF_D),
         Cell("x", CellKind.LUT1, -2), Cell("o", CellKind.OUT)],
        [Net("i", "x", 1), Net("x", "q", 2), Net("d", "o", 1), Net("x", "o", -1), Net("x", "d", 0)],
        [("d", "q"), ("d", "nope"), ("x", "q")],
    )
    assert validate(broken) == (
        Violation("source-kind-delay", "q", "cell q has kind FF_Q and must have logic_delay 0"),
        Violation("negative-delay", "x", "cell x logic_delay must be a non-negative integer"),
        Violation("edge-into-source-kind", "x->q", "net x->q drives q of source kind FF_Q"),
        Violation("edge-from-sink-kind", "d->o", "net d->o leaves d of sink kind FF_D"),
        Violation("negative-delay", "x->o", "net x->o net_delay must be a non-negative integer"),
        Violation("ffpair-unknown-cell", "d/nope", "ffpair d/nope references unknown cell nope"),
        Violation("ffpair-kind-mismatch", "x/q", "ffpair x/q must pair an FF_D cell with an FF_Q cell"),
        Violation("ffpair-duplicate", "q", "cell q appears in more than one ffpair"),
    )
    assert broken.graph_violations == validate(broken)[2:]
    nl = Netlist(cells, nets)
    assert nl.ids == ["a", "b", "i", "o"]
    assert nl.cell("a") == cells[2]  # the first cell with an id wins
    assert list(nl.logic) == [1, 2, 0, 0]
    with pytest.raises(ValidationError) as err:  # a cyclic netlist has no delay graph
        nl.delay_graph()
    assert err.value.violations == (cycle,)
    # without b -> a the graph is acyclic: the rows construction indexed, with the
    # dangling nets left out, become the delay graph
    graph = Netlist(cells, nets[:2] + nets[3:]).delay_graph()
    assert graph.succ == [(1,), (3,), (0,), ()]
    assert list(graph.succ_first) == [0, 1, 2, 3, 3]
    assert graph.succ_delay == [5, 1, 1]  # parallel nets a -> b collapse to their maximum
    assert graph.pred == [(2,), (0,), (), (1,)]
    assert list(graph.order) == [2, 0, 1, 3] and list(graph.rank) == [1, 2, 0, 3]
    with pytest.raises(ValidationError) as err:
        topological_order(Netlist(unique, nets[:5]))
    assert err.value.violations == (cycle,)


def test_cell_of_a_duplicated_id_has_the_first_cells_fields():
    cells = [Cell("b", CellKind.LUT2, 4), Cell("a", CellKind.LUT1, 1), Cell("a", CellKind.LUT3, 7),
             Cell("b", CellKind.OUT), Cell("a", CellKind.LUT1, 9)]
    nl = Netlist(cells)
    assert nl.cell("a") == cells[1] and nl.cell("b") == cells[0]
    scaled = nl.with_logic_delays({kind: 3 for kind in CellKind})
    assert scaled.cell("a") == Cell("a", CellKind.LUT1, 3)
    assert nl.cell("a") == Cell("a", CellKind.LUT1, 1)  # the original keeps its delays


def test_one_shot_iterables_build_the_same_netlist():
    cells = [Cell("i", CellKind.IN), Cell("x", CellKind.LUT2, 4), Cell("d", CellKind.FF_D),
             Cell("q", CellKind.FF_Q), Cell("o", CellKind.OUT)]
    nets = [Net("i", "x", 1), Net("q", "x", 2), Net("x", "d", 3), Net("x", "o", 0)]
    pairs = [("d", "q")]
    want = Netlist(tuple(cells), tuple(nets), tuple(pairs))
    got = Netlist(iter(cells), (n for n in nets), iter(pairs))
    assert got == want
    for name in ("cell_id", "cell_kind", "cell_logic", "net_src", "net_dst", "net_delay", "ff_pairs",
                 "cells", "nets", "partner"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.delay_graph() == want.delay_graph()
    assert got.cells == tuple(cells) and got.nets == tuple(nets)


def test_cycle_check_skipped_while_structure_is_broken():
    # dangling edge plus a cycle: only the structural problems are reported
    cells = [Cell("a", CellKind.LUT1, 1), Cell("b", CellKind.LUT1, 1)]
    nets = [Net("a", "b", 1), Net("b", "a", 1), Net("a", "ghost", 1)]
    found = rules(Netlist(cells, nets))
    assert "dangling-net-dst" in found
    assert "combinational-cycle" not in found


@pytest.mark.parametrize("design", ["fig6", "gcd1", "gcd2", "gcd3"])
def test_topological_order_holds_every_cell_once_and_puts_every_net_forward(design):
    nl = gen_fig6() if design == "fig6" else gen_gcd(int(design[3:]))[0]
    order = topological_order(nl)
    assert sorted(order) == nl.ids
    position = {cid: i for i, cid in enumerate(order)}
    for net in nl.nets:
        assert position[net.src] < position[net.dst]


def test_topological_order_returns_a_fresh_copy_of_one_order():
    nl = gen_random(5, 300)
    validated = gen_random(5, 300)
    assert validate(validated) == ()  # validation reads the order construction found
    first = topological_order(nl)
    assert first == topological_order(validated)
    first.reverse()
    first.append("ghost")
    again = topological_order(nl)
    assert again == topological_order(validated)
    assert again is not topological_order(nl)
    position = {cid: i for i, cid in enumerate(again)}
    assert all(position[n.src] < position[n.dst] for n in nl.nets)


def test_cyclic_netlist_raises_on_every_call_without_validate():
    def build():
        cells = [Cell("i", CellKind.IN), Cell("a", CellKind.LUT1, 1), Cell("b", CellKind.LUT1, 1)]
        return Netlist(cells, [Net("i", "a", 1), Net("a", "b", 1), Net("b", "a", 1)])

    (want,) = [v for v in validate(build()) if v.rule == "combinational-cycle"]
    nl = build()
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            topological_order(nl)
        assert err.value.violations == (want,)
    assert validate(nl)
    with pytest.raises(ValidationError):
        topological_order(nl)


def test_netlist_equality_ignores_declaration_order():
    a = Netlist(
        [Cell("a", CellKind.IN), Cell("b", CellKind.OUT)],
        [Net("a", "b", 2), Net("a", "b", 1)],
    )
    b = Netlist(
        [Cell("b", CellKind.OUT), Cell("a", CellKind.IN)],
        [Net("a", "b", 1), Net("a", "b", 2)],
    )
    assert a == b
    c = Netlist([Cell("a", CellKind.IN), Cell("b", CellKind.OUT)], [Net("a", "b", 1)])
    assert a != c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 24))
def test_random_netlists_validate_and_sort(seed, n):
    nl = gen_random(seed, n)
    assert validate(nl) == ()
    order = topological_order(nl)
    assert sorted(order) == sorted(nl.ids)
    position = {cid: i for i, cid in enumerate(order)}
    for net in nl.nets:
        assert position[net.src] < position[net.dst]


@pytest.mark.parametrize("bad", [None, "3", 2.5, -1, True, False])
def test_bad_net_delay_is_a_violation_with_its_edge_kept(bad):
    cells = [Cell("a", CellKind.IN), Cell("b", CellKind.OUT)]
    want = (Violation("negative-delay", "a->b", "net a->b net_delay must be a non-negative integer"),)
    # alone, and beside a valid parallel net on either side: the edge is indexed
    # once, and a bad delay adds nothing to the maximum of its parallel nets
    for nets, delay in (([Net("a", "b", bad)], 0),
                        ([Net("a", "b", 4), Net("a", "b", bad)], 4),
                        ([Net("a", "b", bad), Net("a", "b", 4)], 4)):
        nl = Netlist(cells, nets)
        assert validate(nl) == want
        graph = nl.delay_graph()
        assert (graph.succ, graph.succ_delay, graph.pred) == ([(1,), ()], [delay], [(), (0,)])
    # the cycle check still runs over an edge with a bad delay
    loop = Netlist(
        [Cell("i", CellKind.IN), Cell("x", CellKind.LUT1, 1), Cell("y", CellKind.LUT1, 1)],
        [Net("i", "x", 1), Net("x", "y", bad), Net("y", "x", 2)],
    )
    cycle = Violation("combinational-cycle", "x,y", "combinational cycle through x, y", ("x", "y"))
    assert validate(loop) == (
        Violation("negative-delay", "x->y", "net x->y net_delay must be a non-negative integer"), cycle,
    )
    with pytest.raises(ValidationError) as err:
        topological_order(loop)
    assert err.value.violations == (cycle,)


def test_order_is_built_on_first_use_and_shared_by_copies(monkeypatch):
    """Construction's pass finds the order; the delay graph around it is built once,
    by whichever copy reads the graph first, and then shared."""
    builds = []
    real = model._delay_graph
    monkeypatch.setattr(model, "_delay_graph", lambda *args: builds.append(1) or real(*args))
    want = Netlist(gen_random(6, 300).cells, gen_random(6, 300).nets).delay_graph()
    delays = {kind: 0 if kind in SOURCE_KINDS else 3 for kind in CellKind}
    for side in ("copy", "source"):
        builds.clear()
        source = gen_random(6, 300)
        copy = source.with_logic_delays(delays)
        assert builds == []  # neither construction nor the copy builds it
        first, second = (copy, source) if side == "copy" else (source, copy)
        graph = first.delay_graph()
        assert len(builds) == 1
        assert first.delay_graph() is graph and second.delay_graph() is graph
        assert graph.order == want.order and graph == want
        assert len(builds) == 1
    # a cyclic netlist and its copies raise the cycle from the delay graph; none is built
    builds.clear()
    loop = Netlist([Cell("x", CellKind.LUT1, 1), Cell("y", CellKind.LUT1, 1)], [Net("x", "y"), Net("y", "x")])
    cycle = Violation("combinational-cycle", "x,y", "combinational cycle through x, y", ("x", "y"))
    for nl in (loop, loop.with_logic_delays(delays), loop):
        with pytest.raises(ValidationError) as err:
            nl.delay_graph()
        assert err.value.violations == (cycle,)
    assert builds == []
