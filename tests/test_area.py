"""Resource counting, FF pairing, weighted area, and count conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscope.annotation import BlockLabel, BlockRegistry, build_registry, group_to_depth
from blockscope.area import (
    AreaError,
    RESOURCE_KINDS,
    area_report,
    resource_counts,
    weighted_area,
)
from blockscope.delay import delay_report
from blockscope.devices import resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.model import BlockscopeError, Cell, CellKind, Net, Netlist

from oracles import oracle_resource_counts


def nonzero(counts):
    return {k: v for k, v in counts.items() if v}


def test_gcd_block_counts_and_weighted_area():
    nl, _ = gen_gcd()
    report = area_report(nl, build_registry(nl), resolve_device("virtex7").weights)
    got = {str(label): nonzero(ba.counts) for label, ba in report.per_block.items()}
    assert got == {
        "subtract": {"LUT3": 1, "LUT4": 4},
        "swap": {"LUT3": 2, "LUT4": 1},
        "x": {"FF": 2},
        "y": {"FF": 2},
    }
    areas = {str(label): ba.weighted_area for label, ba in report.per_block.items()}
    assert areas == {"subtract": 5.0, "swap": 3.0, "x": 2.0, "y": 2.0}
    assert nonzero(report.totals.counts) == {"LUT3": 3, "LUT4": 5, "FF": 4}
    assert report.totals.weighted_area == 12.0
    assert report.totals.unpaired_ff == ()
    assert nonzero(report.unannotated.counts) == {}


def test_counts_identical_across_device_profiles():
    reports = []
    for dev in ("spartan6", "virtex5", "virtex7"):
        nl = resolve_device(dev).apply_delays(gen_gcd(3)[0])
        reports.append(area_report(nl, build_registry(nl), resolve_device("virtex7").weights))
    first = reports[0]
    for other in reports[1:]:
        assert {str(k): v.counts for k, v in other.per_block.items()} == {
            str(k): v.counts for k, v in first.per_block.items()
        }


def test_fig6_counts_all_ffs_unpaired():
    nl = gen_fig6()
    report = area_report(nl, build_registry(nl), resolve_device("virtex7").weights)
    assert nonzero(report.per_block[BlockLabel.parse("core")].counts) == {"LUT1": 4}
    # no ffpair directives: each port is its own FF resource, and flagged
    assert report.unannotated.counts["FF"] == 5
    assert report.unannotated.unpaired_ff == (
        "ff_d_a",
        "ff_d_b1",
        "ff_d_b2",
        "ff_q_a",
        "ff_q_b",
    )


def test_pair_split_across_blocks_counts_one_ff_each():
    nl = Netlist(
        [Cell("left__d", CellKind.FF_D), Cell("right__q", CellKind.FF_Q)],
        [],
        [("left__d", "right__q")],
    )
    report = area_report(nl, build_registry(nl), resolve_device("virtex7").weights)
    left = report.per_block[BlockLabel.parse("left")]
    right = report.per_block[BlockLabel.parse("right")]
    assert left.counts["FF"] == 1 and right.counts["FF"] == 1
    assert left.unpaired_ff == ("left__d",)
    assert right.unpaired_ff == ("right__q",)
    assert report.totals.counts["FF"] == 2


def test_co_located_pair_counts_once():
    cells = [Cell("r__d", CellKind.FF_D), Cell("r__q", CellKind.FF_Q)]
    counts, unpaired = resource_counts(["r__d", "r__q"], Netlist(cells, [], [("r__d", "r__q")]))
    assert counts["FF"] == 1 and unpaired == ()
    counts, unpaired = resource_counts(["r__d", "r__q"], Netlist(cells))
    assert counts["FF"] == 2 and unpaired == ("r__d", "r__q")


def test_custom_weights_and_validation():
    weights = {**resolve_device("virtex7").weights, "LUT4": 2.5, "FF": 0.0}
    nl, _ = gen_gcd()
    registry = build_registry(nl)
    report = area_report(nl, registry, weights)
    assert report.per_block[BlockLabel.parse("subtract")].weighted_area == pytest.approx(
        1 * 1.0 + 4 * 2.5
    )
    assert report.per_block[BlockLabel.parse("x")].weighted_area == 0.0
    with pytest.raises(AreaError, match="^unknown resource kind 'LUT9' in weight table$"):
        area_report(nl, registry, {"LUT9": 1.0})
    with pytest.raises(AreaError, match="^weight for FF must be non-negative$"):
        area_report(nl, registry, {"FF": -0.5})


def test_a_kind_deleted_after_construction_is_named():
    """The weight table is a plain dict, so area_report checks it when it weighs."""
    nl, _ = gen_gcd()
    weights = resolve_device("virtex7").weights
    del weights["FF"]
    with pytest.raises(AreaError, match="^weight table lacks resource kind FF$"):
        area_report(nl, build_registry(nl), weights)


def test_registry_netlist_mismatch_is_an_error():
    nl, _ = gen_gcd()
    other = Netlist([Cell("x__q0", CellKind.FF_Q)])
    cells = frozenset({"core__a1", "ghost_c", "ghost_a", "ghost_b"})
    ghost = BlockRegistry({BlockLabel.parse("core"): cells}, frozenset())
    cases = ((other, build_registry(nl), "subtract__diff0"), (gen_fig6(), ghost, "ghost_a"))
    for netlist, registry, name in cases:
        with pytest.raises(AreaError, match=f"^registry references unknown cell {name}$"):
            # the smallest unknown id, whatever the hash order
            area_report(netlist, registry, resolve_device("virtex7").weights)
        with pytest.raises(BlockscopeError, match=f"^registry references unknown cell {name}$"):
            delay_report(netlist, registry)


def test_grouping_aggregates_counts_exactly():
    cells = [
        Cell("top.a__d0", CellKind.FF_D),
        Cell("top.a__q0", CellKind.FF_Q),
        Cell("top.b__l", CellKind.LUT5, 2),
        Cell("solo__m", CellKind.LUT2, 1),
        Cell("n0", CellKind.CLK),
    ]
    nl = Netlist(cells, [], [("top.a__d0", "top.a__q0")])
    registry = build_registry(nl)
    fine = area_report(nl, registry, resolve_device("virtex7").weights)
    coarse = area_report(nl, group_to_depth(registry, 1), resolve_device("virtex7").weights)
    top = coarse.per_block[BlockLabel.parse("top")]
    assert top.counts == {
        k: fine.per_block[BlockLabel.parse("top.a")].counts[k]
        + fine.per_block[BlockLabel.parse("top.b")].counts[k]
        for k in RESOURCE_KINDS
    }
    assert coarse.totals.counts == fine.totals.counts
    assert top.weighted_area == pytest.approx(2.0)  # one FF pair + one LUT5


def test_weighted_area_helper_matches_report():
    nl, _ = gen_gcd()
    registry = build_registry(nl)
    report = area_report(nl, registry, resolve_device("virtex7").weights)
    for label, cells in registry.blocks.items():
        counts, _ = resource_counts(cells, nl)
        assert weighted_area(counts, resolve_device("virtex7").weights) == report.per_block[label].weighted_area


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 24))
def test_totals_conserve_cells_on_random_netlists(seed, n):
    nl = gen_random(seed, n)
    report = area_report(nl, build_registry(nl), resolve_device("virtex7").weights)
    assert nonzero(report.totals.counts) == nonzero(oracle_resource_counts(nl))
    # every cell is counted exactly once; each co-located pair merges two cells
    assert sum(report.totals.counts.values()) == len(nl.cells) - len(nl.ff_pairs)
