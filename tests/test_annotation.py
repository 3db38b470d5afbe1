"""Block-label extraction from cell names and label grouping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockscope.annotation import (
    AnnotationError,
    BlockLabel,
    build_registry,
    extract_block_label,
    group_to_depth,
)
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.model import Cell, CellKind, Netlist


def test_prefix_before_first_double_underscore_is_the_label():
    assert str(extract_block_label("subtract__g1")) == "subtract"
    assert str(extract_block_label("top.alu.add__x7")) == "top.alu.add"
    # only the first separator counts; the local name may contain more
    assert str(extract_block_label("a__b__c")) == "a"


def test_unannotated_names_give_none():
    assert extract_block_label("n42") is None
    assert extract_block_label("plain_name") is None  # single underscores are fine


def test_malformed_prefixes_rejected():
    for bad in ("__x", "a.__x", ".a__x", "a.__", "a..b__x", "a-b__x"):
        with pytest.raises(AnnotationError):
            extract_block_label(bad)


def test_label_parse_and_str_round_trip():
    label = BlockLabel.parse("top.alu.add")
    assert label.segments == ("top", "alu", "add")
    assert str(label) == "top.alu.add"
    assert len(label.segments) == 3
    assert str(label.truncated(2)) == "top.alu"
    assert label.truncated(9) == label


def test_label_parse_rejects_bad_segments():
    for bad in ("", ".", "a..b", "a.", "a__b", "a b", "a.b!"):
        with pytest.raises(AnnotationError):
            BlockLabel.parse(bad)


def test_labels_order_by_segments():
    labels = [BlockLabel.parse(s) for s in ("b", "a.c", "a", "a.b")]
    assert [str(x) for x in sorted(labels)] == ["a", "a.b", "a.c", "b"]


def test_registry_partitions_every_cell():
    nl, _ = gen_gcd()
    reg = build_registry(nl)
    assert sorted(map(str, reg.blocks)) == ["subtract", "swap", "x", "y"]
    assert reg.unannotated == frozenset()
    assert reg.unannotated_fraction == 0.0
    assert reg.unannotated.union(*reg.blocks.values()) == frozenset(nl.ids)


def test_registry_counts_unannotated():
    nl = Netlist(
        [
            Cell("u__a", CellKind.IN),
            Cell("n1", CellKind.LUT1, 1),
            Cell("n2", CellKind.OUT),
        ]
    )
    reg = build_registry(nl)
    assert reg.unannotated == frozenset({"n1", "n2"})
    assert reg.unannotated_fraction == pytest.approx(2 / 3)


def test_registry_matches_a_per_cell_label_parse():
    nested = Netlist([Cell(cid, CellKind.IN) for cid in ("t.b__x", "t__y", "t.a__z", "t.b__w", "n")])
    for nl in (gen_gcd()[0], gen_fig6(), gen_random(3, 400), nested):
        want: dict = {}
        for cid in nl.ids:
            label = extract_block_label(cid)
            if label is not None:
                want.setdefault(label, set()).add(cid)
        reg = build_registry(nl)
        assert list(reg.blocks) == list(want)  # first-seen order over sorted ids
        assert reg.blocks == want
    # a malformed prefix is reported for its smallest cell id
    bad = Netlist([Cell(cid, CellKind.IN) for cid in ("b.__y", "ok__v", "a.__z", "a.__w")])
    with pytest.raises(AnnotationError) as err:
        build_registry(bad)
    assert err.value.cell_id == "a.__w"


def test_group_to_depth_unions_sibling_blocks():
    nl = Netlist(
        [
            Cell("top.a__x", CellKind.IN),
            Cell("top.b__y", CellKind.LUT1, 1),
            Cell("other__z", CellKind.OUT),
            Cell("n0", CellKind.OUT),
        ]
    )
    reg = build_registry(nl)
    grouped = group_to_depth(reg, 1)
    assert sorted(map(str, grouped.blocks)) == ["other", "top"]
    assert grouped.blocks[BlockLabel.parse("top")] == frozenset({"top.a__x", "top.b__y"})
    assert grouped.unannotated == reg.unannotated
    # idempotent, and a no-op at depths past the deepest label
    assert group_to_depth(grouped, 1).blocks == grouped.blocks
    assert group_to_depth(reg, 5).blocks == reg.blocks


def test_group_depth_must_be_positive():
    reg = build_registry(gen_gcd()[0])
    for depth in (0, -1, True, 1.5):
        with pytest.raises(AnnotationError, match="^group depth must be at least 1$"):
            group_to_depth(reg, depth)
        with pytest.raises(AnnotationError, match="^group depth must be at least 1$"):
            BlockLabel.parse("a.b").truncated(depth)


_SEGMENT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    min_size=1,
    max_size=6,
).filter(lambda s: "__" not in s and not s.startswith("_") and not s.endswith("_"))


@given(st.lists(_SEGMENT, min_size=1, max_size=4))
def test_any_well_formed_label_survives_round_trip(segments):
    text = ".".join(segments)
    label = BlockLabel.parse(text)
    assert str(label) == text
    assert extract_block_label(f"{text}__local") == label


@given(st.integers(0, 2_000), st.integers(2, 20))
def test_random_netlist_registry_is_a_partition(seed, n):
    nl = gen_random(seed, n)
    reg = build_registry(nl)
    seen = set(reg.unannotated)
    total = len(reg.unannotated)
    for cells in reg.blocks.values():
        assert cells, "registry must not contain empty blocks"
        assert not seen & cells
        seen |= cells
        total += len(cells)
    assert total == len(nl.cells)
