"""Activity replay, switching factors, and the average-power score."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockscope.annotation import BlockLabel, build_registry, group_to_depth
from blockscope.area import RESOURCE_KINDS, area_report, resource_counts
from blockscope.fixtures import gcd_profile, gen_gcd, gen_random, gen_random_profile
from blockscope.model import Cell, CellKind, Netlist
from blockscope.oracles import oracle_events, oracle_replay
from blockscope.power import (
    ActivityProfile,
    PowerError,
    PowerModel,
    activity_events,
    active_cycles,
    average_power_uw,
    power_score,
    switching_factor,
)

SUB = BlockLabel.parse("subtract")
SWAP = BlockLabel.parse("swap")


def test_average_power_formula():
    # 2 uW static, 10 pJ per active cycle, 30% duty at 100 MHz
    assert format(average_power_uw(2.0, 10.0, 0.3, 1e8), ".3f") == "302.000"
    assert average_power_uw(5.0, 0.0, 1.0, 1e8) == pytest.approx(5.0)
    assert average_power_uw(0.0, 1.0, 0.0, 1e8) == pytest.approx(0.0)


def test_gcd_active_cycles_and_alpha():
    profile = gcd_profile()
    assert active_cycles(SUB, profile) == frozenset({2, 3, 4, 5, 6})
    assert active_cycles(SWAP, profile) == frozenset({1, 2, 3, 4, 5, 6})
    assert switching_factor(SUB, profile) == pytest.approx(0.5)
    assert switching_factor(SWAP, profile) == pytest.approx(0.6)
    # events keep multiplicity: overlapping triggers exceed distinct cycles
    assert activity_events(SUB, profile) == 10
    assert activity_events(SWAP, profile) == 9


def test_firing_in_last_cycle_propagates_nothing():
    b = BlockLabel.parse("b")
    profile = ActivityProfile(
        cycles=3,
        rule_block={"r": b, "w": BlockLabel.parse("w")},
        firings={"r": (), "w": (2,)},
        writes=frozenset({("w", "s")}),
        reads=frozenset({(b, "s")}),
    )
    assert active_cycles(b, profile) == frozenset()
    profile2 = ActivityProfile(
        cycles=4,
        rule_block=profile.rule_block,
        firings={"r": (), "w": (2,)},
        writes=profile.writes,
        reads=profile.reads,
    )
    assert active_cycles(b, profile2) == frozenset({3})


def test_self_write_counts_as_next_cycle_activity():
    b = BlockLabel.parse("b")
    profile = ActivityProfile(
        cycles=5,
        rule_block={"r": b},
        firings={"r": (0,)},
        writes=frozenset({("r", "s")}),
        reads=frozenset({(b, "s")}),
    )
    assert active_cycles(b, profile) == frozenset({0, 1})
    assert activity_events(b, profile) == 2


def test_gcd_power_score_and_ranking():
    nl, profile = gen_gcd()
    score = power_score(nl, build_registry(nl), profile=profile)
    sub = score.per_block[SUB]
    assert sub.static_uw == pytest.approx(1.9)
    assert sub.dynamic_pj == pytest.approx(9.5)
    assert sub.average_uw == pytest.approx(476.9)
    swap = score.per_block[SWAP]
    assert swap.static_uw == pytest.approx(1.0)
    assert swap.average_uw == pytest.approx(301.0)
    for reg in ("x", "y"):
        bp = score.per_block[BlockLabel.parse(reg)]
        assert not bp.profiled
        assert bp.alpha == 0.0
        assert bp.average_uw == pytest.approx(0.4)  # static only
    assert [str(b) for b in score.ranking] == ["subtract", "swap", "x", "y"]
    assert score.frequency_hz == pytest.approx(1e8)


def test_without_profile_ranking_is_static_order():
    nl, _ = gen_gcd()
    score = power_score(nl, build_registry(nl))
    assert all(bp.alpha == 0.0 and not bp.profiled for bp in score.per_block.values())
    statics = [score.per_block[b].static_uw for b in score.ranking]
    assert statics == sorted(statics, reverse=True)
    # equal static power (x and y) falls back to label order
    assert [str(b) for b in score.ranking[-2:]] == ["x", "y"]


def test_power_model_validation():
    with pytest.raises(PowerError):
        PowerModel({"LUT1": -0.1}, {}, 1e8)
    with pytest.raises(PowerError):
        PowerModel({}, {"bogus": 1.0}, 1e8)
    with pytest.raises(PowerError):
        PowerModel({}, {}, 0.0)


def test_profile_truncation_merges_reads():
    deep = BlockLabel.parse("top.alu")
    profile = ActivityProfile(
        cycles=2,
        rule_block={"r": deep},
        firings={"r": (0,)},
        writes=frozenset({("r", "s")}),
        reads=frozenset({(deep, "s")}),
    )
    cut = profile.truncated(1)
    top = BlockLabel.parse("top")
    assert cut.rule_block == {"r": top}
    assert cut.reads == frozenset({(top, "s")})
    assert cut.blocks() == frozenset({top})


def _double_writes(profile: ActivityProfile) -> bool:
    """Some firing rule writes two states that one block reads."""
    reads: dict[BlockLabel, set[str]] = {}
    for block, state in profile.reads:
        reads.setdefault(block, set()).add(state)
    for rule, fired in profile.firings.items():
        written = {s for r, s in profile.writes if r == rule}
        if fired and any(len(written & states) >= 2 for states in reads.values()):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 20_000))
@example(3)  # seeds 3 and 20 have a rule writing two states one block reads
@example(20)
def test_active_cycles_match_literal_replay(seed):
    full = gen_random_profile(seed)
    if seed in (3, 20):
        assert _double_writes(full)
    for profile in (full, full.truncated(1)):
        replay = oracle_replay(profile)
        events = oracle_events(profile)
        blocks = sorted(profile.blocks(), key=str)
        # one cell per profile block, so power_score scores every one of them
        nl = Netlist([Cell(f"{block}__c", CellKind.LUT1, 1) for block in blocks])
        score = power_score(nl, build_registry(nl), profile=profile)
        for block in blocks:
            active = active_cycles(block, profile)
            assert active == replay[block]
            assert all(0 <= t < profile.cycles for t in active)
            alpha = switching_factor(block, profile)
            assert 0.0 <= alpha <= 1.0
            assert activity_events(block, profile) == events[block] >= len(active)
            bp = score.per_block[block]
            assert (bp.active_cycles, bp.events) == (len(replay[block]), events[block])
            assert bp.alpha == alpha


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 20_000), st.integers(0, 1_000_000))
def test_adding_a_firing_never_reduces_activity(seed, pick):
    profile = gen_random_profile(seed)
    rid = sorted(profile.rule_block)[pick % len(profile.rule_block)]
    slot = pick % profile.cycles
    if slot in profile.firings[rid]:
        return
    firings = dict(profile.firings)
    firings[rid] = tuple(sorted(firings[rid] + (slot,)))
    louder = ActivityProfile(
        profile.cycles, profile.rule_block, firings, profile.writes, profile.reads
    )
    for block in profile.blocks():
        before = active_cycles(block, profile)
        after = active_cycles(block, louder)
        assert before <= after
        assert switching_factor(block, louder) >= switching_factor(block, profile)
        assert activity_events(block, louder) >= activity_events(block, profile)


def test_unannotated_cells_score_but_never_rank():
    nl = Netlist(
        [
            Cell("b__l", CellKind.LUT1, 1),
            Cell("n_ff", CellKind.FF_D),
        ]
    )
    score = power_score(nl, build_registry(nl))
    assert score.unannotated is not None
    assert score.unannotated.static_uw == pytest.approx(0.2)
    assert [str(b) for b in score.ranking] == ["b"]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 80), st.sampled_from([None, 1]))
def test_power_counts_resources_like_the_area_report(seed, n, depth):
    nl = gen_random(seed, n)
    assume(nl.ff_pairs)
    registry = build_registry(nl)
    if depth is not None:
        registry = group_to_depth(registry, depth)
    area = area_report(nl, registry)
    model = PowerModel.default()
    power = power_score(nl, registry, model)
    rows = [(area.per_block[label], power.per_block[label], cells) for label, cells in registry.blocks.items()]
    if registry.unannotated:
        rows.append((area.unannotated, power.unannotated, registry.unannotated))
    for block_area, block_power, cells in rows:
        counts, unpaired = resource_counts(cells, nl)
        assert (counts, unpaired) == (block_area.counts, block_area.unpaired_ff)
        assert block_power.static_uw == sum(counts[k] * model.static_of(k) for k in RESOURCE_KINDS)
        assert block_power.dynamic_pj == sum(counts[k] * model.dynamic_of(k) for k in RESOURCE_KINDS)
