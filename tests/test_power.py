"""Activity replay, switching factors, and the average-power score."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockscope.annotation import BlockLabel, build_registry, group_to_depth
from blockscope.area import RESOURCE_KINDS, area_report, resource_counts
from blockscope.devices import resolve_device
from blockscope.fixtures import gen_gcd, gen_random
from blockscope.model import Cell, CellKind, Netlist
from blockscope.power import (
    ActivityProfile,
    PowerError,
    _ActivityIndex,
    average_power_uw,
    power_score,
)

from oracles import oracle_events, oracle_replay
from profiles import gen_random_profile

SUB = BlockLabel.parse("subtract")
SWAP = BlockLabel.parse("swap")


def score_of(nl, profile=None):
    """power_score over the netlist's own registry, under virtex7."""
    device = resolve_device("virtex7")
    return power_score(area_report(nl, build_registry(nl), device.weights), device.power, profile)


def profile_scores(profile):
    """power_score's BlockPower per profile block, over one cell in each block."""
    nl = Netlist([Cell(f"{block}__c", CellKind.LUT1, 1) for block in sorted(profile.blocks(), key=str)])
    return score_of(nl, profile).per_block


def test_average_power_formula():
    # 2 uW static, 10 pJ per active cycle, 30% duty at 100 MHz
    assert format(average_power_uw(2.0, 10.0, 0.3, 1e8), ".3f") == "302.000"
    assert average_power_uw(5.0, 0.0, 1.0, 1e8) == pytest.approx(5.0)
    assert average_power_uw(0.0, 1.0, 0.0, 1e8) == pytest.approx(0.0)


def test_gcd_active_cycles_and_alpha():
    nl, profile = gen_gcd()
    index = _ActivityIndex(profile)
    assert index.activity(SUB)[0] == {2, 3, 4, 5, 6}
    assert index.activity(SWAP)[0] == {1, 2, 3, 4, 5, 6}
    score = score_of(nl, profile).per_block
    assert score[SUB].alpha == pytest.approx(0.5)
    assert score[SWAP].alpha == pytest.approx(0.6)
    # events keep multiplicity: overlapping triggers exceed distinct cycles
    assert score[SUB].events == 10
    assert score[SWAP].events == 9


def test_firing_in_last_cycle_propagates_nothing():
    b = BlockLabel.parse("b")
    profile = ActivityProfile(
        cycles=3,
        rule_block={"r": b, "w": BlockLabel.parse("w")},
        firings={"r": (), "w": (2,)},
        writes=frozenset({("w", "s")}),
        reads=frozenset({(b, "s")}),
    )
    assert _ActivityIndex(profile).activity(b)[0] == set()
    profile2 = ActivityProfile(
        cycles=4,
        rule_block=profile.rule_block,
        firings={"r": (), "w": (2,)},
        writes=profile.writes,
        reads=profile.reads,
    )
    assert _ActivityIndex(profile2).activity(b)[0] == {3}


def test_self_write_counts_as_next_cycle_activity():
    b = BlockLabel.parse("b")
    profile = ActivityProfile(
        cycles=5,
        rule_block={"r": b},
        firings={"r": (0,)},
        writes=frozenset({("r", "s")}),
        reads=frozenset({(b, "s")}),
    )
    assert _ActivityIndex(profile).activity(b) == ({0, 1}, 2)


def test_gcd_power_score_and_ranking():
    nl, profile = gen_gcd()
    score = score_of(nl, profile)
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
    score = score_of(nl)
    assert all(bp.alpha == 0.0 and not bp.profiled for bp in score.per_block.values())
    statics = [score.per_block[b].static_uw for b in score.ranking]
    assert statics == sorted(statics, reverse=True)
    # equal static power (x and y) falls back to label order
    assert [str(b) for b in score.ranking[-2:]] == ["x", "y"]


@pytest.mark.parametrize("change, message", [
    (dict(static_uw={**resolve_device("virtex7").power.static_uw, "LUT1": -0.1}),
     "static coefficient for LUT1 must be non-negative"),
    (dict(dynamic_pj={**resolve_device("virtex7").power.dynamic_pj, "bogus": 1.0}),
     "unknown resource kind 'bogus' in dynamic table"),
    (dict(frequency_hz=0.0), "frequency must be positive"),
    (dict(frequency_hz=-1e8), "frequency must be positive"),
    (dict(frequency_hz=float("nan")), "frequency must be positive"),
    (dict(frequency_hz=True), "frequency must be a finite number"),
])
def test_power_model_validation(change, message):
    """PowerModel is plain data, so a model changed by _replace is checked
    when power_score weighs it, before any block is scored."""
    nl, profile = gen_gcd()
    device = resolve_device("virtex7")
    area = area_report(nl, build_registry(nl), device.weights)
    model = device.power._replace(**change)
    with pytest.raises(PowerError) as err:
        power_score(area, model, profile)
    assert str(err.value) == message


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
        index = _ActivityIndex(profile)
        score = profile_scores(profile)
        for block in sorted(profile.blocks(), key=str):
            active, n_events = index.activity(block)
            assert active == replay[block]
            assert all(0 <= t < profile.cycles for t in active)
            bp = score[block]
            assert 0.0 <= bp.alpha <= 1.0
            assert n_events == events[block] >= len(active)
            assert (bp.active_cycles, bp.events) == (len(replay[block]), events[block])
            assert bp.alpha == len(active) / profile.cycles


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
    quiet_index, loud_index = _ActivityIndex(profile), _ActivityIndex(louder)
    quiet_score, loud_score = profile_scores(profile), profile_scores(louder)
    for block in profile.blocks():
        before, before_events = quiet_index.activity(block)
        after, after_events = loud_index.activity(block)
        assert before <= after
        assert loud_score[block].alpha >= quiet_score[block].alpha
        assert after_events >= before_events


def test_unannotated_cells_score_but_never_rank():
    nl = Netlist(
        [
            Cell("b__l", CellKind.LUT1, 1),
            Cell("n_ff", CellKind.FF_D),
        ]
    )
    score = score_of(nl)
    assert score.unannotated is not None
    assert score.unannotated.static_uw == pytest.approx(0.2)
    assert [str(b) for b in score.ranking] == ["b"]


def test_unannotated_row_exists_exactly_when_cells_are_unannotated():
    # an unannotated FF_Q whose D port is in block b is an unpaired FF of the unannotated row
    pair = Netlist([Cell("b__d", CellKind.FF_D), Cell("n_q", CellKind.FF_Q)], [], [("b__d", "n_q")])
    assert score_of(pair).unannotated.static_uw == resolve_device("virtex7").power.static_uw["FF"]
    seen = set()
    for nl in [pair, Netlist([Cell("b__l", CellKind.LUT1, 1)])] + [gen_random(seed, 12) for seed in range(40)]:
        empty = not build_registry(nl).unannotated
        assert (score_of(nl).unannotated is None) == empty
        seen.add(empty)
    assert seen == {True, False}


@pytest.mark.parametrize("field, name", [("static_uw", "static"), ("dynamic_pj", "dynamic")])
def test_a_kind_deleted_after_construction_is_named(field, name):
    """PowerModel's tables are plain dicts, so power_score checks them when it weighs."""
    nl, profile = gen_gcd()
    device = resolve_device("virtex7")
    area = area_report(nl, build_registry(nl), device.weights)
    del getattr(device.power, field)["FF"]
    with pytest.raises(PowerError, match=f"^{name} table lacks resource kind FF$"):
        power_score(area, device.power, profile)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 80), st.sampled_from([None, 1]))
def test_power_counts_resources_like_the_area_report(seed, n, depth):
    nl = gen_random(seed, n)
    assume(nl.ff_pairs)
    registry = build_registry(nl)
    if depth is not None:
        registry = group_to_depth(registry, depth)
    device = resolve_device("virtex7")
    area = area_report(nl, registry, device.weights)
    model = device.power
    power = power_score(area, model)
    rows = [(area.per_block[label], power.per_block[label], cells) for label, cells in registry.blocks.items()]
    if registry.unannotated:
        rows.append((area.unannotated, power.unannotated, registry.unannotated))
    for block_area, block_power, cells in rows:
        counts, unpaired = resource_counts(cells, nl)
        assert (counts, unpaired) == (block_area.counts, block_area.unpaired_ff)
        assert block_power.static_uw == sum(counts[k] * model.static_uw[k] for k in RESOURCE_KINDS)
        assert block_power.dynamic_pj == sum(counts[k] * model.dynamic_pj[k] for k in RESOURCE_KINDS)
