"""Properties of the bundled fixture generators themselves."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockscope.annotation import build_registry, extract_block_label
from blockscope.devices import resolve_device
from blockscope.fixtures import (
    GCD_NET_PS,
    gen_fig6,
    gen_gcd,
    gen_random,
)
from blockscope.formats import parse_profile, serialize_netlist, serialize_profile
from blockscope.model import BlockscopeError, CellKind, validate

from oracles import topological_order
from profiles import gen_random_profile


@pytest.mark.parametrize("width", range(1, 9))
def test_gcd_scales_and_stays_valid(width):
    nl, profile = gen_gcd(width)
    assert validate(nl) == ()
    registry = build_registry(nl)
    assert sorted(map(str, registry.blocks)) == ["subtract", "swap", "x", "y"]
    assert registry.unannotated == frozenset()
    for reg in ("x", "y"):
        kinds = {nl.cell(c).kind for c in registry.blocks[extract_block_label(f"{reg}__d0")]}
        assert kinds == {CellKind.FF_D, CellKind.FF_Q}
    assert len(nl.ff_pairs) == 2 * width
    assert profile == gen_gcd()[1]  # the same for every width
    base = 7 * width + 2
    extra = 2 * -(-width // 3) if 2 * width > 6 else 0
    assert len(nl.cells) == base + extra


def test_gcd_width_bounds():
    for bad in (0, 9, -1):
        with pytest.raises(BlockscopeError):
            gen_gcd(bad)


@pytest.mark.parametrize("width", (1, 2, 3))
def test_gcd_narrow_topo_order_has_three_phases(width):
    nl, _ = gen_gcd(width)
    phases = [0 if k is CellKind.FF_Q else 2 if k is CellKind.FF_D else 1
              for k in (nl.cell(c).kind for c in topological_order(nl))]
    assert phases == sorted(phases)


def test_gcd_delays_come_from_the_device():
    nl = resolve_device("spartan6").apply_delays(gen_gcd(2)[0])
    assert nl.cell("subtract__diff0").logic_delay == 100  # LUT3
    assert nl.cell("subtract__guard").logic_delay == 133  # LUT4
    assert all(n.net_delay == GCD_NET_PS for n in nl.nets)
    # apply_delays replaces every logic delay, so the last device mapped wins
    via_profile = resolve_device("spartan6").apply_delays(resolve_device("virtex5").apply_delays(gen_gcd(2)[0]))
    assert via_profile == nl


def test_gcd_profile_is_wire_format_clean():
    profile = gen_gcd()[1]
    assert parse_profile(serialize_profile(profile)) == profile
    assert profile.cycles == 10
    assert profile.firings == {"swap": (1, 3), "subtract": (2, 4, 5)}


def test_fig6_shape():
    nl = gen_fig6()
    assert validate(nl) == ()
    assert len(nl.cells) == 12
    assert nl.ff_pairs == ()
    registry = build_registry(nl)
    assert sorted(map(str, registry.blocks)) == ["core"]
    assert len(registry.blocks[extract_block_label("core__a1")]) == 4


def test_random_netlist_is_deterministic():
    a = gen_random(123, 15)
    b = gen_random(123, 15)
    assert a == b
    assert serialize_netlist(a) == serialize_netlist(b)
    assert serialize_netlist(gen_random(124, 15)) != serialize_netlist(a)


# sha256 of serialize_netlist(gen_random(seed, n)) for the sizes the delay
# reference test uses, recorded before generation was made linear, so its bytes stay pinned
RANDOM_NETLIST_DIGESTS = {
    (1, 500): "d1b5a08c1f05807b0a5b0f0010096c1251016ff33798485bae92e062a483c158",
    (4, 500): "07dffe328271c6ba5bb3c55f56a8d14ad7939929f1c2f7632e5467d5ee18344d",
    (3, 1000): "1b6b0df4c0b305b60ae37c28538b5d8766a15add2bef296589ea4a3ba31573e7",
    (6, 1000): "5bfc27a82b04797c32e1efecd1c8c2e1b343c2f27ed1653438fd71b87653440f",
    (5, 2000): "925f62f245a554bda63c4fa3eb5a088c451494e11b38e9db6b705a904e9fc948",
    (7, 2000): "7b298dac8e0e6e8dc4351d5d93e667f6de6e5a84dd1c9e775cf1c201698fe611",
}


@pytest.mark.parametrize("seed, n", sorted(RANDOM_NETLIST_DIGESTS))
def test_random_netlist_bytes_are_pinned(seed, n):
    blob = serialize_netlist(gen_random(seed, n))
    assert hashlib.sha256(blob).hexdigest() == RANDOM_NETLIST_DIGESTS[(seed, n)]


def test_random_netlist_minimum_size():
    with pytest.raises(BlockscopeError):
        gen_random(0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 30))
def test_random_netlists_are_annotated_and_paired_sanely(seed, n):
    nl = gen_random(seed, n)
    registry = build_registry(nl)
    assert registry.blocks  # at least one real block
    assert registry.unannotated_fraction <= 0.5
    pair_partners = {}
    for d, q in nl.ff_pairs:
        assert extract_block_label(d) == extract_block_label(q)
        assert d not in pair_partners and q not in pair_partners
        pair_partners[d] = q
        pair_partners[q] = d
    kinds = {c.kind for c in nl.cells}
    assert kinds & {CellKind.CLK, CellKind.IN, CellKind.FF_Q}
    assert kinds & {CellKind.FF_D, CellKind.OUT, CellKind.MEM_IN}


def test_random_profile_is_deterministic_and_well_formed():
    a = gen_random_profile(9)
    assert a == gen_random_profile(9)
    for seed in range(40):
        p = gen_random_profile(seed)
        assert p.cycles >= 1
        declared = set(p.rule_block.values())
        written = {s for _, s in p.writes}
        for rid, fires in p.firings.items():
            assert rid in p.rule_block
            assert all(0 <= t < p.cycles for t in fires)
            assert list(fires) == sorted(set(fires))
        for block, state in p.reads:
            assert block in declared
            assert state in written
