"""Metamorphic property: the order of a netlist's lines never changes a report.

Construction's one Kahn pass sweeps cells in an order that follows the net
lines, and the delay search sweeps that order; every report byte must still
be the same for any order of the lines after the header.
"""

import random

import pytest

from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.formats import parse_netlist, serialize_netlist
from blockscope.model import Netlist
from blockscope.report import build_report, render_csv, render_structured, render_text

SHUFFLES = 4
SETTINGS = [(depth, nets) for depth in (None, 1) for nets in (True, False)]


def _shuffled(blob: bytes, rng: random.Random) -> bytes:
    header, *lines = blob.splitlines()
    rng.shuffle(lines)
    return b"\n".join([header, *lines]) + b"\n"


def _reports(netlist: Netlist, profile) -> list[bytes]:
    metrics = ("area", "delay", "power") if profile is not None else ("area", "delay")
    out = []
    for depth, nets in SETTINGS:
        report = build_report(netlist, metrics=metrics, profile=profile, group_depth=depth,
                              include_block_nets=nets)
        out += [render(report) for render in (render_text, render_csv, render_structured)]
    return out


def _zero_delays(nl: Netlist) -> Netlist:
    """nl with every cell and net delay 0, so every path ties every other."""
    return Netlist([c._replace(logic_delay=0) for c in nl.cells],
                   [n._replace(net_delay=0) for n in nl.nets], nl.ff_pairs)


def _designs(family: str):
    if family == "random":
        return [(gen_random(seed, 2 + seed % 59), None) for seed in range(120)]
    if family == "zero":
        return [(_zero_delays(gen_random(1000 + seed, 2 + seed % 47)), None) for seed in range(40)]
    return [gen_gcd(), (gen_fig6(), None)]


@pytest.mark.parametrize("family", ["random", "zero", "fixtures"])
def test_shuffled_netlist_lines_print_the_same_report(family):
    rng = random.Random(family)
    for netlist, profile in _designs(family):
        blob = serialize_netlist(netlist)
        want = _reports(parse_netlist(blob), profile)
        for _ in range(SHUFFLES):
            shuffled = _shuffled(blob, rng)
            assert _reports(parse_netlist(shuffled), profile) == want, shuffled
