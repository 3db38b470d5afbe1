"""The independent report checker: it passes every structured report blockscope
prints, and names each fault planted in one."""

import copy
import json
import time

import pytest

from blockscope.cli import main
from blockscope.fixtures import gen_gcd, gen_random
from blockscope.formats import serialize_netlist

from report_check import Design, check_report
from test_delay import _chains, _layered

SETTINGS = ([], ["--group-depth", "1"], ["--block-delay-nodes-only"])


def _report(path, flags, capsys) -> str:
    assert main(["analyze", "--netlist", str(path), "--metrics", "delay", "--format", "structured",
                 *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("netlist", [
    pytest.param(lambda: _layered(2, stages=4, modules=4, ops=4, layers=12, width=12), id="layered"),
    pytest.param(lambda: gen_random(8, 400), id="random"),
    pytest.param(lambda: _chains(4, count=3, length=200), id="chains"),
])
def test_every_printed_delay_checks_out(netlist, tmp_path, capsys):
    """At full depth, at group depth 1 and nodes-only; the layered design has
    ~10,000 cells, and the others have unannotated cells."""
    start = time.perf_counter()
    netlist = netlist()
    text = serialize_netlist(netlist).decode()
    path = tmp_path / "n.bnl"
    path.write_text(text)
    design = Design(text)
    for flags in SETTINGS:
        assert check_report(design, _report(path, flags, capsys)) == [], flags
    assert time.perf_counter() - start < 5


def test_each_planted_fault_is_named(tmp_path, capsys):
    netlist, _ = gen_gcd()
    text = serialize_netlist(netlist).decode()
    path = tmp_path / "gcd.bnl"
    path.write_text(text)
    design = Design(text)
    doc = json.loads(_report(path, [], capsys))
    assert check_report(design, json.dumps(doc)) == []
    swap = doc["delay"]["blocks"][1]
    assert swap["block"] == "swap"

    def lighter_block_path(d):  # the block weight of swap's system path, a valid but lighter crossing path
        d["delay"]["blocks"][1]["block_delay"] = dict(swap["system"], logic_ps=27, network_ps=0, total_ps=27)

    def skipped_cell(d):
        del d["delay"]["global_critical"]["path"][3]

    def unknown_cell(d):
        d["delay"]["blocks"][0]["system"]["path"][1] = "ghost"

    def no_sink(d):
        d["delay"]["global_critical"]["path"].pop()

    def empty_system_path(d):
        d["delay"]["blocks"][0]["system"] = {"logic_ps": 0, "network_ps": 0, "path": [], "total_ps": 0}

    def wrong_split(d):
        entry = d["delay"]["global_critical"]
        entry["logic_ps"], entry["network_ps"] = entry["logic_ps"] + 1, entry["network_ps"] - 1

    def missing_label(d):
        d["delay"]["critical_blocks"].remove("x")

    def dropped_row(d):
        del d["delay"]["blocks"][0]

    faults = {
        lighter_block_path: "swap block: printed 27 ps, exact block weight 52 ps",
        skipped_cell: "global_critical: path steps along a net the netlist does not have",
        unknown_cell: "subtract system: path names an unknown cell",
        no_sink: "global_critical: path does not run from a source-kind to a sink-kind cell",
        empty_system_path: "subtract system: empty path, yet a complete path crosses its cells",
        wrong_split: "global_critical: printed logic, net and total (102, 24, 126), recomputed (101, 25, 126)",
        missing_label: "critical_blocks: printed ['subtract', 'y'], labels on the path ['subtract', 'x', 'y']",
        dropped_row: "rows: printed 3 rows, the netlist has 4 labels",
    }
    for plant, problem in faults.items():
        planted = copy.deepcopy(doc)
        plant(planted)
        assert problem in check_report(design, json.dumps(planted)), plant.__name__
