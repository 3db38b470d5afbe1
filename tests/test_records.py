"""The public record types: fields, repr, equality, hash, immutability,
ordering, constructor checks, the coefficient checks area_report and
power_score run when they weigh, the built-in tables resolve_device returns,
and what importing the CLI pulls in."""

import subprocess
import sys
from pathlib import Path

import pytest

from blockscope.annotation import AnnotationError, BlockLabel, BlockRegistry, build_registry
from blockscope.area import RESOURCE_KINDS, AreaError, AreaReport, BlockArea, area_report
from blockscope.delay import BlockDelay, DelayReport, PathResult
from blockscope.devices import BUILTIN_DEVICES, DeviceProfile, resolve_device
from blockscope.model import Cell, CellKind, Net, Netlist, Violation
from blockscope.power import (
    ActivityProfile,
    BlockPower,
    PowerError,
    PowerModel,
    PowerScore,
    power_score,
)
from blockscope.report import CombinedReport, ReportMetadata

LABEL = BlockLabel(("s0", "m1"))
L = "BlockLabel(segments=('s0', 'm1'))"
AREA = BlockArea({"LUT2": 2}, 2.0, ("s0.m1__q",))
A = "BlockArea(counts={'LUT2': 2}, weighted_area=2.0, unpaired_ff=('s0.m1__q',))"
PATH = PathResult(5, 3, 2, ("a", "b"))
P = "PathResult(total_delay=5, logic_delay=3, network_delay=2, path=('a', 'b'))"
BDELAY = BlockDelay(PATH, PathResult(3, 3, 0, ("b",)))
BD = f"BlockDelay(system={P}, block=PathResult(total_delay=3, logic_delay=3, network_delay=0, path=('b',)))"
REST = "'LUT3': 0, 'LUT4': 0, 'LUT5': 0, 'LUT6': 0, 'FF': 0, 'CLK': 0, 'IN': 0, 'OUT': 0, 'MEM_IN': 0"


def table(**values):
    """A complete coefficient table: the given kinds' values and 0 for every other kind."""
    return {**dict.fromkeys(RESOURCE_KINDS, 0), **values}


WEIGHTS = table(LUT2=1.5)
W = f"{{'LUT1': 0, 'LUT2': 1.5, {REST}}}"
MODEL = PowerModel(table(LUT2=0.2), table(LUT2=1.0), 1e8)
M = (f"PowerModel(static_uw={{'LUT1': 0, 'LUT2': 0.2, {REST}}}, "
     f"dynamic_pj={{'LUT1': 0, 'LUT2': 1.0, {REST}}}, frequency_hz=100000000.0)")
BPOWER = BlockPower(0.2, 1.0, 0.5, 2, 3, 50.2, True)
BP = ("BlockPower(static_uw=0.2, dynamic_pj=1.0, alpha=0.5, active_cycles=2, events=3, "
      "average_uw=50.2, profiled=True)")
META = ReportMetadata("0.1.0", "virtex7", None, "ab12", 2, True)
MD = ("ReportMetadata(tool_version='0.1.0', device='virtex7', netlist_digest=None, "
      "profile_digest='ab12', group_depth=2, block_delay_nets=True)")

# (sample, its field names in order, its repr)
RECORDS = [
    (Cell("a", CellKind.LUT2, 3), ("id", "kind", "logic_delay"),
     "Cell(id='a', kind=<CellKind.LUT2: 'LUT2'>, logic_delay=3)"),
    (Net("a", "b", 1), ("src", "dst", "net_delay"), "Net(src='a', dst='b', net_delay=1)"),
    (Violation("cycle", "a", "cycle a -> b -> a", ("a", "b")), ("rule", "subject", "message", "cells"),
     "Violation(rule='cycle', subject='a', message='cycle a -> b -> a', cells=('a', 'b'))"),
    (LABEL, ("segments",), L),
    (BlockRegistry({LABEL: frozenset({"s0.m1__a"})}, frozenset({"x"})), ("blocks", "unannotated"),
     f"BlockRegistry(blocks={{{L}: frozenset({{'s0.m1__a'}})}}, unannotated=frozenset({{'x'}}))"),
    (AREA, ("counts", "weighted_area", "unpaired_ff"), A),
    (AreaReport({LABEL: AREA}, AREA, AREA), ("per_block", "unannotated", "totals"),
     f"AreaReport(per_block={{{L}: {A}}}, unannotated={A}, totals={A})"),
    (PATH, ("total_delay", "logic_delay", "network_delay", "path"), P),
    (BDELAY, ("system", "block"), BD),
    (DelayReport({LABEL: BDELAY}, None, PATH, frozenset({LABEL})),
     ("per_block", "unannotated", "global_critical", "critical_blocks"),
     f"DelayReport(per_block={{{L}: {BD}}}, unannotated=None, global_critical={P}, "
     f"critical_blocks=frozenset({{{L}}}))"),
    (DeviceProfile("virtex7", {CellKind.LUT2: 120}, WEIGHTS, MODEL), ("name", "logic_delays", "weights", "power"),
     f"DeviceProfile(name='virtex7', logic_delays={{<CellKind.LUT2: 'LUT2'>: 120}}, weights={W}, power={M})"),
    (MODEL, ("static_uw", "dynamic_pj", "frequency_hz"), M),
    (ActivityProfile(4, {"r": LABEL}, {"r": (0, 2)}, frozenset({("r", "s")}), frozenset({(LABEL, "s")})),
     ("cycles", "rule_block", "firings", "writes", "reads"),
     f"ActivityProfile(cycles=4, rule_block={{'r': {L}}}, firings={{'r': (0, 2)}}, "
     f"writes=frozenset({{('r', 's')}}), reads=frozenset({{({L}, 's')}}))"),
    (BPOWER, ("static_uw", "dynamic_pj", "alpha", "active_cycles", "events", "average_uw", "profiled"), BP),
    (PowerScore({LABEL: BPOWER}, None, (LABEL,), 1e8),
     ("per_block", "unannotated", "ranking", "frequency_hz", "unknown_blocks"),
     f"PowerScore(per_block={{{L}: {BP}}}, unannotated=None, ranking=({L},), "
     "frequency_hz=100000000.0, unknown_blocks=())"),
    (META, ("tool_version", "device", "netlist_digest", "profile_digest", "group_depth", "block_delay_nets"), MD),
    (CombinedReport(META, None, None, None), ("metadata", "area", "delay", "power"),
     f"CombinedReport(metadata={MD}, area=None, delay=None, power=None)"),
]
IDS = [type(sample).__name__ for sample, _, _ in RECORDS]


@pytest.mark.parametrize("sample, fields, text", RECORDS, ids=IDS)
def test_repr(sample, fields, text):
    assert repr(sample) == text


@pytest.mark.parametrize("sample, fields, text", RECORDS, ids=IDS)
def test_keyword_construction_gives_an_equal_record(sample, fields, text):
    values = {name: getattr(sample, name) for name in fields}
    copy = type(sample)(**values)
    assert copy == sample and not copy != sample


@pytest.mark.parametrize("sample, fields, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(sample, fields, text):
    values = tuple(getattr(sample, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:  # a dict field makes both unhashable
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == expected


@pytest.mark.parametrize("sample, fields, text", RECORDS, ids=IDS)
def test_assigning_a_field_raises(sample, fields, text):
    with pytest.raises(AttributeError):
        setattr(sample, fields[0], getattr(sample, fields[0]))
    assert repr(sample) == text


def test_block_label_sorts_by_segments():
    labels = [BlockLabel(("b",)), BlockLabel(("a", "z")), BlockLabel(("a",)), BlockLabel(("a", "b"))]
    assert [str(b) for b in sorted(labels)] == ["a", "a.b", "a.z", "b"]
    assert BlockLabel(("a",)) < BlockLabel(("a", "b")) <= BlockLabel(("a", "b")) < BlockLabel(("b",))


@pytest.mark.parametrize("build, error, message", [
    (lambda: BlockLabel(()), AnnotationError, "block label needs at least one segment"),
    (lambda: BlockLabel(("s0", "")), AnnotationError, "malformed block label segment ''"),
    (lambda: BlockLabel(("s0", "a b")), AnnotationError, "malformed block label segment 'a b'"),
    (lambda: BlockLabel(("a__b", "c d")), AnnotationError, "malformed block label segment 'a__b'"),
])
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


NETLIST = Netlist([Cell("b__l", CellKind.LUT2, 1), Cell("b__d", CellKind.FF_D), Cell("b__q", CellKind.FF_Q)],
                  [], [("b__d", "b__q")])


def weigh_area(weights):
    return area_report(NETLIST, build_registry(NETLIST), weights)


def weigh_power(static_uw, dynamic_pj, frequency_hz):
    return power_score(weigh_area(table()), PowerModel(static_uw, dynamic_pj, frequency_hz))


@pytest.mark.parametrize("weigh, error, message", [
    (lambda: weigh_area({"LUT7": 1.0}), AreaError, "unknown resource kind 'LUT7' in weight table"),
    (lambda: weigh_area({"FF": -1.0}), AreaError, "weight for FF must be non-negative"),
    (lambda: weigh_area({"FF": -1.0, "LUT7": 1.0}), AreaError, "weight for FF must be non-negative"),
    (lambda: weigh_power({"LUT7": 1.0}, table(), 1e8), PowerError, "unknown resource kind 'LUT7' in static table"),
    (lambda: weigh_power(table(), {"LUT7": 1.0}, 1e8), PowerError, "unknown resource kind 'LUT7' in dynamic table"),
    (lambda: weigh_power({"FF": -0.5}, table(), 1e8), PowerError, "static coefficient for FF must be non-negative"),
    (lambda: weigh_power(table(), {"FF": -0.5}, 1e8), PowerError, "dynamic coefficient for FF must be non-negative"),
    (lambda: weigh_power({"FF": -0.5}, {"LUT7": 1.0}, 0.0), PowerError,
     "static coefficient for FF must be non-negative"),
    (lambda: weigh_power(table(), {"LUT7": 1.0}, 0.0), PowerError, "unknown resource kind 'LUT7' in dynamic table"),
    (lambda: weigh_power(table(), table(), 0.0), PowerError, "frequency must be positive"),
    (lambda: weigh_power(table(), table(), float("nan")), PowerError, "frequency must be positive"),
    # every kind, and only numbers that stay finite as floats
    (lambda: weigh_area({}), AreaError, "weight table lacks resource kind CLK"),
    (lambda: weigh_area({k: 1 for k in RESOURCE_KINDS if k not in ("MEM_IN", "LUT3")}), AreaError,
     "weight table lacks resource kind LUT3"),
    (lambda: weigh_power({}, table(), 1e8), PowerError, "static table lacks resource kind CLK"),
    (lambda: weigh_power(table(), {"FF": 1.0}, 1e8), PowerError, "dynamic table lacks resource kind CLK"),
    (lambda: weigh_power(table(), table(), float("inf")), PowerError, "frequency must be a finite number"),
    (lambda: weigh_power(table(), table(), 10**400), PowerError, "frequency must be a finite number"),
    (lambda: weigh_power(table(), table(), True), PowerError, "frequency must be a finite number"),
    (lambda: weigh_power(table(), table(), "1e8"), PowerError, "frequency must be a finite number"),
    (lambda: weigh_power(table(), table(), None), PowerError, "frequency must be a finite number"),
] + [
    (lambda value=value: weigh_area(table(FF=value)), AreaError, "weight for FF must be a finite number")
    for value in (float("nan"), float("inf"), -float("inf"), 10**400, "1", True, False, None)
] + [
    (lambda value=value: weigh_power(table(LUT1=value), table(), 1e8), PowerError,
     "static coefficient for LUT1 must be a finite number")
    for value in (float("nan"), float("inf"), "0.5", True)
] + [
    (lambda value=value: weigh_power(table(), table(LUT1=value), 1e8), PowerError,
     "dynamic coefficient for LUT1 must be a finite number")
    for value in (float("nan"), float("inf"), "0.5", True)
])
def test_tables_are_checked_where_they_are_weighed(weigh, error, message):
    """The records take any value; area_report and power_score reject a bad
    table or frequency when they weigh it."""
    with pytest.raises(error) as err:
        weigh()
    assert str(err.value) == message


def test_int_coefficients_give_float_scores():
    area = weigh_area(table(LUT2=3, FF=2))
    assert area.totals.weighted_area == 5.0 and area.totals.weighted_area.__class__ is float
    power = power_score(area, PowerModel(table(LUT2=1), table(FF=4), 10**6)).per_block
    (block,) = power.values()
    assert (block.static_uw, block.dynamic_pj) == (1.0, 4.0)
    assert block.static_uw.__class__ is float and block.dynamic_pj.__class__ is float


def test_default_tables_are_fresh_copies():
    """Emptying every table resolve_device returned leaves the next call's
    tables as they were, for every built-in."""
    def tables(device):
        return device.logic_delays, device.weights, device.power.static_uw, device.power.dynamic_pj

    for name in BUILTIN_DEVICES:
        changed = resolve_device(name)
        expected = [dict(t) for t in tables(changed)]
        for t in tables(changed):
            t.clear()
        assert [dict(t) for t in tables(resolve_device(name))] == expected, name


def test_importing_the_cli_skips_dataclasses_and_inspect():
    guard = Path(__file__).with_name("import_guard.py")
    result = subprocess.run([sys.executable, str(guard)], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
