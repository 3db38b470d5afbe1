"""Acceptance suite: the headline behaviors the package promises.

Each test prints a PASS line so a -s run reads as a checklist. Golden numbers
were confirmed against the brute-force oracles before being frozen here.
"""

import importlib
import inspect
import json
import subprocess
import sys
import time

from blockscope.annotation import BlockLabel, build_registry
from blockscope.area import area_report
from blockscope.delay import delay_report
from blockscope.devices import resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.formats import (
    parse_netlist,
    parse_profile,
    serialize_netlist,
    serialize_profile,
)
from blockscope.model import Cell, CellKind, Netlist
from blockscope.power import _ActivityIndex, average_power_uw, power_score
from blockscope.report import build_report, canonical_json, render_structured

from oracles import (
    Weighting,
    connected_sets,
    expand_paths,
    oracle_longest_path,
    oracle_replay,
    oracle_resource_counts,
)
from profiles import gen_random_profile

N_RANDOM = 1_000


def random_cases():
    for seed in range(N_RANDOM):
        yield seed, gen_random(seed, 4 + seed % 9)  # 4..12 cells


def test_block_critical_delay_shorter_than_system_path():
    started = time.monotonic()
    nl = gen_fig6()
    registry = build_registry(nl)
    core = BlockLabel.parse("core")
    sets = connected_sets(expand_paths(nl, registry.blocks[core]))
    report = delay_report(nl, registry)
    elapsed = time.monotonic() - started
    assert sorted(len(s.nodes) for s in sets) == [5, 7]
    assert report.per_block[core].system.total_delay == 5
    assert report.per_block[core].block.total_delay == 3
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print(f"\nPASS: two-cloud fixture scores system 5 / block 3, sets {{7, 5}} in {elapsed:.3f}s")


def test_longest_path_agrees_with_enumeration_on_1000_netlists():
    started = time.monotonic()
    checked = 0
    for seed, nl in random_cases():
        registry = build_registry(nl)
        include_nets = seed % 2 == 0
        report = delay_report(nl, registry, include_block_nets=include_nets)
        for label, cells in registry.blocks.items():
            got = report.per_block[label]
            assert got.system == oracle_longest_path(nl, cells, Weighting.SYSTEM), (
                seed,
                str(label),
            )
            assert got.block == oracle_longest_path(
                nl, cells, Weighting.BLOCK, include_block_nets=include_nets
            ), (seed, str(label))
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS: {checked} block solutions across {N_RANDOM} netlists match the "
          f"exhaustive oracle, paths and tie-breaks included, in {elapsed:.1f}s")


def test_area_counts_conserve_the_cell_census():
    fixtures = [gen_fig6()] + [gen_gcd(w)[0] for w in range(1, 9)] + [
        resolve_device(dev).apply_delays(gen_gcd(2)[0]) for dev in ("spartan6", "virtex5")
    ]
    cases = fixtures + [nl for _, nl in random_cases()]
    for nl in cases:
        report = build_report(nl, metrics=("area",)).area
        census = oracle_resource_counts(nl)
        got = {k: v for k, v in report.totals.counts.items() if v}
        assert got == census
    print(f"PASS: per-kind totals equal the netlist census on {len(cases)} netlists")


def test_block_delays_never_exceed_system_or_global():
    equal_cases = 0
    for seed, nl in random_cases():
        registry = build_registry(nl)
        report = delay_report(nl, registry)
        annotated = set().union(*registry.blocks.values())
        systems = []
        for bd in report.per_block.values():
            assert bd.block.total_delay <= bd.system.total_delay
            systems.append(bd.system.total_delay)
        assert max(systems) <= report.global_critical.total_delay
        if any(cid in annotated for cid in report.global_critical.path):
            assert max(systems) == report.global_critical.total_delay
            equal_cases += 1
    assert equal_cases > N_RANDOM // 2  # the equality branch is well exercised
    print(f"PASS: dominance and global-consistency hold on {N_RANDOM} netlists "
          f"({equal_cases} with an annotated critical path)")


def test_switching_factors_replay_exactly():
    nl, profile = gen_gcd()
    device = resolve_device("virtex7")
    score = power_score(area_report(nl, build_registry(nl), device.weights), device.power, profile)
    assert score.per_block[BlockLabel.parse("subtract")].alpha == 0.5
    for seed in range(N_RANDOM):
        p = gen_random_profile(seed)
        replay = oracle_replay(p)
        index = _ActivityIndex(p)
        # one cell per profile block, so power_score gives every block its alpha
        nl = Netlist([Cell(f"{block}__c", CellKind.LUT1, 1) for block in p.blocks()])
        score = power_score(area_report(nl, build_registry(nl), device.weights), device.power, p)
        for block in p.blocks():
            assert index.activity(block)[0] == replay[block], (seed, str(block))
            alpha = score.per_block[block].alpha
            assert 0.0 <= alpha <= 1.0
    print(f"PASS: subtract duty factor is 0.5 and {N_RANDOM} random profiles replay "
          f"identically to the cycle-by-cycle oracle")


def test_average_power_arithmetic():
    value = average_power_uw(static_uw=2.0, dynamic_pj=10.0, alpha=0.3, frequency_hz=1e8)
    assert format(value, ".3f") == "302.000"
    print("PASS: 2 uW + 10 pJ * 0.3 * 100 MHz reports as 302.000 uW")


GOLDEN_SUBTRACT = {
    # device: (system_ps, block_ps, block_nodes_only_ps)
    "spartan6": (524, 514, 499),
    "virtex5": (224, 214, 199),
    "virtex7": (126, 116, 101),
}


def test_device_scaling_matches_frozen_goldens():
    sub = BlockLabel.parse("subtract")
    seen = []
    for device, (system_ps, block_ps, nodes_only_ps) in GOLDEN_SUBTRACT.items():
        nl = resolve_device(device).apply_delays(gen_gcd(2)[0])
        registry = build_registry(nl)
        report = delay_report(nl, registry)
        got = report.per_block[sub]
        assert (got.system.total_delay, got.block.total_delay) == (system_ps, block_ps), device
        lean = delay_report(nl, registry, include_block_nets=False).per_block[sub]
        assert lean.block.total_delay == nodes_only_ps, device
        # goldens were frozen from this oracle; keep the cross-check alive
        assert got.block == oracle_longest_path(
            nl, registry.blocks[sub], Weighting.BLOCK, max_cells=16
        )
        seen.append(block_ps)
    assert seen == sorted(seen, reverse=True) and len(set(seen)) == 3
    print("PASS: subtract block delay falls 514 -> 214 -> 116 ps across the "
          "three device profiles, matching the frozen oracle values")


def test_cli_output_is_byte_identical_across_runs(tmp_path):
    def run(*args):
        result = subprocess.run(
            [sys.executable, "-m", "blockscope.cli", *args],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    for name in ("gcd", "fig6", "random:5:10"):
        run("fixtures", name, str(tmp_path))
    invocations = []
    for netlist in ("gcd.bnl", "fig6.bnl", "random_5_10.bnl"):
        for fmt in ("text", "csv", "structured"):
            args = ["analyze", "--netlist", str(tmp_path / netlist), "--format", fmt]
            if netlist == "gcd.bnl":
                args += ["--profile", str(tmp_path / "gcd.bpf")]
            invocations.append(args)

    runs = 0
    for args in invocations:
        outputs = {run(*args) for _ in range(10)}
        assert len(outputs) == 1, args
        runs += 10
    print(f"PASS: {len(invocations)} CLI invocations byte-identical over {runs} runs")


def test_round_trips_for_all_wire_formats():
    netlists = [gen_fig6()] + [gen_gcd(w)[0] for w in range(1, 9)]
    netlists += [nl for _, nl in random_cases()]
    for nl in netlists:
        blob = serialize_netlist(nl)
        parsed = parse_netlist(blob)
        assert parsed == nl
        assert serialize_netlist(parsed) == blob

    profiles = [gen_gcd()[1]] + [gen_random_profile(seed) for seed in range(N_RANDOM)]
    for p in profiles:
        blob = serialize_profile(p)
        assert parse_profile(blob) == p
        assert serialize_profile(parse_profile(blob)) == blob

    reports = 0
    for seed, nl in random_cases():
        if seed % 10:
            continue
        report = build_report(nl, metrics=("area", "delay"))
        blob = render_structured(report)
        assert canonical_json(json.loads(blob)) == blob
        reports += 1
    gcd_nl, profile = gen_gcd()
    blob = render_structured(
        build_report(gcd_nl, metrics=("area", "delay", "power"), profile=profile)
    )
    assert canonical_json(json.loads(blob)) == blob
    print(f"PASS: {len(netlists)} netlists, {len(profiles)} profiles, and "
          f"{reports + 1} structured reports survive parse/serialize round-trips")


# (module, name) of helpers that only tests called, and of wrappers that added nothing
DELETED = (
    ("area", "AreaWeights"),
    ("area", "DEFAULT_WEIGHTS"),
    ("delay", "WeightingMode"),
    ("delay", "longest_path"),
    ("devices", "builtin_device"),
    ("devices", "load_device_file"),
    ("fixtures", "gcd_profile"),
    ("formats", "NetlistDocument"),
    ("formats", "parse_power_model"),
    ("model", "ValidationReport"),
    ("model", "_LazyGraph"),
    ("model", "topological_order"),
    ("model", "topological_ranks"),
    ("power", "DEFAULT_DYNAMIC_PJ"),
    ("power", "DEFAULT_FREQUENCY_HZ"),
    ("power", "DEFAULT_STATIC_UW"),
    ("power", "active_cycles"),
    ("power", "activity_events"),
    ("power", "switching_factor"),
    ("report", "parse_structured"),
)


def test_public_api_resolves_without_the_deleted_helpers():
    import blockscope

    assert len(set(blockscope.__all__)) == len(blockscope.__all__)
    for name in blockscope.__all__:
        assert getattr(blockscope, name, None) is not None, name
    for module, name in DELETED:
        assert name not in blockscope.__all__ and not hasattr(blockscope, name), name
        assert not hasattr(importlib.import_module(f"blockscope.{module}"), name), (module, name)
    attributes = ((blockscope.Netlist, "cell_ids"), (blockscope.PowerModel, "default"),
                  (blockscope.PowerModel, "static_of"), (blockscope.PowerModel, "dynamic_of"),
                  (blockscope.BlockLabel, "depth"), (blockscope.BlockRegistry, "all_cells"),
                  (blockscope.CellKind, "is_source"), (blockscope.CellKind, "is_sink"),
                  *((blockscope.Netlist, name)
                    for name in ("succ", "succ_first", "succ_delay", "pred", "rank", "order")))
    for cls, name in attributes:
        assert not hasattr(cls, name), (cls.__name__, name)
    params = inspect.signature(blockscope.build_report).parameters
    gone = ("registry", "weights", "model")  # the device record carries weights and power
    for name in gone:
        assert name not in params, name
    # the coefficient tables come from the caller, never from a default
    defaults = ((blockscope.area_report, "weights"), (blockscope.power_score, "model"),
                (blockscope.PowerModel, "static_uw"), (blockscope.PowerModel, "dynamic_pj"),
                (blockscope.PowerModel, "frequency_hz"))
    for function, name in defaults:
        assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty, name
    # a plain record, since power_score checks it: no private base, and the
    # constructor is the one NamedTuple generates, not one of its own
    assert blockscope.PowerModel.__bases__ == (tuple,)
    assert blockscope.PowerModel.__new__.__module__ == "namedtuple_PowerModel"
    count = len(DELETED) + len(attributes) + len(gone) + len(defaults)
    print(f"PASS: {len(blockscope.__all__)} public names resolve and {count} deleted ones stay gone")
