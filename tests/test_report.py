"""Combined report assembly and the three output renderings."""

import csv
import io
import json

import pytest

from blockscope import area, model
from blockscope.annotation import BlockLabel, build_registry
from blockscope.devices import resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.formats import parse_netlist, serialize_netlist
from blockscope.model import BlockscopeError, Net, Netlist, ValidationError
from blockscope.report import (
    CSV_HEADER,
    SCHEMA,
    UNANNOTATED_LABEL,
    build_report,
    canonical_json,
    render_csv,
    render_structured,
    render_text,
)

from profiles import gen_random_profile


def gcd_report(**kwargs):
    nl, profile = gen_gcd()
    kwargs.setdefault("metrics", ("area", "delay", "power"))
    kwargs.setdefault("profile", profile)
    return build_report(nl, **kwargs)


def test_unknown_metric_rejected():
    nl, _ = gen_gcd()
    with pytest.raises(BlockscopeError, match="^unknown metric 'speed'; expected area, delay, power$"):
        build_report(nl, metrics=("area", "speed"))


@pytest.mark.parametrize("depth", [True, 1.5, 0])
def test_group_depth_is_checked_as_the_cli_checks_it(depth):
    nl, _ = gen_gcd()
    with pytest.raises(BlockscopeError, match="^group depth must be at least 1$"):
        build_report(nl, group_depth=depth)


def test_structured_document_shape():
    doc = json.loads(render_structured(gcd_report()))
    assert doc["schema"] == SCHEMA
    assert doc["metadata"]["device"] == "virtex7"
    assert doc["metadata"]["block_delay_nets"] is True
    assert [b["block"] for b in doc["area"]["blocks"]] == ["subtract", "swap", "x", "y"]
    assert doc["area"]["unannotated"] is None
    assert doc["area"]["totals"]["weighted_area"] == 12.0
    assert doc["delay"]["global_critical"]["total_ps"] == 126
    assert doc["delay"]["critical_blocks"] == ["subtract", "x", "y"]
    assert doc["power"]["ranking"] == ["subtract", "swap", "x", "y"]
    assert doc["power"]["blocks"][0]["average_uw"] == 476.9


def test_canonical_json_is_a_fixpoint():
    for report in (gcd_report(), gcd_report(metrics=("area",), profile=None)):
        blob = render_structured(report)
        assert canonical_json(json.loads(blob)) == blob


def test_canonical_json_requires_precision_rules():
    assert canonical_json({"alpha": 0.5}) == b'{\n  "alpha": 0.5000\n}\n'
    with pytest.raises(RuntimeError):
        canonical_json({"mystery": 0.5})


def test_float_fields_render_with_fixed_precision():
    blob = render_structured(gcd_report()).decode()
    assert '"average_uw": 476.900' in blob
    assert '"alpha": 0.5000' in blob
    assert '"frequency_hz": 100000000.000' in blob
    assert '"weighted_area": 5.000' in blob


def test_text_rendering_sections_and_marks():
    text = render_text(gcd_report()).decode()
    assert text.startswith(SCHEMA + "\n")
    assert "block-delay-nets: included" in text
    assert "\nAREA\n" in text and "\nDELAY" in text and "\nPOWER" in text
    assert "subtract  *" in text  # critical mark
    assert "\nswap " in text and "swap  *" not in text
    assert "global-critical: 126 ps (101 logic + 25 net)" in text
    assert "critical-path: x__q0 -> subtract__guard" in text
    assert "ranking: subtract swap x y" in text
    assert UNANNOTATED_LABEL not in text  # gcd has no unannotated cells


def test_text_rendering_shows_unannotated_and_unpaired():
    nl = gen_fig6()
    report = build_report(nl, metrics=("area", "delay"))
    text = render_text(report).decode()
    assert UNANNOTATED_LABEL in text
    assert "unpaired-ff: ff_d_a ff_d_b1 ff_d_b2 ff_q_a ff_q_b" in text


def test_area_only_report_on_fully_annotated_netlist_has_no_pseudo_block():
    report = gcd_report(metrics=("area",), profile=None)
    assert UNANNOTATED_LABEL not in render_text(report).decode()
    rows = list(csv.reader(io.StringIO(render_csv(report).decode())))
    assert all(row[1] != UNANNOTATED_LABEL for row in rows[1:])


def test_csv_layout():
    rows = list(csv.reader(io.StringIO(render_csv(gcd_report()).decode())))
    assert rows[0] == CSV_HEADER
    assert all(len(row) == len(CSV_HEADER) for row in rows)
    sections = [(row[0], row[1]) for row in rows[1:]]
    blocks = ["subtract", "swap", "x", "y"]
    assert sections == [("area", b) for b in blocks] + [("delay", b) for b in blocks] + [
        ("power", b) for b in blocks
    ]
    by_key = {(row[0], row[1]): row for row in rows[1:]}
    area_sub = by_key[("area", "subtract")]
    assert area_sub[CSV_HEADER.index("lut4")] == "4"
    assert area_sub[CSV_HEADER.index("weighted_area")] == "5.000"
    assert area_sub[CSV_HEADER.index("p_avg_uw")] == ""  # foreign columns stay empty
    delay_sub = by_key[("delay", "subtract")]
    assert delay_sub[CSV_HEADER.index("critical")] == "*"
    assert delay_sub[CSV_HEADER.index("system_total_ps")] == "126"
    assert delay_sub[CSV_HEADER.index("block_total_ps")] == "116"
    power_sub = by_key[("power", "subtract")]
    assert power_sub[CSV_HEADER.index("alpha")] == "0.5000"
    assert power_sub[CSV_HEADER.index("p_avg_uw")] == "476.900"


def test_formats_agree_on_every_number():
    all_metrics = ("area", "delay", "power")
    reports = [
        gcd_report(),
        build_report(gen_fig6(), metrics=all_metrics),
        build_report(gen_random(42, 20), metrics=all_metrics, profile=gen_random_profile(42),
                     group_depth=1),
    ]

    def entries(doc, section):  # block rows plus the (unannotated) row, if any
        return doc[section]["blocks"] + [e for e in [doc[section]["unannotated"]] if e]

    for report in reports:
        doc = json.loads(render_structured(report))
        rows = list(csv.reader(io.StringIO(render_csv(report).decode())))
        by_key = {(row[0], row[1]): row for row in rows[1:]}
        text = render_text(report).decode()
        for entry in entries(doc, "delay"):
            row = by_key[("delay", entry["block"])]
            assert row[CSV_HEADER.index("system_total_ps")] == str(entry["system"]["total_ps"])
            assert row[CSV_HEADER.index("block_total_ps")] == str(entry["block_delay"]["total_ps"])
        for entry in entries(doc, "power"):
            row = by_key[("power", entry["block"])]
            assert row[CSV_HEADER.index("p_avg_uw")] == f"{entry['average_uw']:.3f}"
            assert f"{entry['average_uw']:.3f}" in text


def test_group_depth_applies_to_all_sections():
    nl = gen_random(42, 20)
    registry = build_registry(nl)
    deep = {str(l) for l in registry.blocks}
    report = build_report(nl, metrics=("area", "delay"), group_depth=1)
    doc = json.loads(render_structured(report))
    got_area = [b["block"] for b in doc["area"]["blocks"]]
    got_delay = [b["block"] for b in doc["delay"]["blocks"]]
    assert got_area == got_delay
    assert all("." not in name for name in got_area)
    assert {name.split(".")[0] for name in deep} == set(got_area)


def test_nodes_only_flag_recorded_and_applied():
    with_nets = gcd_report(metrics=("delay",), profile=None)
    nodes_only = gcd_report(
        metrics=("delay",),
        profile=None,
        include_block_nets=False,
    )
    assert "block-delay-nets: nodes-only" in render_text(nodes_only).decode()
    a = json.loads(render_structured(with_nets))
    b = json.loads(render_structured(nodes_only))
    sub_a = next(x for x in a["delay"]["blocks"] if x["block"] == "subtract")
    sub_b = next(x for x in b["delay"]["blocks"] if x["block"] == "subtract")
    assert sub_a["block_delay"]["total_ps"] == 116
    assert sub_b["block_delay"]["total_ps"] == 101
    assert sub_a["system"] == sub_b["system"]


def test_default_metadata_is_generated():
    nl, _ = gen_gcd()
    report = build_report(nl, metrics=("area",))
    import blockscope

    assert report.metadata.tool_version == blockscope.__version__
    assert report.metadata.device == "virtex7"


def test_header_records_the_settings_build_report_applied():
    nl, profile = gen_gcd()
    report = build_report(nl, metrics=("area", "delay", "power"), profile=profile, group_depth=1,
                          include_block_nets=False, device=resolve_device("spartan6"),
                          netlist_digest="sha256:0a", profile_digest="sha256:0b")
    import blockscope

    assert render_text(report).decode().splitlines()[:7] == [
        SCHEMA,
        f"tool: {blockscope.__version__}",
        "device: spartan6",
        "netlist-digest: sha256:0a",
        "profile-digest: sha256:0b",
        "group-depth: 1",
        "block-delay-nets: nodes-only",
    ]
    assert json.loads(render_structured(report))["metadata"] == {
        "tool": blockscope.__version__,
        "device": "spartan6",
        "netlist_digest": "sha256:0a",
        "profile_digest": "sha256:0b",
        "group_depth": 1,
        "block_delay_nets": False,
    }


@pytest.mark.parametrize("seed", [0, 3])
def test_area_and_power_resolve_each_block_once(seed, monkeypatch):
    """Power scores the area report's counts: one cell lookup per block and
    one for the unannotated cells."""
    calls = []
    real = area.cell_indices
    monkeypatch.setattr(area, "cell_indices", lambda netlist, cells: calls.append(1) or real(netlist, cells))
    nl = gen_random(seed, 40)
    report = build_report(nl, metrics=("area", "power"), profile=gen_random_profile(seed))
    assert len(report.area.per_block) == len(report.power.per_block) > 1
    assert len(calls) == len(build_registry(nl).blocks) + 1


def test_only_delay_builds_the_delay_graph(monkeypatch):
    """An area and power report leaves the delay graph unbuilt; the first
    delay report builds it once, and every later read returns the same record.
    A cyclic netlist builds none: its delay report raises the cycle."""
    builds = []
    real = model._delay_graph
    monkeypatch.setattr(model, "_delay_graph", lambda *args: builds.append(1) or real(*args))
    built, profile = gen_gcd()
    for nl in (built, parse_netlist(serialize_netlist(built))):
        builds.clear()
        build_report(nl, metrics=("area", "power"), profile=profile)
        assert builds == []
        build_report(nl, metrics=("area", "delay", "power"), profile=profile)
        assert len(builds) == 1
        graph = nl.delay_graph()
        build_report(nl, metrics=("delay",))
        assert nl.delay_graph() is graph
        assert len(builds) == 1
    builds.clear()
    src, dst = built.net_src[-1], built.net_dst[-1]
    cyclic = Netlist(built.cells, built.nets + (Net(dst, src, 1),), built.ff_pairs)
    assert cyclic.cycle is not None and src in cyclic.cycle.cells and dst in cyclic.cycle.cells
    build_report(cyclic, metrics=("area", "power"), profile=profile)
    with pytest.raises(ValidationError) as err:
        build_report(cyclic, metrics=("area", "delay"))
    assert err.value.violations == (cyclic.cycle,)
    assert str(err.value) == "combinational cycle through " + ", ".join(cyclic.cycle.cells)
    assert builds == []
