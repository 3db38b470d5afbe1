"""Combined report assembly and the three output renderings."""

import csv
import io
import json

import pytest

from blockscope.annotation import BlockLabel, build_registry
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random, gen_random_profile
from blockscope.model import BlockscopeError
from blockscope.report import (
    CSV_HEADER,
    ReportMetadata,
    SCHEMA,
    UNANNOTATED_LABEL,
    build_report,
    canonical_json,
    parse_structured,
    render_csv,
    render_structured,
    render_text,
)

META = ReportMetadata(tool_version="0.1.0", device="virtex7")


def gcd_report(**kwargs):
    nl, profile = gen_gcd()
    kwargs.setdefault("metrics", ("area", "delay", "power"))
    kwargs.setdefault("profile", profile)
    kwargs.setdefault("metadata", META)
    return build_report(nl, **kwargs)


def test_unknown_metric_rejected():
    nl, _ = gen_gcd()
    with pytest.raises(BlockscopeError):
        build_report(nl, metrics=("area", "speed"))


def test_structured_document_shape():
    doc = parse_structured(render_structured(gcd_report()))
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
    report = build_report(nl, metrics=("area", "delay"), metadata=META)
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
        build_report(gen_fig6(), metrics=all_metrics, metadata=META),
        build_report(gen_random(42, 20), metrics=all_metrics, profile=gen_random_profile(42),
                     group_depth=1, metadata=META),
    ]

    def entries(doc, section):  # block rows plus the (unannotated) row, if any
        return doc[section]["blocks"] + [e for e in [doc[section]["unannotated"]] if e]

    for report in reports:
        doc = parse_structured(render_structured(report))
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
    report = build_report(nl, metrics=("area", "delay"), group_depth=1, metadata=META)
    doc = parse_structured(render_structured(report))
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
        metadata=ReportMetadata("0.1.0", "virtex7", block_delay_nets=False),
    )
    assert "block-delay-nets: nodes-only" in render_text(nodes_only).decode()
    a = parse_structured(render_structured(with_nets))
    b = parse_structured(render_structured(nodes_only))
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
