"""Render combined area/delay/power results as text, CSV, or canonical JSON.

Every renderer is a pure function of the report, so identical inputs give
byte-identical output. Text and CSV render the structured document, so all
three formats agree on every number by construction. The structured form (schema ``blockscope-report v1``)
sorts keys, keeps delays as integer picoseconds, and fixes decimal places
(power 3, alpha 4), which makes render -> json.loads -> render a fixpoint.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from . import __version__
from .annotation import BlockLabel, build_registry, group_to_depth
from .area import RESOURCE_KINDS, AreaReport, BlockArea, area_report
from .delay import BlockDelay, DelayReport, PathResult, delay_report
from .devices import DeviceProfile, resolve_device
from .model import BlockscopeError, Netlist
from .power import ActivityProfile, BlockPower, PowerScore, power_score

SCHEMA = "blockscope-report v1"
UNANNOTATED_LABEL = "(unannotated)"
POWER_BANNER = "power scores are relative within one device profile; do not compare across profiles"
METRICS = ("area", "delay", "power")

#: decimal places per JSON key; any float under another key is a bug.
_FLOAT_PRECISION = {
    "weighted_area": 3,
    "static_uw": 3,
    "dynamic_pj": 3,
    "average_uw": 3,
    "frequency_hz": 3,
    "alpha": 4,
}


def metric_names(names: Iterable[str]) -> tuple[str, ...]:
    """The names in order, once each; a name outside METRICS is an error."""
    chosen = tuple(dict.fromkeys(names))
    for name in chosen:
        if name not in METRICS:
            raise BlockscopeError(f"unknown metric {name!r}; expected {', '.join(METRICS)}")
    return chosen


class ReportMetadata(NamedTuple):
    """The report header, filled by build_report: the version, device name,
    group depth and block-net setting it ran with, and its caller's digests."""

    tool_version: str
    device: str
    netlist_digest: str | None
    profile_digest: str | None
    group_depth: int | None
    block_delay_nets: bool


class CombinedReport(NamedTuple):
    metadata: ReportMetadata
    area: AreaReport | None
    delay: DelayReport | None
    power: PowerScore | None


def build_report(
    netlist: Netlist,
    *,
    metrics: tuple[str, ...] = ("area", "delay"),
    device: DeviceProfile | None = None,
    profile: ActivityProfile | None = None,
    group_depth: int | None = None,
    include_block_nets: bool = True,
    netlist_digest: str | None = None,
    profile_digest: str | None = None,
) -> CombinedReport:
    """Run the requested analyses over one registry so all sections share the
    same block label set; power scores the area report's counts.

    Area weighs with device.weights, power scores with device.power, and the
    header names device.name (None: the built-in virtex7). netlist_digest and
    profile_digest are provenance that the analysis cannot see; they are
    copied into the header unchecked."""
    metrics = metric_names(metrics)
    if device is None:
        device = resolve_device("virtex7")
    registry = build_registry(netlist)
    if group_depth is not None:
        registry = group_to_depth(registry, group_depth)
        if profile is not None:
            profile = profile.truncated(group_depth)
    metadata = ReportMetadata(__version__, device.name, netlist_digest, profile_digest,
                              group_depth, include_block_nets)
    area = None
    if "area" in metrics or "power" in metrics:  # power weighs the area report's counts
        # a power-only report weighs by zeros, so an area it never prints cannot fail it
        weights = device.weights if "area" in metrics else dict.fromkeys(RESOURCE_KINDS, 0)
        area = area_report(netlist, registry, weights)
    delay = (
        delay_report(netlist, registry, include_block_nets=include_block_nets)
        if "delay" in metrics
        else None
    )
    power = power_score(area, device.power, profile) if "power" in metrics else None
    return CombinedReport(metadata, area if "area" in metrics else None, delay, power)


def _labels(report: CombinedReport) -> list[BlockLabel]:
    for section in (report.area, report.delay, report.power):
        if section is not None:
            return sorted(section.per_block, key=str)
    return []


# --- canonical JSON ----------------------------------------------------------


def _fmt_scalar(value, key: str) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if key not in _FLOAT_PRECISION:
            raise RuntimeError(f"internal error: no precision rule for float field {key!r}")
        return f"{value:.{_FLOAT_PRECISION[key]}f}"
    raise RuntimeError(f"internal error: unsupported JSON value {type(value).__name__}")


def _emit(value, key: str, indent: int, out: list[str], dumps: Callable[[str], str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(value.items())
        for i, (k, v) in enumerate(items):
            out.append(f"{pad}  {dumps(k)}: ")
            _emit(v, k, indent + 1, out, dumps)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad + "  ")
            _emit(v, key, indent + 1, out, dumps)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, str):
        out.append(dumps(value))
    else:
        out.append(_fmt_scalar(value, key))


def canonical_json(doc) -> bytes:
    """Sorted keys, two-space indent, fixed decimal places, trailing newline."""
    from json import dumps  # once per document: only structured output needs json

    out: list[str] = []
    _emit(doc, "", 0, out, dumps)
    out.append("\n")
    return "".join(out).encode("utf-8")


# --- structured document -----------------------------------------------------


def _path_doc(result: PathResult) -> dict:
    return {
        "total_ps": result.total_delay,
        "logic_ps": result.logic_delay,
        "network_ps": result.network_delay,
        "path": list(result.path),
    }


def _area_entry(name: str, entry: BlockArea) -> dict:
    return {
        "block": name,
        "counts": dict(entry.counts),
        "weighted_area": float(entry.weighted_area),
        "unpaired_ff": list(entry.unpaired_ff),
    }


def _delay_entry(name: str, entry: BlockDelay) -> dict:
    return {"block": name, "system": _path_doc(entry.system), "block_delay": _path_doc(entry.block)}


def _power_entry(name: str, entry: BlockPower) -> dict:
    return {
        "block": name,
        "static_uw": float(entry.static_uw),
        "dynamic_pj": float(entry.dynamic_pj),
        "alpha": float(entry.alpha),
        "active_cycles": entry.active_cycles,
        "events": entry.events,
        "average_uw": float(entry.average_uw),
        "profiled": entry.profiled,
    }


def report_document(report: CombinedReport) -> dict:
    meta = report.metadata
    doc: dict = {
        "schema": SCHEMA,
        "metadata": {
            "tool": meta.tool_version,
            "device": meta.device,
            "netlist_digest": meta.netlist_digest,
            "profile_digest": meta.profile_digest,
            "group_depth": meta.group_depth,
            "block_delay_nets": meta.block_delay_nets,
        },
        "area": None,
        "delay": None,
        "power": None,
    }
    labels = _labels(report)
    if report.area is not None:
        a = report.area
        doc["area"] = {
            "blocks": [_area_entry(str(l), a.per_block[l]) for l in labels],
            "unannotated": _area_entry(UNANNOTATED_LABEL, a.unannotated)
            if any(a.unannotated.counts.values())
            else None,
            "totals": _area_entry("total", a.totals),
        }
    if report.delay is not None:
        d = report.delay
        doc["delay"] = {
            "blocks": [_delay_entry(str(l), d.per_block[l]) for l in labels],
            "unannotated": _delay_entry(UNANNOTATED_LABEL, d.unannotated)
            if d.unannotated is not None
            else None,
            "global_critical": _path_doc(d.global_critical),
            "critical_blocks": sorted(str(l) for l in d.critical_blocks),
        }
    if report.power is not None:
        p = report.power
        doc["power"] = {
            "note": POWER_BANNER,
            "frequency_hz": float(p.frequency_hz),
            "blocks": [_power_entry(str(l), p.per_block[l]) for l in labels],
            "unannotated": _power_entry(UNANNOTATED_LABEL, p.unannotated)
            if p.unannotated is not None
            else None,
            "ranking": [str(l) for l in p.ranking],
        }
    return doc


def render_structured(report: CombinedReport) -> bytes:
    return canonical_json(report_document(report))


# --- text and csv: renderings of the structured document ---------------------

_POWER_KEYS = ("static_uw", "dynamic_pj", "alpha", "active_cycles", "events", "average_uw")


def _entries(section: dict) -> list[dict]:
    """Block rows, plus the (unannotated) row exactly when the document has one."""
    extra = section["unannotated"]
    return section["blocks"] + ([] if extra is None else [extra])


def _area_cells(entry: dict) -> list[str]:
    return [*(str(entry["counts"][k]) for k in RESOURCE_KINDS),
            _fmt_scalar(entry["weighted_area"], "weighted_area")]


def _delay_cells(entry: dict) -> list[str]:
    return [str(entry[part][key]) for part in ("system", "block_delay")
            for key in ("total_ps", "logic_ps", "network_ps")]


def _power_cells(entry: dict) -> list[str]:
    return [_fmt_scalar(entry[key], key) for key in _POWER_KEYS]


def _table(rows: list[list[str]], right_from: int = 1) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for r in rows:
        cells = [
            r[i].ljust(widths[i]) if i < right_from else r[i].rjust(widths[i])
            for i in range(len(r))
        ]
        out.append("  ".join(cells).rstrip())
    return out


def render_text(report: CombinedReport) -> bytes:
    doc = report_document(report)
    meta = doc["metadata"]
    lines = [
        SCHEMA,
        f"tool: {meta['tool']}",
        f"device: {meta['device']}",
        f"netlist-digest: {meta['netlist_digest'] or '(none)'}",
        f"profile-digest: {meta['profile_digest'] or '(none)'}",
        f"group-depth: {meta['group_depth'] if meta['group_depth'] is not None else '(none)'}",
        f"block-delay-nets: {'included' if meta['block_delay_nets'] else 'nodes-only'}",
    ]

    area = doc["area"]
    if area is not None:
        lines += ["", "AREA"]
        rows = [["block", *[k.lower() for k in RESOURCE_KINDS], "weighted"]]
        rows += [[e["block"], *_area_cells(e)] for e in _entries(area) + [area["totals"]]]
        lines += _table(rows)
        if area["totals"]["unpaired_ff"]:
            lines.append("unpaired-ff: " + " ".join(area["totals"]["unpaired_ff"]))

    delay = doc["delay"]
    if delay is not None:
        lines += ["", "DELAY (* = on global critical path)"]
        critical = set(delay["critical_blocks"])
        rows = [["block", "", "system_ps", "logic", "net", "block_ps", "logic", "net"]]
        rows += [[e["block"], "*" if e["block"] in critical else "", *_delay_cells(e)]
                 for e in _entries(delay)]
        lines += _table(rows, right_from=2)
        g = delay["global_critical"]
        lines.append(f"global-critical: {g['total_ps']} ps "
                     f"({g['logic_ps']} logic + {g['network_ps']} net)")
        lines.append("critical-path: " + (" -> ".join(g["path"]) or "(none)"))
        lines.append("critical-blocks: " + (" ".join(delay["critical_blocks"]) or "(none)"))

    power = doc["power"]
    if power is not None:
        lines += ["", f"POWER ({power['note']})"]
        rows = [["block", "p_s_uw", "p_d_pj", "alpha", "active", "events", "p_avg_uw", "profiled"]]
        rows += [[e["block"], *_power_cells(e), "yes" if e["profiled"] else "no"]
                 for e in _entries(power)]
        lines += _table(rows)
        lines.append("ranking: " + (" ".join(power["ranking"]) or "(none)"))

    return ("\n".join(lines) + "\n").encode("utf-8")


CSV_HEADER = [
    "section",
    "block",
    "critical",
    *[k.lower() for k in RESOURCE_KINDS],
    "weighted_area",
    "system_total_ps",
    "system_logic_ps",
    "system_network_ps",
    "block_total_ps",
    "block_logic_ps",
    "block_network_ps",
    "p_s_uw",
    "p_d_pj",
    "alpha",
    "active_cycles",
    "events",
    "p_avg_uw",
]

# section -> (first CSV column it fills, its cells in column order)
_CSV_SECTIONS = {
    "area": (CSV_HEADER.index(RESOURCE_KINDS[0].lower()), _area_cells),
    "delay": (CSV_HEADER.index("system_total_ps"), _delay_cells),
    "power": (CSV_HEADER.index("p_s_uw"), _power_cells),
}


def render_csv(report: CombinedReport) -> bytes:
    # rows are joined like text lines: no field (section, block label, *, "" or number) needs quoting
    doc = report_document(report)
    lines = [",".join(CSV_HEADER)]
    critical = set(doc["delay"]["critical_blocks"]) if doc["delay"] is not None else set()
    for section, (first, cells) in _CSV_SECTIONS.items():
        if doc[section] is None:
            continue
        for e in _entries(doc[section]):
            row = [""] * len(CSV_HEADER)
            row[0], row[1] = section, e["block"]
            if section == "delay" and e["block"] in critical:
                row[2] = "*"
            values = cells(e)
            row[first:first + len(values)] = values
            lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")
