"""Independent expectations for a generated design, and report checks.

The benchmark never asks blockscope what the right answer is. From the
generated design it computes, in O(V+E):

* the global critical path weight (longest source-to-sink path, node logic
  delays plus net delays);
* every block's system delay, as the best path through any of its cells:
  max over cells c of arrival(c) + required(c) - logic(c);
* per-kind area totals, where an FF_D/FF_Q pair counts as one FF when both
  ports fall in the same (grouped) block.

A report passes when it shows exactly these numbers, lists exactly the
expected block rows, and every row satisfies block_ps <= system_ps <=
global-critical.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass

from workloads import Design

SOURCE_KINDS = frozenset({"CLK", "IN", "FF_Q"})
SINK_KINDS = frozenset({"FF_D", "MEM_IN", "OUT"})
UNANNOTATED = "(unannotated)"
RESOURCE_KINDS = ("LUT1", "LUT2", "LUT3", "LUT4", "LUT5", "LUT6", "FF", "CLK", "IN", "OUT", "MEM_IN")


def block_of(cid: str, depth: int | None) -> str | None:
    pos = cid.find("__")
    if pos < 0:
        return None
    segments = cid[:pos].split(".")
    return ".".join(segments[:depth] if depth else segments)


@dataclass(frozen=True)
class Expectation:
    rows: tuple[str, ...]  # block rows in report order, unannotated last
    area: dict[str, int]
    system: dict[str, int]
    global_ps: int


def expect(design: Design, depth: int | None) -> Expectation:
    block = {cid: block_of(cid, depth) for cid, _, _ in design.cells}
    labels = sorted({b for b in block.values() if b is not None})
    rows = tuple(labels) + ((UNANNOTATED,) if None in block.values() else ())
    return Expectation(rows, _area(design, block), *_delays(design, block))


def _area(design: Design, block: dict[str, str | None]) -> dict[str, int]:
    counts = dict.fromkeys(RESOURCE_KINDS, 0)
    for _, kind, _ in design.cells:
        counts["FF" if kind in ("FF_D", "FF_Q") else kind] += 1
    counts["FF"] -= sum(1 for d, q in design.pairs if block[d] == block[q])
    return counts


def _delays(design: Design, block: dict[str, str | None]) -> tuple[dict[str, int], int]:
    kind = {cid: k for cid, k, _ in design.cells}
    logic = {cid: d for cid, _, d in design.cells}
    succ: dict[str, list[tuple[str, int]]] = {cid: [] for cid in kind}
    indeg = dict.fromkeys(kind, 0)
    for src, dst, w in design.nets:
        succ[src].append((dst, w))
        indeg[dst] += 1
    order = []
    ready = deque(cid for cid, n in indeg.items() if n == 0)
    while ready:
        cid = ready.popleft()
        order.append(cid)
        for dst, _ in succ[cid]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    if len(order) != len(kind):
        raise ValueError("generated design has a cycle")
    # arrival: best source-to-c weight including c; required: best c-to-sink.
    arrival: dict[str, int] = {cid: logic[cid] for cid in kind if kind[cid] in SOURCE_KINDS}
    for cid in order:
        if cid in arrival:
            for dst, w in succ[cid]:
                cand = arrival[cid] + w + logic[dst]
                if kind[dst] not in SOURCE_KINDS and cand > arrival.get(dst, -1):
                    arrival[dst] = cand
    required: dict[str, int] = {}
    for cid in reversed(order):
        if kind[cid] in SINK_KINDS:
            required[cid] = logic[cid]
            continue
        best = max((w + required[dst] for dst, w in succ[cid] if dst in required), default=None)
        if best is not None:
            required[cid] = logic[cid] + best
    system: dict[str, int] = {}
    for cid in kind:
        if cid in arrival and cid in required:
            name = block[cid] or UNANNOTATED
            through = arrival[cid] + required[cid] - logic[cid]
            if through > system.get(name, 0):
                system[name] = through
    return system, max(system.values(), default=0)


# --- report parsing ------------------------------------------------------------


@dataclass
class Parsed:
    area_rows: list[str] | None = None
    area_totals: dict[str, int] | None = None
    delay_rows: dict[str, tuple[int, int]] | None = None  # name -> (system, block)
    global_ps: int | None = None


def parse_text(text: str) -> Parsed:
    out = Parsed()
    section = None
    for line in text.splitlines():
        if line in ("AREA", "DELAY (* = on global critical path)") or line.startswith("POWER ("):
            section = line.split()[0]
            continue
        tokens = line.split()
        if not tokens or tokens[0] == "block":
            continue
        if section == "AREA" and len(tokens) == 2 + len(RESOURCE_KINDS):
            if tokens[0] == "total":
                out.area_totals = dict(zip(RESOURCE_KINDS, map(int, tokens[1:-1])))
            else:
                out.area_rows = (out.area_rows or []) + [tokens[0]]
        elif section == "DELAY" and tokens[0] == "global-critical:":
            out.global_ps = int(tokens[1])
        elif section == "DELAY" and len(tokens) in (7, 8):
            nums = tokens[-6:]
            out.delay_rows = out.delay_rows or {}
            out.delay_rows[tokens[0]] = (int(nums[0]), int(nums[3]))
    return out


def parse_csv(text: str) -> Parsed:
    out = Parsed()
    rows = list(csv.reader(io.StringIO(text)))
    col = {name: i for i, name in enumerate(rows[0])}
    for row in rows[1:]:
        if row[0] == "area":
            out.area_rows = (out.area_rows or []) + [row[1]]
        elif row[0] == "delay":
            out.delay_rows = out.delay_rows or {}
            out.delay_rows[row[1]] = (int(row[col["system_total_ps"]]), int(row[col["block_total_ps"]]))
    return out


def parse_structured(text: str) -> Parsed:
    doc = json.loads(text)
    out = Parsed()
    if doc["area"] is not None:
        out.area_rows = [b["block"] for b in doc["area"]["blocks"]]
        out.area_totals = {k: doc["area"]["totals"]["counts"][k] for k in RESOURCE_KINDS}
    if doc["delay"] is not None:
        d = doc["delay"]
        entries = d["blocks"] + ([d["unannotated"]] if d["unannotated"] else [])
        out.delay_rows = {
            e["block"]: (e["system"]["total_ps"], e["block_delay"]["total_ps"]) for e in entries
        }
        out.global_ps = d["global_critical"]["total_ps"]
    return out


PARSERS = {"text": parse_text, "csv": parse_csv, "structured": parse_structured}


def problems(report: bytes, fmt: str, want: Expectation, metrics: tuple[str, ...]) -> list[str]:
    """Every way the report disagrees with the independent expectation."""
    try:
        got = PARSERS[fmt](report.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report does not parse as {fmt}: {exc!r}"]
    out: list[str] = []
    totals_shown = fmt != "csv"  # CSV has neither an area totals row nor a global line
    if "area" in metrics:
        rows = [r for r in got.area_rows or [] if r != UNANNOTATED]
        labels = [r for r in want.rows if r != UNANNOTATED]
        if rows != labels:
            out.append(f"area rows differ: {len(rows)} rows, expected {len(labels)}")
        if totals_shown and got.area_totals != want.area:
            out.append(f"area totals {got.area_totals} != expected {want.area}")
    if "delay" in metrics:
        delay_rows = got.delay_rows or {}
        if list(delay_rows) != list(want.rows):
            out.append(f"delay rows differ: {len(delay_rows)} rows, expected {len(want.rows)}")
        if totals_shown and got.global_ps != want.global_ps:
            out.append(f"global-critical {got.global_ps} != expected {want.global_ps}")
        for name, (system_ps, block_ps) in delay_rows.items():
            if system_ps != want.system.get(name, 0):
                out.append(f"{name}: system_ps {system_ps} != expected {want.system.get(name, 0)}")
            if not block_ps <= system_ps <= want.global_ps:
                out.append(f"{name}: block_ps {block_ps} <= system_ps {system_ps} <= global fails")
    return out
