"""Traced in-process run of ``blockscope analyze``: per-layer spans.

Run as a child process with the benchmark's pinned environment::

    python3 perfbench/spans.py OUT.json REPORT.out SECONDS NETLIST_BYTES -- ANALYZE-ARGS...

It alternates an untraced and a traced call of ``blockscope.cli.main`` until
SECONDS have passed (at least one pair). For the traced call it replaces each
layer's public function on the module attribute the program looks it up
through (``blockscope.report.delay_report``, ``blockscope.delay.expand_paths``,
``blockscope.formats.validate`` ...), because the modules bind these names at
import. Each wrapper appends a span (name, start, end, parent) to a list in
memory; spans are written to OUT.json at the end together with the per-layer
metrics of every traced call. A layer that was not called has null metrics;
a wrapped name that no longer exists is also listed under "missing". The first report is written to
REPORT.out and the sha256 of every report to OUT.json, so the caller can
check every output.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

# (span name, module the program looks the name up in, attribute path there)
TARGETS = (
    ("cli.main", "blockscope.cli", "main"),
    ("formats.parse_netlist", "blockscope.cli", "parse_netlist"),
    ("formats.parse_profile", "blockscope.cli", "parse_profile"),
    ("model.validate", "blockscope.formats", "validate"),
    ("model.topological_order", "blockscope.delay", "topological_order"),
    ("devices.apply_delays", "blockscope.devices", "DeviceProfile.apply_delays"),
    ("report.build_report", "blockscope.cli", "build_report"),
    ("annotation.build_registry", "blockscope.report", "build_registry"),
    ("annotation.group_to_depth", "blockscope.report", "group_to_depth"),
    ("area.area_report", "blockscope.report", "area_report"),
    ("power.power_score", "blockscope.report", "power_score"),
    ("delay.delay_report", "blockscope.report", "delay_report"),
    ("delay.expand_paths", "blockscope.delay", "expand_paths"),
    ("delay.longest_path", "blockscope.delay", "longest_path"),
    ("report.render", "blockscope.cli", "_RENDERERS"),  # format name -> renderer
)


def _seeds(name: str, args: tuple, kwargs: dict) -> frozenset | None:
    """The seed cell set a delay-layer call works for; None for the global
    critical path, which expand_paths gets as every cell of the netlist."""
    if name == "delay.expand_paths":
        netlist, seeds = args[0], args[1] if len(args) > 1 else kwargs.get("seeds")
        return None if len(seeds) == len(netlist.cells) else frozenset(seeds)
    cells = args[1] if len(args) > 1 else kwargs.get("block_cells")
    return None if cells is None else frozenset(cells)


class Tracer:
    """Span list plus the wrappers that fill it; install() and uninstall()
    swap the wrappers in and out of the program's modules."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if name in ("delay.expand_paths", "delay.longest_path"):
                span["seeds"] = _seeds(name, args, kwargs)
            if name == "delay.expand_paths":
                span["nodes"] = len(result.nodes)
            return result

        return traced

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            holder = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    holder = getattr(holder, part)
                original = getattr(holder, attr)
            except AttributeError:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            if isinstance(original, dict):
                self._saved.append((original, "", dict(original)))
                for key, fn in original.items():
                    original[key] = self._wrap(name, fn)
            else:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            if attr:
                setattr(holder, attr, original)
            else:
                holder.update(original)
        self._saved.clear()


def layer_metrics(spans: list[dict], netlist_bytes: int) -> dict:
    """Per-layer figures for one traced call; null where a layer was not
    called, which includes a wrapped name that no longer exists."""
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        took = span["end"] - span["start"]
        inclusive[span["name"]] = inclusive.get(span["name"], 0.0) + took
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        if span["parent"] is not None:
            child_time[span["parent"]] += took
    parse_self = sum(
        s["end"] - s["start"] - child_time[i]
        for i, s in enumerate(spans)
        if s["name"] == "formats.parse_netlist"
    )
    per_block: dict[frozenset, float] = {}
    global_s = 0.0
    cone_nodes = 0
    for span in spans:
        if "seeds" not in span:
            continue
        took = span["end"] - span["start"]
        if span["seeds"] is None:
            global_s += took
        else:
            per_block[span["seeds"]] = per_block.get(span["seeds"], 0.0) + took
        cone_nodes += span.get("nodes", 0)
    blocks_ms = sorted(1000.0 * t for t in per_block.values())
    parse_s = inclusive.get("formats.parse_netlist")
    delay_called = "delay.expand_paths" in calls and "delay.longest_path" in calls
    # .get() gives None for a layer without spans: not called, or not found
    return {
        "formats.parse_netlist_s": None if parse_s is None else parse_self,
        "formats.netlist_mb_per_s": netlist_bytes / 1e6 / parse_s if parse_s else None,
        "formats.parse_profile_s": inclusive.get("formats.parse_profile"),
        "model.validate_s": inclusive.get("model.validate"),
        "model.topological_order_calls": calls.get("model.topological_order"),
        "model.topological_order_s": inclusive.get("model.topological_order"),
        "annotation.build_registry_s": inclusive.get("annotation.build_registry"),
        "annotation.group_to_depth_s": inclusive.get("annotation.group_to_depth"),
        "devices.apply_delays_s": inclusive.get("devices.apply_delays"),
        "area.area_report_s": inclusive.get("area.area_report"),
        "power.power_score_s": inclusive.get("power.power_score"),
        "delay.delay_report_s": inclusive.get("delay.delay_report"),
        "delay.expand_paths_s": inclusive.get("delay.expand_paths"),
        "delay.global_critical_s": global_s if delay_called else None,
        "delay.expand_paths_calls": calls.get("delay.expand_paths"),
        "delay.cone_nodes": cone_nodes if "delay.expand_paths" in calls else None,
        "delay.longest_path_calls": calls.get("delay.longest_path"),
        "delay.longest_path_s": inclusive.get("delay.longest_path"),
        "delay.block_p50_ms": statistics.median(blocks_ms) if blocks_ms else None,
        "delay.block_max_ms": blocks_ms[-1] if blocks_ms else None,
        "report.build_report_s": inclusive.get("report.build_report"),
        "report.render_s": inclusive.get("report.render"),
        "cli.main_s": inclusive.get("cli.main"),
    }


def _call_main(argv: list[str]) -> tuple[int, bytes]:
    from blockscope import cli

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved, sys.stdout = sys.stdout, out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = saved
    out.flush()
    return code, out.buffer.getvalue()


def main(argv: list[str]) -> int:
    out_path, report_path, seconds, netlist_bytes, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py OUT.json REPORT.out SECONDS NETLIST_BYTES -- ARGS...")
    runs: list[dict] = []
    untraced: list[float] = []
    traced: list[float] = []
    digests: list[str] = []
    codes: list[int] = []
    spans_out: list[list] = []
    importlib.import_module("blockscope.cli")  # keep import time out of the first call
    tracer = Tracer()
    first_report = None
    deadline = time.perf_counter() + float(seconds)
    while not runs or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        code, report = _call_main(cli_args)
        untraced.append(time.perf_counter() - t0)
        codes.append(code)
        digests.append(hashlib.sha256(report).hexdigest())
        if first_report is None:
            first_report = report

        tracer.spans.clear()
        tracer.install()
        t0 = time.perf_counter()
        try:
            code, report = _call_main(cli_args)
        finally:
            traced.append(time.perf_counter() - t0)
            tracer.uninstall()
        codes.append(code)
        digests.append(hashlib.sha256(report).hexdigest())
        runs.append(layer_metrics(tracer.spans, int(netlist_bytes)))
        base = tracer.spans[0]["start"] if tracer.spans else 0.0
        spans_out.append(
            [[s["name"], s["start"] - base, s["end"] - base, s["parent"]] for s in tracer.spans]
        )
    Path(report_path).write_bytes(first_report or b"")
    result = {
        "runs": runs,
        "untraced_s": untraced,
        "traced_s": traced,
        "codes": codes,
        "digests": digests,
        "missing": tracer.missing,
        "spans": spans_out,  # per traced call: [name, start_s, end_s, parent index]
    }
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
