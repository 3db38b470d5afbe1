"""An independent check of every delay a structured report prints.

It shares no code with blockscope. It parses the netlist text itself, keyed by
cell id strings, and reads the ``--format structured`` report's JSON. Then it
checks the following:

* every printed path (global, system, block and ``(unannotated)``) is a real
  net sequence from a source-kind cell to a sink-kind cell, and a row's paths
  cross the row's cells; a path is empty only when none of them lies on a
  complete path;
* each path's logic and net parts, recomputed under its weighting, give the
  printed ``logic_ps``, ``network_ps`` and ``total_ps``;
* ``global_critical`` is the longest complete path, found by one prefix and
  suffix pass, and ``critical_blocks`` holds the labels on it;
* the rows are the netlist's labels at the report's group depth, plus
  ``(unannotated)`` exactly when some cell has no label;
* each row's ``system_ps`` is the largest prefix plus suffix over its cells;
* each row's ``block_ps`` lies between the block weight of its own system path
  and ``system_ps``, and equals the exact value of a per-row DP: over the
  row's live cells (those on some complete path), the heaviest path into
  them and out of them. Cells outside the row weigh 0 there, and a net counts
  only between two row cells, and not at all in a nodes-only run.

Which of several equally heavy paths a row prints, the tie-break, is not
checked; the brute-force oracle and the reference differentials keep that.

Run as a script, it builds a layered design of over 100,000 cells from the
tests' own generator, runs ``blockscope analyze --format structured`` on it at
full depth, at ``--group-depth 1`` and nodes-only, and checks each report.
It exits 1 and names every problem it finds:

    PYTHONPATH=src python tests/report_check.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

SOURCE_KINDS = frozenset({"CLK", "IN", "FF_Q"})
SINK_KINDS = frozenset({"FF_D", "MEM_IN", "OUT"})
UNANNOTATED = "(unannotated)"


class Design:
    """A netlist read from its text: kinds, logic delays, and the largest delay
    of the nets between each ordered pair of cells, both ways; then each
    cell's heaviest prefix from a source and suffix to a sink, every cell and
    net weighing, or -1 where there is none."""

    def __init__(self, text: str) -> None:
        self.kind: dict[str, str] = {}
        self.logic: dict[str, int] = {}
        self.succ: dict[str, dict[str, int]] = {}
        self.pred: dict[str, dict[str, int]] = {}
        for raw in text.splitlines():
            tokens = raw.partition("#")[0].split()
            if tokens and tokens[0] == "cell":
                _, cid, kind, delay = tokens
                self.kind[cid], self.logic[cid] = kind, int(delay)
                self.succ[cid], self.pred[cid] = {}, {}
        for raw in text.splitlines():
            tokens = raw.partition("#")[0].split()
            if tokens and tokens[0] == "net":
                _, src, _, dst, delay = tokens
                d = max(int(delay), self.succ[src].get(dst, 0))
                self.succ[src][dst] = self.pred[dst][src] = d
        self.order = self._order()
        self.rank = {cid: r for r, cid in enumerate(self.order)}
        self.prefix = self._sweep(self.order, self.pred, SOURCE_KINDS)
        self.suffix = self._sweep(self.order[::-1], self.succ, SINK_KINDS)
        self.through = {
            c: self.prefix[c] + self.suffix[c] - self.logic[c]
            for c in self.order if self.prefix[c] >= 0 and self.suffix[c] >= 0
        }

    def _order(self) -> list[str]:
        left = {cid: len(p) for cid, p in self.pred.items()}
        order = [cid for cid, n in left.items() if n == 0]
        for cid in order:
            for j in self.succ[cid]:
                left[j] -= 1
                if left[j] == 0:
                    order.append(j)
        if len(order) != len(left):
            raise ValueError("the netlist has a cycle")
        return order

    def _sweep(self, order, back, ends) -> dict[str, int]:
        """The heaviest weight of a path from an end cell to each cell, both
        included, walking order over the back edges; -1 where none runs."""
        best: dict[str, int] = {}
        for c in order:
            if self.kind[c] in ends:
                best[c] = self.logic[c]
                continue
            w = max((best[p] + d for p, d in back[c].items() if best[p] >= 0), default=-1)
            best[c] = self.logic[c] + w if w >= 0 else -1
        return best

    def weigh(self, path, cells, nets) -> tuple[int, int]:
        """The logic and net parts of a path; only cells and the nets between
        cells in cells count unless cells is None, and no net does without nets."""
        inside = (lambda c: True) if cells is None else cells.__contains__
        logic = sum(self.logic[c] for c in path if inside(c))
        network = sum(self.succ[a][b] for a, b in zip(path, path[1:]) if nets and inside(a) and inside(b))
        return logic, network

    def block_ps(self, cells: set[str], nets: bool) -> int:
        """The heaviest block weight of a complete path through cells: over the
        live cells, the heaviest way in plus the heaviest way out.

        Only the cells between two live cells of the row are swept, those
        reached from one that reach one. A way into any other cell crosses no
        cell of the row, so it weighs 0 and so does its last net, and the same
        holds for a way out; either is a complete path's part, so 0 is met."""
        live = [c for c in cells if c in self.through]
        down = _reach(live, self.succ, self.through)
        order = sorted(_reach(live, self.pred, down), key=self.rank.__getitem__)
        into = self._block_sweep(order, cells, nets, self.pred)
        out = self._block_sweep(order[::-1], cells, nets, self.succ)
        return max((into[c] + out[c] - self.logic[c] for c in live), default=0)

    def _block_sweep(self, order, cells, nets, back) -> dict[str, int]:
        """Heaviest block weight of a way to each cell of order from an end,
        over the back edges between cells of order, which it takes in turn."""
        best: dict[str, int] = {}
        for c in order:
            inside = c in cells
            best[c] = (self.logic[c] if inside else 0) + max(
                (w + (d if nets and inside and p in cells else 0)
                 for p, d in back[c].items() if (w := best.get(p)) is not None),
                default=0,
            )
        return best


def _reach(starts, adj, keep) -> set[str]:
    """Every cell reachable from starts along adj through cells in keep, starts included."""
    seen, stack = set(starts), list(starts)
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen and j in keep:
                seen.add(j)
                stack.append(j)
    return seen


def _label(cid: str, depth: int | None) -> str | None:
    prefix, sep, _ = cid.partition("__")
    if not sep:
        return None
    return prefix if depth is None else ".".join(prefix.split(".")[:depth])


def check_report(design: Design, report_json: str | bytes) -> list[str]:
    """Every problem found with the delay section of a structured report of
    the design; an empty list means each printed delay checked out."""
    doc = json.loads(report_json)
    meta, delay = doc["metadata"], doc["delay"]
    nets, depth = meta["block_delay_nets"], meta["group_depth"]
    problems: list[str] = []

    def check_path(where: str, entry: dict, cells: set[str] | None, block_weights: bool) -> bool:
        """Whether the entry's path is a real net sequence, noting each problem;
        cells are the row's, or None for the whole netlist."""
        path = entry["path"]
        if any(c not in design.kind for c in path):
            problems.append(f"{where}: path names an unknown cell")
            return False
        if any(b not in design.succ[a] for a, b in zip(path, path[1:])):
            problems.append(f"{where}: path steps along a net the netlist does not have")
            return False
        if not path:
            if design.through if cells is None else design.through.keys() & cells:
                problems.append(f"{where}: empty path, yet a complete path crosses its cells")
        elif design.kind[path[0]] not in SOURCE_KINDS or design.kind[path[-1]] not in SINK_KINDS:
            problems.append(f"{where}: path does not run from a source-kind to a sink-kind cell")
        elif cells is not None and cells.isdisjoint(path):
            problems.append(f"{where}: path crosses none of the row's cells")
        logic, network = design.weigh(path, cells, nets) if block_weights else design.weigh(path, None, True)
        got = (entry["logic_ps"], entry["network_ps"], entry["total_ps"])
        if got != (logic, network, logic + network):
            problems.append(f"{where}: printed logic, net and total {got}, "
                            f"recomputed {(logic, network, logic + network)}")
        return True

    critical = delay["global_critical"]
    check_path("global_critical", critical, None, False)
    longest = max(design.through.values(), default=0)
    if critical["total_ps"] != longest:
        problems.append(f"global_critical: printed {critical['total_ps']} ps, longest complete path {longest} ps")
    on_path = {_label(c, depth) for c in critical["path"] if c in design.kind} - {None}
    if sorted(delay["critical_blocks"]) != sorted(on_path):
        problems.append(f"critical_blocks: printed {delay['critical_blocks']}, labels on the path {sorted(on_path)}")

    rows: dict[str, set[str]] = {}
    for cid in design.kind:
        label = _label(cid, depth)
        rows.setdefault(UNANNOTATED if label is None else label, set()).add(cid)
    entries = delay["blocks"] + ([delay["unannotated"]] if delay["unannotated"] is not None else [])
    printed = [e["block"] for e in entries]
    if sorted(printed) != sorted(rows) or len(set(printed)) != len(printed):
        problems.append(f"rows: printed {len(printed)} rows, the netlist has {len(rows)} labels")
    for entry in entries:
        where, cells = entry["block"], rows.get(entry["block"], set())
        system, block = entry["system"], entry["block_delay"]
        real = check_path(f"{where} system", system, cells, False)
        check_path(f"{where} block", block, cells, True)
        want = max((design.through[c] for c in cells if c in design.through), default=0)
        if system["total_ps"] != want:
            problems.append(f"{where} system: printed {system['total_ps']} ps, largest through a cell {want} ps")
        low = sum(design.weigh(system["path"], cells, nets)) if real else 0
        if not low <= block["total_ps"] <= system["total_ps"]:
            problems.append(f"{where} block: printed {block['total_ps']} ps, outside [{low}, {system['total_ps']}]")
        exact = design.block_ps(cells, nets)
        if block["total_ps"] != exact:
            problems.append(f"{where} block: printed {block['total_ps']} ps, exact block weight {exact} ps")
    return problems


def main() -> int:
    from blockscope.formats import serialize_netlist
    from test_delay import _layered

    netlist = _layered(11, stages=8, modules=8, ops=8, layers=12, width=16)
    if len(netlist.cell_id) < 100_000:
        sys.exit(f"the design has only {len(netlist.cell_id)} cells")
    text = serialize_netlist(netlist).decode()
    design = Design(text)
    settings = {"full depth": [], "group depth 1": ["--group-depth", "1"],
                "nodes-only": ["--block-delay-nodes-only"]}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "design.bnl")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        for name, flags in settings.items():
            start = time.perf_counter()
            run = subprocess.run(
                [sys.executable, "-m", "blockscope.cli", "analyze", "--netlist", path,
                 "--metrics", "delay", "--format", "structured", *flags],
                capture_output=True,
            )
            problems = (check_report(design, run.stdout) if run.returncode == 0 else
                        [f"analyze exited {run.returncode}: {run.stderr.decode(errors='replace').strip()}"])
            seconds = time.perf_counter() - start
            print(f"{len(netlist.cell_id)} cells, {name}: "
                  f"{'ok' if not problems else f'{len(problems)} problems'} ({seconds:.1f} s)", flush=True)
            for problem in problems[:20]:
                print(f"  {problem}", flush=True)
            if problems:
                failed.append(name)
    if failed:
        print("reports with problems: " + "; ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
