#!/usr/bin/env python3
"""blockscope benchmark: ``blockscope analyze`` end to end, and per layer.

    python3 perfbench/run.py --workload hls_blocks --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # every workload in turn

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed. Inputs are generated from ``--seed``
(see workloads.py) and written under ``.bench_build/perfbench/<workload>/``
before any timing starts.

``--trace 0`` measures what a user of the batch CLI sees. Each analysis is a
fresh process started with the console-script entry point, timed from spawn
to exit, with its own peak RSS from ``os.wait4``. Analyses repeat until
``--seconds`` have passed; after each one come a ``blockscope --version``
process and a calibration process, so all three sample the same stretch of
time. Reported, as medians:

* ``analyze_s``    wall seconds of one analyze process
* ``cells_per_s``  netlist cells / analyze_s
* ``peak_rss_mb``  peak resident memory of one analyze process
* ``setup_s``      wall seconds of ``blockscope --version`` (import and
                   argparse cost paid by every invocation)

Both times are scaled to a reference host speed: by CALIBRATION_REF_S over
the median wall time of the calibration process, a fixed program that never
imports blockscope. On a shared 2-CPU VM the host's speed drifted by up to 2x
over minutes, so 30-second medians of raw wall time spread by 13-34% across
runs. The calibration slows down with the host: in paired measurements the
scaled figures spread by 5-21% where raw ones spread by 14-29%, though by 9%
against 4.5% in one calm stretch. The raw medians and the calibration median
are printed and saved next to the scaled ones.

``--trace 1`` runs spans.py in a child process instead: untraced and traced
in-process calls alternate for ``--seconds``, and the per-layer figures are
medians over the traced calls (see spans.py for what each one times).

Every report is checked: its sha256 against digests.json when the seed is
pinned there, and for any seed against checks.py's independent expectations.
A failed check, a nonzero exit or a timeout counts in ``failed``.

Children run with a pinned environment: no PYTHON* or BLOCKSCOPE_* variable
from outside, PYTHONHASHSEED=0, and one bytecode cache under
``.bench_build`` that a warm-up run fills before timing. The record printed
before the result line names nproc, the Python version, the git SHA (when the
checkout is a repository), a digest of ``src/``, the seed and sample counts.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no cache in the benchmark's own directory

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from workloads import Design, chains, layered, profile_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
ENTRY = "import sys; from blockscope.cli import main; sys.exit(main())"  # console script body
# Fixed interpreter work with a working set and access pattern like the
# analysis (string-keyed dict entries, tuple churn), run as a fresh process.
CALIBRATION = """
n = 80000
keys = [f"s{i % 64}.m{i % 7}__n{i}" for i in range(n)]
d = {k: (k, i) for i, k in enumerate(keys)}
for rep in range(2):
    for i in range(n):
        k = keys[(i * 7919 + rep) % n]
        v = d[k]
        d[k] = (v[0], v[1] + 1)
"""
CALIBRATION_REF_S = 0.5  # its median wall time on a quiet 2-CPU Python 3.11 host
VERSION = ("-c", ENTRY, "--version")
CALIBRATE = ("-c", CALIBRATION)
ANALYZE_TIMEOUT_S = 60.0
TRACE_TIMEOUT_EXTRA_S = 100.0


@dataclass(frozen=True)
class Workload:
    """How to build one workload's inputs and analyze them; BENCHMARK.json
    records why each was chosen."""

    build: Callable[[random.Random], Design]
    metrics: tuple[str, ...]
    fmt: str
    profiled: bool
    extra: tuple[str, ...] = ()
    depth: int | None = None


WORKLOADS = {
    "hls_blocks": Workload(
        build=lambda rng: layered(rng, stages=4, modules=4, ops=4, layers=8, width=2, regs=2, ports=2),
        metrics=("area", "delay", "power"),
        fmt="text",
        profiled=True,
    ),
    "deep_paths": Workload(
        build=lambda rng: chains(rng, count=4, length=1700),
        metrics=("delay",),
        fmt="csv",
        profiled=False,
    ),
    "wide_flat": Workload(
        build=lambda rng: layered(rng, stages=2, modules=20, ops=10, layers=2, width=14, regs=7, ports=2),
        metrics=("area", "power"),
        fmt="structured",
        profiled=True,
        extra=("--override-delays",),
        depth=2,
    ),
}


@dataclass(frozen=True)
class Prepared:
    name: str
    seed: int
    work: Path
    args: list[str]
    cells: int
    netlist_bytes: int
    expectation: checks.Expectation
    pinned: str | None


def prepare(name: str, seed: int) -> Prepared:
    """Generate and write the workload's inputs; compute what to expect."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    design = wl.build(rng)
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    netlist = design.netlist_bytes()
    (work / "netlist.bnl").write_bytes(netlist)
    args = ["analyze", "--netlist", "netlist.bnl"]
    if wl.profiled:
        (work / "profile.bpf").write_bytes(profile_bytes(rng, design.labels, 2000, 0.1))
        args += ["--profile", "profile.bpf"]
    args += ["--metrics", ",".join(wl.metrics), "--format", wl.fmt, *wl.extra]
    if wl.depth is not None:
        args += ["--group-depth", str(wl.depth)]
    pins = json.loads((HERE / "digests.json").read_text()) if (HERE / "digests.json").exists() else {}
    return Prepared(
        name, seed, work, args, len(design.cells), len(netlist),
        checks.expect(design, wl.depth), pins.get(name, {}).get(str(seed)),
    )


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BLOCKSCOPE_"))}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
    )
    return env


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv: list[str], cwd: Path, stdout: Path, timeout: float) -> Child:
    """Run one process to completion, killing it after ``timeout`` seconds.

    Wall time runs from just before spawn to reaping; peak RSS comes from
    this child's own rusage, so one large child cannot raise later figures.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, not ready)


class Verifier:
    """Checks report bytes once per distinct digest; keeps the first problems."""

    def __init__(self, prep: Prepared) -> None:
        self.prep = prep
        self.verdicts: dict[str, bool] = {}
        self.problems: list[str] = []

    def ok(self, report: bytes) -> bool:
        digest = hashlib.sha256(report).hexdigest()
        if digest not in self.verdicts:
            wl = WORKLOADS[self.prep.name]
            found = checks.problems(report, wl.fmt, self.prep.expectation, wl.metrics)
            if self.prep.pinned is not None and digest != self.prep.pinned:
                found.insert(0, f"report sha256 {digest} != pinned {self.prep.pinned}")
            self.verdicts[digest] = not found
            self.problems += found[: 5 - len(self.problems)]
        return self.verdicts[digest]


def _fixed_runs(prep: Prepared, args: tuple[str, ...], count: int) -> list[float]:
    """Wall times of ``count`` runs of ``python args``, which must succeed."""
    walls = []
    for _ in range(count):
        child = run_child([sys.executable, *args], prep.work, prep.work / "fixed.out", 30.0)
        if child.code != 0:
            what = "blockscope --version" if args == VERSION else "calibration"
            raise SystemExit(f"perfbench: {what} exited {child.code}")
        walls.append(child.wall_s)
    return walls


def measure(prep: Prepared, seconds: float) -> tuple[dict, dict]:
    """End-to-end run: fresh processes only, tracing off."""
    _fixed_runs(prep, VERSION, 1)  # fills the bytecode cache
    verifier = Verifier(prep)
    walls, rss, setup, failed = [], [], [], 0
    calibration = _fixed_runs(prep, CALIBRATE, 1)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        out = prep.work / "report.out"
        child = run_child([sys.executable, "-c", ENTRY, *prep.args], prep.work, out, ANALYZE_TIMEOUT_S)
        good = child.code == 0 and not child.timed_out and verifier.ok(out.read_bytes())
        if not good and child.code != 0:
            verifier.problems.append(f"exit {child.code}" + (" (timeout)" if child.timed_out else ""))
        failed += not good
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
        setup += _fixed_runs(prep, VERSION, 1)
        calibration += _fixed_runs(prep, CALIBRATE, 1)
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    analyze = statistics.median(walls) * scale
    metrics = {
        "analyze_s": analyze,
        "cells_per_s": prep.cells / analyze,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup) * scale,
    }
    samples = {"analyze_s": len(walls), "cells_per_s": len(walls), "peak_rss_mb": len(rss), "setup_s": len(setup)}
    spread = {
        "analyze_s": (min(walls), max(walls)),
        "peak_rss_mb": (min(rss), max(rss)),
        "setup_s": (min(setup), max(setup)),
    }
    raw = {"analyze_s": statistics.median(walls), "setup_s": statistics.median(setup),
           "calibration_s": statistics.median(calibration)}
    return metrics, {"attempted": len(walls), "failed": failed, "samples": samples,
                     "range": spread, "raw": raw, "calibrations": len(calibration),
                     "problems": verifier.problems}


def measure_traced(prep: Prepared, seconds: float) -> tuple[dict, dict]:
    """Per-layer run: spans.py in one child, tracing on every other call."""
    trace_file = prep.work / f"trace-seed{prep.seed}.json"
    report = prep.work / "traced-report.out"
    argv = [sys.executable, str(HERE / "spans.py"), str(trace_file), str(report),
            str(seconds), str(prep.netlist_bytes), "--", *prep.args]
    child = run_child(argv, prep.work, prep.work / "spans.out", seconds + TRACE_TIMEOUT_EXTRA_S)
    if child.code != 0 or child.timed_out:
        raise SystemExit(f"perfbench: traced run exited {child.code}; see {prep.work / 'spans.err'}")
    doc = json.loads(trace_file.read_text())
    verifier = Verifier(prep)
    first = report.read_bytes()
    good = hashlib.sha256(first).hexdigest() if verifier.ok(first) else None
    failed = sum(code != 0 or digest != good for code, digest in zip(doc["codes"], doc["digests"]))
    metrics: dict[str, float | None] = {}
    for key in doc["runs"][0]:
        values = [run[key] for run in doc["runs"] if run[key] is not None]
        metrics[key] = statistics.median(values) if values else None
    metrics["trace.overhead_frac"] = statistics.median(doc["traced_s"]) / statistics.median(doc["untraced_s"]) - 1
    samples = {key: len(doc["runs"]) for key in metrics}
    return metrics, {"attempted": len(doc["codes"]), "failed": failed, "samples": samples,
                     "missing": doc["missing"], "problems": verifier.problems}


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    prep = prepare(name, seed)
    metrics, info = (measure_traced if trace else measure)(prep, seconds)
    info.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace), cells=prep.cells,
        netlist_bytes=prep.netlist_bytes, digest_pinned=prep.pinned is not None,
        nproc=len(os.sched_getaffinity(0)), python=sys.version.split()[0],
        git_sha=_git_sha(), src_sha256=_src_digest(),
    )
    (prep.work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"metrics": metrics, "info": info}, indent=1)
    )
    return metrics, info


def print_table(metrics: dict, info: dict, units: dict[str, str]) -> None:
    print(f"# {info['workload']}: seed {info['seed']}, {info['seconds']:g} s, trace {info['trace']}, "
          f"{info['cells']} cells, nproc {info['nproc']}, python {info['python']}, "
          f"git {info['git_sha'] or '(none)'}, src {info['src_sha256'][:16]}, "
          f"digest {'pinned' if info['digest_pinned'] else 'not pinned'}")
    if "raw" in info:
        raw = info["raw"]
        print(f"# raw medians: analyze {raw['analyze_s']:.6g} s, setup {raw['setup_s']:.6g} s, "
              f"calibration {raw['calibration_s']:.6g} s (n={info['calibrations']}, "
              f"reference {CALIBRATION_REF_S} s)")
    for problem in info["problems"]:
        print(f"# check failed: {problem}")
    if info.get("missing"):
        print(f"# wrapped names missing: {' '.join(info['missing'])}")
    for key, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if key in info.get("range", {}):
            lo, hi = info["range"][key]
            extra = f"  (raw min {lo:.6g}, max {hi:.6g})"
        print(f"{info['workload']:<11} {key:<31} {shown:>12} {units[key]:<8} n={info['samples'][key]}{extra}")
    frac = info["failed"] / info["attempted"]
    print(f"{info['workload']:<11} {'failed_frac':<31} {frac:>12.6g} {'ratio':<8} n={info['attempted']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blockscope" / "cli.py").is_file():
        print(f"perfbench: no blockscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    names = [args.workload] if args.workload else list(WORKLOADS)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        metrics, info = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if set(metrics) != set(units):
            raise SystemExit(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
        print_table(metrics, info, units)
        attempted += info["attempted"]
        failed += info["failed"]
        for key, value in metrics.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            # a layer that was not called reads null in the table and 0 here
            combined[label] = {"value": 0 if value is None else value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
