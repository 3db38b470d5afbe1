#!/usr/bin/env python3
"""Pin report digests for the benchmark's correctness check.

    python3 perfbench/pin.py

For every workload and seeds 0..31, runs ``blockscope analyze`` once exactly as
run.py does, requires the report to pass checks.py, and writes its sha256 to
perfbench/digests.json. Report bytes are the behavioural contract, so pin on
a commit whose reports are accepted; run.py then counts any other report for
a pinned seed as failed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib
import json

import checks
import run

SEEDS = range(32)


def main() -> int:
    pins: dict[str, dict[str, str]] = {}
    for name, wl in run.WORKLOADS.items():
        for seed in SEEDS:
            prep = run.prepare(name, seed)
            out = prep.work / "report.out"
            child = run.run_child([sys.executable, "-c", run.ENTRY, *prep.args], prep.work, out,
                                  run.ANALYZE_TIMEOUT_S)
            report = out.read_bytes()
            found = checks.problems(report, wl.fmt, prep.expectation, wl.metrics)
            if child.code != 0 or found:
                print(f"pin: {name} seed {seed}: exit {child.code}; {found[:3]}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = hashlib.sha256(report).hexdigest()
        print(f"pinned {name}: seeds {SEEDS.start}..{SEEDS.stop - 1}", file=sys.stderr)
    (run.HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
