"""Check delay_report against the reference pipeline past tier-1's size.

Two designs of over 20,000 cells, each with block nets counted and not:
twelve LUT chains 1,700 deep (20,424 cells: the deep_paths shape, three times
as wide) and a 128-block layered pipeline (21,184 cells). The reference keeps
every node's whole best suffix as a tuple, so on 2 CPUs with Python 3.11 the
run takes ~1.5 minutes and ~330 MB; tier-1's at-scale test stops at 6,808
cells to stay fast. Exits 1, naming each design and setting whose reports
differ. It is not a test_* file, so pytest does not collect it:

    PYTHONPATH=src python tests/reference_at_scale.py
"""

import sys

from blockscope.annotation import build_registry
from blockscope.delay import delay_report

from oracles import reference_delay_report
from test_delay import _chains, _layered

DESIGNS = {
    "chains": lambda: _chains(3, count=12),
    "layered": lambda: _layered(5, stages=4, modules=8, ops=4, layers=13),
}

different = []
for name, build in DESIGNS.items():
    netlist = build()
    if len(netlist.cell_id) < 20_000:
        sys.exit(f"{name} has only {len(netlist.cell_id)} cells")
    registry = build_registry(netlist)
    for include_nets in (True, False):
        got = delay_report(netlist, registry, include_block_nets=include_nets)
        same = got == reference_delay_report(netlist, registry, include_block_nets=include_nets)
        setting = f"{name}, {len(netlist.cell_id)} cells, block nets {'on' if include_nets else 'off'}"
        print(f"{setting}: {'equal' if same else 'DIFFERENT'}", flush=True)
        if not same:
            different.append(setting)
if different:
    sys.exit("reports differ from the reference: " + "; ".join(different))
