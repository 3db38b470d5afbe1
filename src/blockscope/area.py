"""Per-block resource counts and weighted area.

Counts are exact integers over resource kinds: LUT1..LUT6, FF, CLK, IN, OUT,
MEM_IN. An FF_D/FF_Q pair listed in ff_pairs counts as one FF resource when
both ports fall in the same partition cell set; an unpaired port (or a pair
split across partitions, which generators never emit) counts as one FF each
and is flagged. Weighted area is the count-weighted sum under a weight table;
power weighs the same counts by its own tables (``power_score`` takes the report).
A weight table is a plain dict naming every resource kind; ``resolve_device``
builds the built-in one, and ``area_report`` checks it when it weighs.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .annotation import BlockLabel, BlockRegistry
from .model import BlockscopeError, CellKind, Netlist

RESOURCE_KINDS: tuple[str, ...] = (
    "LUT1",
    "LUT2",
    "LUT3",
    "LUT4",
    "LUT5",
    "LUT6",
    "FF",
    "CLK",
    "IN",
    "OUT",
    "MEM_IN",
)

_FF_PORTS = frozenset((CellKind.FF_D, CellKind.FF_Q))

#: CellKind -> resource kind name; both FF ports map onto the FF resource.
RESOURCE_OF_KIND: dict[CellKind, str] = {
    kind: ("FF" if kind in _FF_PORTS else kind.value) for kind in CellKind
}


class AreaError(BlockscopeError):
    pass


def _check_table(table: Mapping[str, float], error: type[BlockscopeError], name: str) -> None:
    """Raise error unless the table maps every resource kind, and no other key,
    to a non-negative int or float that converts to a finite float."""
    what = "weight" if name == "weight" else f"{name} coefficient"
    for kind, value in table.items():
        if kind not in RESOURCE_KINDS:
            raise error(f"unknown resource kind {kind!r} in {name} table")
        if value.__class__ not in (int, float) or not abs(value) <= sys.float_info.max:  # bool, NaN, inf
            raise error(f"{what} for {kind} must be a finite number")
        if value < 0:
            raise error(f"{what} for {kind} must be non-negative")
    missing = set(RESOURCE_KINDS).difference(table)
    if missing:
        raise error(f"{name} table lacks resource kind {min(missing)}")


class BlockArea(NamedTuple):
    counts: dict[str, int]
    weighted_area: float
    unpaired_ff: tuple[str, ...] = ()


class AreaReport(NamedTuple):
    per_block: dict[BlockLabel, BlockArea]
    unannotated: BlockArea
    totals: BlockArea


def cell_indices(netlist: Netlist, cells: Iterable[str]) -> set[int]:
    """The netlist indices of a block's cells. A cell the netlist lacks is an
    AreaError naming the smallest such id."""
    index = netlist.index
    try:
        return set(map(index.__getitem__, cells))
    except KeyError:
        missing = min(cid for cid in cells if cid not in index)  # not the set's hash order
        raise AreaError(f"registry references unknown cell {missing}") from None


def resource_counts(cells: Iterable[str], netlist: Netlist) -> tuple[dict[str, int], tuple[str, ...]]:
    """Count resource kinds over a cell set; returns (counts, unpaired FF ids).

    Every port counts one FF, then the FF_Q of a co-located pair is taken
    back so the pair counts once at its D port.
    """
    members = cell_indices(netlist, cells)
    kinds, partner = netlist.kind, netlist.partner
    counts = dict.fromkeys(RESOURCE_KINDS, 0)
    for kind, n in Counter(map(kinds.__getitem__, members)).items():
        counts[RESOURCE_OF_KIND[kind]] += n
    unpaired: list[str] = []
    if counts["FF"]:
        for i in sorted(i for i in members if kinds[i] in _FF_PORTS):  # index order is id order
            if partner[i] not in members:
                unpaired.append(netlist.ids[i])
            elif kinds[i] is CellKind.FF_Q:
                counts["FF"] -= 1  # counted at the D port
    return counts, tuple(unpaired)


def weighted_area(counts: Mapping[str, int], table: Mapping[str, float]) -> float:
    """The counts weighed by one per-kind table: area weights, static or dynamic power."""
    return sum(counts[kind] * float(table[kind]) for kind in RESOURCE_KINDS)


def area_report(netlist: Netlist, registry: BlockRegistry, weights: Mapping[str, float]) -> AreaReport:
    """Per-block counts and weighted area plus a totals row.

    Totals are the kind-by-kind sum of all blocks and the pseudo-block, so
    conservation holds by construction. A registry cell the netlist lacks, or
    a weight table that misses a kind or holds a bad weight, is an error.
    """
    _check_table(weights, AreaError, "weight")
    def finite(area: float, name: str) -> float:
        if not math.isfinite(area):
            raise AreaError(f"weighted area of {name} overflows; lower the area weights")
        return area

    def block_area(cells: frozenset[str], name: str) -> BlockArea:
        counts, unpaired = resource_counts(cells, netlist)
        return BlockArea(counts, finite(weighted_area(counts, weights), name), unpaired)

    per_block = {
        label: block_area(cells, f"block {label}") for label, cells in registry.blocks.items()
    }
    unannotated = block_area(registry.unannotated, "the unannotated cells")
    total_counts = {kind: 0 for kind in RESOURCE_KINDS}
    total_unpaired: list[str] = []
    for ba in list(per_block.values()) + [unannotated]:
        for kind in RESOURCE_KINDS:
            total_counts[kind] += ba.counts[kind]
        total_unpaired.extend(ba.unpaired_ff)
    totals = BlockArea(
        total_counts,
        finite(weighted_area(total_counts, weights), "the totals"),
        tuple(sorted(total_unpaired)),
    )
    return AreaReport(per_block, unannotated, totals)
