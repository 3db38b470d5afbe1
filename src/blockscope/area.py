"""Per-block resource counts and weighted area.

Counts are exact integers over resource kinds: LUT1..LUT6, FF, CLK, IN, OUT,
MEM_IN. An FF_D/FF_Q pair listed in ff_pairs counts as one FF resource when
both ports fall in the same partition cell set; an unpaired port (or a pair
split across partitions, which generators never emit) counts as one FF each
and is flagged. Weighted area is the count-weighted sum under a weight table;
the same table drives static power sizing downstream.
"""

from __future__ import annotations

import math
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

#: CellKind -> resource kind name; both FF ports map onto the FF resource.
RESOURCE_OF_KIND: dict[CellKind, str] = {
    kind: ("FF" if kind in (CellKind.FF_D, CellKind.FF_Q) else kind.value) for kind in CellKind
}

DEFAULT_WEIGHTS: dict[str, float] = {
    "LUT1": 1.0,
    "LUT2": 1.0,
    "LUT3": 1.0,
    "LUT4": 1.0,
    "LUT5": 1.0,
    "LUT6": 1.0,
    "FF": 1.0,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}


class AreaError(BlockscopeError):
    pass


class _AreaWeights(NamedTuple):
    weights: Mapping[str, float]


class AreaWeights(_AreaWeights):
    """Non-negative weight per resource kind; unknown kinds are rejected."""

    __slots__ = ()

    def __new__(cls, weights: Mapping[str, float] | None = None) -> "AreaWeights":
        weights = dict(DEFAULT_WEIGHTS) if weights is None else weights
        for kind, w in weights.items():
            if kind not in RESOURCE_KINDS:
                raise AreaError(f"unknown resource kind {kind!r} in weight table")
            if w < 0:
                raise AreaError(f"weight for {kind} must be non-negative")
        return super().__new__(cls, weights)

    def weight(self, kind: str) -> float:
        return float(self.weights.get(kind, DEFAULT_WEIGHTS[kind]))


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
        return {index[cid] for cid in cells}
    except KeyError:
        missing = min(cid for cid in cells if cid not in index)  # not the set's hash order
        raise AreaError(f"registry references unknown cell {missing}") from None


def resource_counts(cells: Iterable[str], netlist: Netlist) -> tuple[dict[str, int], tuple[str, ...]]:
    """Count resource kinds over a cell set; returns (counts, unpaired FF ids).

    The FF_Q of a co-located pair is skipped so the pair counts once at its D
    port.
    """
    counts = {kind: 0 for kind in RESOURCE_KINDS}
    unpaired: list[str] = []
    kinds, partner = netlist.kind, netlist.partner
    members = cell_indices(netlist, cells)
    for i in sorted(members):  # index order is id order
        kind = kinds[i]
        if kind is CellKind.FF_D:
            counts["FF"] += 1
            if partner[i] not in members:
                unpaired.append(netlist.ids[i])
        elif kind is CellKind.FF_Q:
            if partner[i] in members:
                continue  # counted at the D port
            counts["FF"] += 1
            unpaired.append(netlist.ids[i])
        else:
            counts[RESOURCE_OF_KIND[kind]] += 1
    return counts, tuple(unpaired)


def weighted_area(counts: Mapping[str, int], weights: AreaWeights) -> float:
    return sum(counts[kind] * weights.weight(kind) for kind in RESOURCE_KINDS)


def area_report(
    netlist: Netlist, registry: BlockRegistry, weights: AreaWeights | None = None
) -> AreaReport:
    """Per-block counts and weighted area plus a totals row.

    Totals are the kind-by-kind sum of all blocks and the pseudo-block, so
    conservation holds by construction; a mismatch between registry and
    netlist cell ids is an error.
    """
    if weights is None:
        weights = AreaWeights()

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
