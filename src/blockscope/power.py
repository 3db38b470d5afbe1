"""Relative per-block power scores: P_avg = P_s + P_D * alpha * f.

Units are reconciled as P_avg[uW] = P_s[uW] + P_D[pJ] * alpha * f[Hz] * 1e-6.
alpha is the fraction of profiled cycles in which a block is active: it fires
one of its own rules in that cycle, or in the previous cycle some rule wrote a
state the block reads. A cycle counts once no matter how many causes hit it,
so alpha is always within [0, 1]; the raw event count keeps the multiplicity.

Scores rank blocks under one device profile; they are not comparable across
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .annotation import BlockLabel, BlockRegistry
from .area import RESOURCE_KINDS, resource_counts
from .model import BlockscopeError, Netlist

DEFAULT_STATIC_UW: dict[str, float] = {
    "LUT1": 0.1,
    "LUT2": 0.2,
    "LUT3": 0.3,
    "LUT4": 0.4,
    "LUT5": 0.5,
    "LUT6": 0.6,
    "FF": 0.2,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}

DEFAULT_DYNAMIC_PJ: dict[str, float] = {
    "LUT1": 0.5,
    "LUT2": 1.0,
    "LUT3": 1.5,
    "LUT4": 2.0,
    "LUT5": 2.5,
    "LUT6": 3.0,
    "FF": 1.0,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}

DEFAULT_FREQUENCY_HZ = 100_000_000.0


class PowerError(BlockscopeError):
    pass


@dataclass(frozen=True)
class PowerModel:
    """Static uW and dynamic pJ per resource kind, plus the clock frequency.

    Coefficients are configuration, not silicon ground truth; they make
    blocks comparable under one device profile.
    """

    static_uw: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_STATIC_UW))
    dynamic_pj: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DYNAMIC_PJ))
    frequency_hz: float = DEFAULT_FREQUENCY_HZ

    def __post_init__(self) -> None:
        for table, name in ((self.static_uw, "static"), (self.dynamic_pj, "dynamic")):
            for kind, value in table.items():
                if kind not in RESOURCE_KINDS:
                    raise PowerError(f"unknown resource kind {kind!r} in {name} table")
                if value < 0:
                    raise PowerError(f"{name} coefficient for {kind} must be non-negative")
        if not self.frequency_hz > 0:
            raise PowerError("frequency must be positive")

    def static_of(self, kind: str) -> float:
        return float(self.static_uw.get(kind, DEFAULT_STATIC_UW[kind]))

    def dynamic_of(self, kind: str) -> float:
        return float(self.dynamic_pj.get(kind, DEFAULT_DYNAMIC_PJ[kind]))


@dataclass(frozen=True)
class ActivityProfile:
    """Cycle-accurate rule firings plus the static read/write relation.

    firings maps every declared rule to its strictly increasing firing cycles,
    all below ``cycles``. writes holds (rule_id, state_id); reads holds
    (block_label, state_id).
    """

    cycles: int
    rule_block: dict[str, BlockLabel]
    firings: dict[str, tuple[int, ...]]
    writes: frozenset[tuple[str, str]]
    reads: frozenset[tuple[BlockLabel, str]]

    def blocks(self) -> frozenset[BlockLabel]:
        return frozenset(self.rule_block.values()) | frozenset(b for b, _ in self.reads)

    def truncated(self, depth: int) -> "ActivityProfile":
        """Profile with every block label cut to the given depth, for use with
        a registry grouped the same way."""
        return ActivityProfile(
            self.cycles,
            {r: b.truncated(depth) for r, b in self.rule_block.items()},
            dict(self.firings),
            self.writes,
            frozenset((b.truncated(depth), s) for b, s in self.reads),
        )


class _ActivityIndex:
    """Which rules belong to each block, which rules write each state and
    which states each block reads, built once per profile."""

    def __init__(self, profile: ActivityProfile) -> None:
        self.profile = profile
        self.rules_of: dict[BlockLabel, list[str]] = {}
        for rule, block in profile.rule_block.items():
            self.rules_of.setdefault(block, []).append(rule)
        self.writers_of: dict[str, list[str]] = {}
        for rule, state in profile.writes:
            self.writers_of.setdefault(state, []).append(rule)
        self.reads_of: dict[BlockLabel, list[str]] = {}
        for block, state in profile.reads:
            self.reads_of.setdefault(block, []).append(state)

    def activity(self, block: BlockLabel) -> tuple[set[int], int]:
        """The block's active cycles and its raw event count.

        Own rule firings land in the same cycle; a write to a state the block
        reads lands in the next cycle, so a firing in the last cycle
        propagates no dependent activity. The event count keeps every
        (cause, cycle) pair: a rule writing two states the block reads
        counts twice."""
        firings, last = self.profile.firings, self.profile.cycles - 1
        active: set[int] = set()
        events = 0
        for rule in self.rules_of.get(block, ()):
            fired = firings.get(rule, ())
            active.update(fired)
            events += len(fired)
        writes_read: dict[str, int] = {}  # writer rule -> states it writes that the block reads
        for state in self.reads_of.get(block, ()):
            for rule in self.writers_of.get(state, ()):
                writes_read[rule] = writes_read.get(rule, 0) + 1
        for rule, states in writes_read.items():
            shifted = [t + 1 for t in firings.get(rule, ()) if t < last]
            active.update(shifted)
            events += states * len(shifted)
        return active, events


def average_power_uw(static_uw: float, dynamic_pj: float, alpha: float, frequency_hz: float) -> float:
    """P_avg[uW] = P_s[uW] + P_D[pJ] * alpha * f[Hz] * 1e-6."""
    return static_uw + dynamic_pj * alpha * frequency_hz * 1e-6


@dataclass(frozen=True)
class BlockPower:
    static_uw: float
    dynamic_pj: float
    alpha: float
    active_cycles: int
    events: int
    average_uw: float
    profiled: bool  # False flags a block the profile never mentions


@dataclass(frozen=True)
class PowerScore:
    per_block: dict[BlockLabel, BlockPower]
    unannotated: BlockPower | None
    ranking: tuple[BlockLabel, ...]
    frequency_hz: float
    unknown_blocks: tuple[BlockLabel, ...] = ()  # profile blocks absent from the netlist


def power_score(
    netlist: Netlist,
    registry: BlockRegistry,
    model: PowerModel | None = None,
    profile: ActivityProfile | None = None,
) -> PowerScore:
    """Score every block; ranking is by descending P_avg, ties by label.

    Without a profile all alphas are 0 and the ranking degenerates to the
    static-power ranking.
    """
    if model is None:
        model = PowerModel()
    known = profile.blocks() if profile is not None else frozenset()
    index = _ActivityIndex(profile) if profile is not None else None

    def score(cells: frozenset[str], label: BlockLabel | None) -> BlockPower:
        counts, _ = resource_counts(cells, netlist)
        p_s = sum(counts[kind] * model.static_of(kind) for kind in RESOURCE_KINDS)
        p_d = sum(counts[kind] * model.dynamic_of(kind) for kind in RESOURCE_KINDS)
        profiled = profile is not None and label is not None and label in known
        if profiled:
            active, events = index.activity(label)  # one block's cycle set alive at a time
            n_active = len(active)
            alpha = n_active / profile.cycles
        else:
            alpha, events, n_active = 0.0, 0, 0
        average = average_power_uw(p_s, p_d, alpha, model.frequency_hz)
        if not math.isfinite(average):
            name = "the unannotated cells" if label is None else f"block {label}"
            raise PowerError(f"average power of {name} overflows; lower its coefficients or the frequency")
        return BlockPower(p_s, p_d, alpha, n_active, events, average, profiled)

    per_block = {label: score(cells, label) for label, cells in registry.blocks.items()}
    unannotated = score(registry.unannotated, None) if registry.unannotated else None
    ranking = tuple(
        sorted(per_block, key=lambda label: (-per_block[label].average_uw, str(label)))
    )
    unknown = tuple(sorted(known - per_block.keys(), key=str))
    return PowerScore(per_block, unannotated, ranking, model.frequency_hz, unknown)
