"""Relative per-block power scores: P_avg = P_s + P_D * alpha * f.

Units are reconciled as P_avg[uW] = P_s[uW] + P_D[pJ] * alpha * f[Hz] * 1e-6.
alpha is the fraction of profiled cycles in which a block is active: it fires
one of its own rules in that cycle, or in the previous cycle some rule wrote a
state the block reads. A cycle counts once no matter how many causes hit it,
so alpha is always within [0, 1]; the raw event count keeps the multiplicity.

Scores rank blocks under one device profile; they are not comparable across
profiles. Both tables name every resource kind and weigh the area report's counts.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, NamedTuple

from .annotation import BlockLabel
from .area import AreaReport, _check_table, weighted_area
from .model import BlockscopeError


class PowerError(BlockscopeError):
    pass


class PowerModel(NamedTuple):
    """Static uW and dynamic pJ for every resource kind, plus the clock frequency.

    Coefficients are configuration, not silicon ground truth; they make
    blocks comparable under one device profile. ``power_score`` checks the
    tables and the frequency when it weighs, so ``_replace`` is safe.
    """

    static_uw: Mapping[str, float]
    dynamic_pj: Mapping[str, float]
    frequency_hz: float


class ActivityProfile(NamedTuple):
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
        a registry grouped the same way. Each distinct label is cut once."""
        cut = {b: b.truncated(depth) for b in self.blocks()}
        return ActivityProfile(
            self.cycles,
            {r: cut[b] for r, b in self.rule_block.items()},
            dict(self.firings),
            self.writes,
            frozenset((cut[b], s) for b, s in self.reads),
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


class BlockPower(NamedTuple):
    static_uw: float
    dynamic_pj: float
    alpha: float
    active_cycles: int
    events: int
    average_uw: float
    profiled: bool  # False flags a block the profile never mentions


class PowerScore(NamedTuple):
    per_block: dict[BlockLabel, BlockPower]
    unannotated: BlockPower | None
    ranking: tuple[BlockLabel, ...]
    frequency_hz: float
    unknown_blocks: tuple[BlockLabel, ...] = ()  # profile blocks absent from the netlist


def power_score(area: AreaReport, model: PowerModel, profile: ActivityProfile | None = None) -> PowerScore:
    """Score every block of the area report by its counts; ranking is by
    descending P_avg, ties by label. A bad table or frequency is an error.

    Without a profile all alphas are 0 and the ranking degenerates to the
    static-power ranking.
    """
    _check_table(model.static_uw, PowerError, "static")
    _check_table(model.dynamic_pj, PowerError, "dynamic")
    frequency_hz = model.frequency_hz
    if frequency_hz.__class__ in (int, float) and not frequency_hz > 0:  # NaN too
        raise PowerError("frequency must be positive")
    if frequency_hz.__class__ not in (int, float) or not frequency_hz <= sys.float_info.max:
        raise PowerError("frequency must be a finite number")
    known = profile.blocks() if profile is not None else frozenset()
    index = _ActivityIndex(profile) if profile is not None else None

    def score(counts: dict[str, int], label: BlockLabel | None) -> BlockPower:
        p_s = weighted_area(counts, model.static_uw)
        p_d = weighted_area(counts, model.dynamic_pj)
        profiled = profile is not None and label is not None and label in known
        if profiled:
            active, events = index.activity(label)  # one block's cycle set alive at a time
            n_active = len(active)
            alpha = n_active / profile.cycles
        else:
            alpha, events, n_active = 0.0, 0, 0
        average = average_power_uw(p_s, p_d, alpha, frequency_hz)
        if not math.isfinite(average):
            name = "the unannotated cells" if label is None else f"block {label}"
            raise PowerError(f"average power of {name} overflows; lower its coefficients or the frequency")
        return BlockPower(p_s, p_d, alpha, n_active, events, average, profiled)

    per_block = {label: score(block.counts, label) for label, block in area.per_block.items()}
    counts = area.unannotated.counts
    unannotated = score(counts, None) if any(counts.values()) else None
    ranking = tuple(
        sorted(per_block, key=lambda label: (-per_block[label].average_uw, str(label)))
    )
    unknown = tuple(sorted(known - per_block.keys(), key=str))
    return PowerScore(per_block, unannotated, ranking, frequency_hz, unknown)
