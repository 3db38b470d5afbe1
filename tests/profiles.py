"""Seeded random activity profiles for property tests and the frozen report
digests. Their block labels come from the same roots and tails as
``blockscope.fixtures.gen_random``'s, so their blocks can match a random
netlist's."""

from __future__ import annotations

import random

from blockscope.annotation import BlockLabel
from blockscope.fixtures import _LABEL_ROOTS, _LABEL_TAILS
from blockscope.power import ActivityProfile


def gen_random_profile(seed: int) -> ActivityProfile:
    """Seeded random activity profile, always satisfying format constraints
    (strictly increasing firings, reads only of declared blocks and written
    states)."""
    rng = random.Random(seed)
    cycles = rng.randint(1, 40)
    blocks: list[BlockLabel] = []
    while len(blocks) < rng.randint(1, 4):
        depth = rng.randint(1, 2)
        text = ".".join(
            [rng.choice(_LABEL_ROOTS)] + [rng.choice(_LABEL_TAILS) for _ in range(depth - 1)]
        )
        label = BlockLabel.parse(text)
        if label not in blocks:
            blocks.append(label)
    n_rules = rng.randint(1, 5)
    rule_block = {f"r{i}": rng.choice(blocks) for i in range(n_rules)}
    firings = {
        rid: tuple(sorted(rng.sample(range(cycles), rng.randint(0, cycles))))
        for rid in sorted(rule_block)
    }
    states = [f"s{j}" for j in range(rng.randint(1, 4))]
    writes = {
        (rid, sid)
        for rid in sorted(rule_block)
        for sid in states
        if rng.random() < 0.4
    }
    written = sorted({sid for _, sid in writes})
    used_blocks = sorted(set(rule_block.values()))
    reads = {
        (block, sid)
        for block in used_blocks
        for sid in written
        if rng.random() < 0.4
    }
    return ActivityProfile(cycles, rule_block, firings, frozenset(writes), frozenset(reads))
