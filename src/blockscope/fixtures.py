"""Deterministic desk-scale fixtures: a GCD core, a two-component expansion
example, and seeded random netlists/profiles for property and oracle tests.
"""

from __future__ import annotations

import random

from .annotation import BlockLabel, extract_block_label
from .devices import DeviceProfile, builtin_device
from .model import BlockscopeError, Cell, CellKind, Net, Netlist
from .power import ActivityProfile

GCD_NET_PS = 5  # routing delay on every gcd net, device independent


def _lut(kind_width: int) -> CellKind:
    return CellKind[f"LUT{kind_width}"]


def gen_gcd(bit_width: int = 2, device: DeviceProfile | str = "virtex7") -> tuple[Netlist, ActivityProfile]:
    """Two-register GCD core: rules swap/subtract, registers x/y.

    Both rule guards compare all register bits; the subtractor is a borrow
    chain gated by its guard; write-port muxes belong to the writing rules, so
    x and y stay pure register blocks. LUT logic delays come from the device
    profile, every net costs GCD_NET_PS.
    """
    if not 1 <= bit_width <= 8:
        raise BlockscopeError("gcd bit width must be between 1 and 8")
    if isinstance(device, str):
        device = builtin_device(device)
    delays = device.logic_delays
    cells: list[Cell] = []
    nets: list[Net] = []
    pairs: list[tuple[str, str]] = []

    def add_cell(cid: str, kind: CellKind) -> str:
        cells.append(Cell(cid, kind, delays[kind]))
        return cid

    def wire(src: str, dst: str) -> None:
        nets.append(Net(src, dst, GCD_NET_PS))

    xq = [add_cell(f"x__q{i}", CellKind.FF_Q) for i in range(bit_width)]
    yq = [add_cell(f"y__q{i}", CellKind.FF_Q) for i in range(bit_width)]
    xd = [add_cell(f"x__d{i}", CellKind.FF_D) for i in range(bit_width)]
    yd = [add_cell(f"y__d{i}", CellKind.FF_D) for i in range(bit_width)]
    pairs += [(d, q) for d, q in zip(xd, xq)] + [(d, q) for d, q in zip(yd, yq)]

    def guard_tree(rule: str) -> str:
        """Comparator over all register bits; chunked when 2*W exceeds LUT6."""
        bits = [q for i in range(bit_width) for q in (xq[i], yq[i])]
        if len(bits) <= 6:
            guard = add_cell(f"{rule}__guard", _lut(len(bits)))
            for b in bits:
                wire(b, guard)
            return guard
        chunks: list[str] = []
        for j in range(0, bit_width, 3):
            span = range(j, min(j + 3, bit_width))
            cmp_id = add_cell(f"{rule}__cmp{j // 3}", _lut(2 * len(span)))
            for i in span:
                wire(xq[i], cmp_id)
                wire(yq[i], cmp_id)
            chunks.append(cmp_id)
        guard = add_cell(f"{rule}__guard", _lut(len(chunks)))
        for c in chunks:
            wire(c, guard)
        return guard

    swap_guard = guard_tree("swap")
    sub_guard = guard_tree("subtract")

    diffs: list[str] = []
    for i in range(bit_width):
        if i == 0:
            diff = add_cell("subtract__diff0", CellKind.LUT3)
            for src in (sub_guard, xq[0], yq[0]):
                wire(src, diff)
        else:
            diff = add_cell(f"subtract__diff{i}", CellKind.LUT4)
            for src in (sub_guard, diffs[i - 1], xq[i], yq[i]):
                wire(src, diff)
        diffs.append(diff)

    for i in range(bit_width):
        wx = add_cell(f"swap__wx{i}", CellKind.LUT3)
        for src in (swap_guard, xq[i], yq[i]):
            wire(src, wx)
        wire(wx, xd[i])
        wy = add_cell(f"subtract__wy{i}", CellKind.LUT4)
        for src in (swap_guard, xq[i], diffs[i], yq[i]):
            wire(src, wy)
        wire(wy, yd[i])

    profile = gcd_profile()
    return Netlist(cells, nets, pairs), profile


def gcd_profile() -> ActivityProfile:
    """Ten observed cycles; at most one rule fires per cycle (the two guards
    are mutually exclusive)."""
    swap = BlockLabel.parse("swap")
    subtract = BlockLabel.parse("subtract")
    return ActivityProfile(
        cycles=10,
        rule_block={"swap": swap, "subtract": subtract},
        firings={"swap": (1, 3), "subtract": (2, 4, 5)},
        writes=frozenset({("swap", "x"), ("swap", "y"), ("subtract", "y")}),
        reads=frozenset(
            {(swap, "x"), (swap, "y"), (subtract, "x"), (subtract, "y")}
        ),
    )


def gen_fig6() -> Netlist:
    """Two combinational clouds around one annotated block of four cells.

    Expanding the block covers a 7-node chain and a 5-node two-branch tree.
    With unit logic on interior cells and zero net delay the system delay is
    5 and the block's own delay is 3.
    """
    unit = [
        Cell("ff_q_a", CellKind.FF_Q, 0),
        Cell("core__a1", CellKind.LUT1, 1),
        Cell("core__a2", CellKind.LUT1, 1),
        Cell("core__a3", CellKind.LUT1, 1),
        Cell("mid_a4", CellKind.LUT1, 1),
        Cell("mid_a5", CellKind.LUT1, 1),
        Cell("ff_d_a", CellKind.FF_D, 0),
        Cell("ff_q_b", CellKind.FF_Q, 0),
        Cell("core__b1", CellKind.LUT1, 1),
        Cell("mid_b2", CellKind.LUT1, 1),
        Cell("ff_d_b1", CellKind.FF_D, 0),
        Cell("ff_d_b2", CellKind.FF_D, 0),
    ]
    chain_a = ["ff_q_a", "core__a1", "core__a2", "core__a3", "mid_a4", "mid_a5", "ff_d_a"]
    nets = [Net(a, b, 0) for a, b in zip(chain_a, chain_a[1:])]
    nets += [
        Net("ff_q_b", "core__b1", 0),
        Net("core__b1", "mid_b2", 0),
        Net("mid_b2", "ff_d_b1", 0),
        Net("core__b1", "ff_d_b2", 0),
    ]
    return Netlist(unit, nets)


_SOURCE_CHOICES = (CellKind.CLK, CellKind.IN, CellKind.FF_Q)
_SINK_CHOICES = (CellKind.FF_D, CellKind.OUT, CellKind.MEM_IN)
_LABEL_ROOTS = ("u0", "u1", "u2")
_LABEL_TAILS = ("a", "b", "c")
MAX_RANDOM_CELLS = 1_000_000  # bounds the memory a random fixture can ask for


def gen_random(seed: int, n_cells: int) -> Netlist:
    """Seeded, always-valid random netlist.

    Cells get topological ranks (sources first, sinks last) and edges only run
    forward, so the result is acyclic by construction. 60-100% of cells are
    annotated into 1-5 possibly hierarchical blocks; delays are 1..1000 ps
    with occasional small or unit ranges so weight ties actually occur.
    FF pairs are only formed inside one partition.
    """
    if not 2 <= n_cells <= MAX_RANDOM_CELLS:
        raise BlockscopeError(f"random netlist needs 2 to {MAX_RANDOM_CELLS} cells")
    rng = random.Random(seed)
    n_src = rng.randint(1, max(1, n_cells // 4))
    n_sink = rng.randint(1, max(1, n_cells // 4))
    style = rng.choice(("wide", "small", "unit"))

    def delay() -> int:
        if style == "wide":
            return rng.randint(1, 1000)
        if style == "small":
            return rng.randint(1, 5)
        return 1

    n_blocks = rng.randint(1, 5)
    labels: list[str] = []
    while len(labels) < n_blocks:
        depth = rng.randint(1, 3)
        text = ".".join(
            [rng.choice(_LABEL_ROOTS)] + [rng.choice(_LABEL_TAILS) for _ in range(depth - 1)]
        )
        if text not in labels:
            labels.append(text)
    n_annotated = max(1, round(rng.uniform(0.6, 1.0) * n_cells))
    annotated = set(rng.sample(range(n_cells), min(n_annotated, n_cells)))

    cells: list[Cell] = []
    for i in range(n_cells):
        if i < n_src:
            kind = rng.choice(_SOURCE_CHOICES)
        elif i >= n_cells - n_sink:
            kind = rng.choice(_SINK_CHOICES)
        else:
            kind = _lut(rng.randint(1, 6))
        cid = f"{rng.choice(labels)}__c{i}" if i in annotated else f"n{i}"
        cells.append(Cell(cid, kind, 0 if kind.is_source else delay()))

    nets: list[Net] = []
    cands = [j for j in range(n_src) if not cells[j].kind.is_sink]  # non-sink cells below i
    for i in range(n_src, n_cells):
        if i > n_src and not cells[i - 1].kind.is_sink:
            cands.append(i - 1)
        if not cands:
            continue
        for j in rng.sample(cands, rng.randint(1, min(3, len(cands)))):
            nets.append(Net(cells[j].id, cells[i].id, delay()))

    by_partition: dict[str | None, tuple[list[str], list[str]]] = {}
    for c in cells:
        if c.kind in (CellKind.FF_D, CellKind.FF_Q):
            label = extract_block_label(c.id)
            key = str(label) if label is not None else None
            ds, qs = by_partition.setdefault(key, ([], []))
            (ds if c.kind is CellKind.FF_D else qs).append(c.id)
    pairs: list[tuple[str, str]] = []
    for key in sorted(by_partition, key=lambda k: (k is None, k)):
        ds, qs = by_partition[key]
        pairs += list(zip(sorted(ds), sorted(qs)))
    return Netlist(cells, nets, pairs)


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
