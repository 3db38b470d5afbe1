"""Seeded, linear-time input generators for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is given, so one seed
always gives the same bytes. The shapes follow HLS output: hierarchical
``s<stage>.m<module>.op<k>`` block labels, layered LUT logic inside each
block's slice, registers at stage boundaries (FF_D/FF_Q port pairs owned by
one block), a few cross-slice fan-out nets, and a small share of unannotated
glue and top-level ports.

Nothing here imports blockscope: the benchmark feeds the program only the
bytes written by :meth:`Design.netlist_bytes` and :func:`profile_bytes`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Design:
    """A generated netlist: cells as (id, kind, ps), nets as (src, dst, ps)."""

    cells: list[tuple[str, str, int]] = field(default_factory=list)
    nets: list[tuple[str, str, int]] = field(default_factory=list)
    pairs: list[tuple[str, str]] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def add(self, cid: str, kind: str, delay: int = 0) -> str:
        self.cells.append((cid, kind, delay))
        return cid

    def netlist_bytes(self) -> bytes:
        out = ["blockscope-netlist v1"]
        out += [f"cell {c} {k} {d}" for c, k, d in self.cells]
        out += [f"net {s} -> {t} {d}" for s, t, d in self.nets]
        out += [f"ffpair {d} {q}" for d, q in self.pairs]
        return ("\n".join(out) + "\n").encode("ascii")


def layered(
    rng: random.Random,
    *,
    stages: int,
    modules: int,
    ops: int,
    layers: int,
    width: int,
    regs: int,
    ports: int,
    cross: float = 0.05,
    glue: float = 0.01,
) -> Design:
    """Pipeline of ``stages`` stages, each with modules x ops blocks.

    Inside a stage, every block builds ``layers`` layers of ``width`` LUTs;
    each LUT reads 1-6 cells of its own previous layer, and with probability
    ``cross`` one input comes from another block's previous layer instead.
    A block ends in ``regs`` registers; the next stage's blocks read their Q
    ports. In stage 0 each block reads ``ports`` top-level IN ports, and in
    the last stage each block's final layer drives ``ports`` OUT ports.
    Work is O(cells): no step scans more than one previous layer.
    """
    design = Design()
    serial = iter(range(1 << 62))

    def lut(label: str, inputs: list[str]) -> str:
        prefix = f"g{next(serial)}" if rng.random() < glue else f"{label}__n{next(serial)}"
        cid = design.add(prefix, f"LUT{len(inputs)}", rng.randint(10, 60))
        for src in inputs:
            design.nets.append((src, cid, rng.randint(1, 30)))
        return cid

    prev_regs: list[list[str]] = []
    for s in range(stages):
        labels = [f"s{s}.m{m}.op{o}" for m in range(modules) for o in range(ops)]
        design.labels += labels
        if s == 0:
            frontier = [
                [design.add(f"in{next(serial)}", "IN") for _ in range(ports)] for _ in labels
            ]
        else:
            # each block reads its own predecessor's registers plus one other's
            frontier = [
                prev_regs[b] + prev_regs[rng.randrange(len(prev_regs))] for b in range(len(labels))
            ]
        for _ in range(layers):
            nxt: list[list[str]] = []
            for b, label in enumerate(labels):
                own = frontier[b]
                row = []
                for j in range(width):
                    k = rng.randint(1, min(6, len(own)))
                    first = own[j % len(own)]
                    inputs = [first] + [c for c in rng.sample(own, k) if c != first][: k - 1]
                    if rng.random() < cross:
                        other = frontier[rng.randrange(len(labels))]
                        pick = other[rng.randrange(len(other))]
                        if pick not in inputs:
                            inputs[-1] = pick
                    row.append(lut(label, inputs))
                nxt.append(row)
            frontier = nxt
        prev_regs = []
        for b, label in enumerate(labels):
            last = frontier[b]
            if s == stages - 1:
                outs = [design.add(f"out{next(serial)}", "OUT") for _ in range(ports)]
                for j, src in enumerate(last):
                    design.nets.append((src, outs[j % ports], rng.randint(1, 30)))
                continue
            qs = []
            for r in range(regs):
                d = design.add(f"{label}__d{next(serial)}", "FF_D")
                q = design.add(f"{label}__q{next(serial)}", "FF_Q")
                design.nets.append((last[r % len(last)], d, rng.randint(1, 30)))
                design.pairs.append((d, q))
                qs.append(q)
            prev_regs.append(qs)
    return design


def chains(rng: random.Random, *, count: int, length: int, cross: float = 0.02) -> Design:
    """``count`` LUT chains of ``length`` cells from IN to OUT ports.

    The first half of every chain belongs to block ``chain.head``, the second
    half to ``chain.tail``. With probability ``cross`` a LUT also reads an
    earlier cell of a neighbouring chain, so the chains form one connected
    DAG whose paths are about ``length`` cells deep.
    """
    design = Design(labels=["chain.head", "chain.tail"])
    cols: list[list[str]] = []
    for c in range(count):
        cols.append([design.add(f"in{c}", "IN")])
    for i in range(1, length + 1):
        label = "chain.head" if i <= length // 2 else "chain.tail"
        for c in range(count):
            inputs = [cols[c][i - 1]]
            if count > 1 and rng.random() < cross:
                other = cols[(c + rng.randrange(1, count)) % count]
                inputs.append(other[max(0, i - 1 - rng.randrange(4))])
            cid = design.add(f"{label}__c{c}_{i}", f"LUT{len(inputs)}", rng.randint(10, 60))
            for src in inputs:
                design.nets.append((src, cid, rng.randint(1, 30)))
            cols[c].append(cid)
    for c in range(count):
        out = design.add(f"out{c}", "OUT")
        design.nets.append((cols[c][-1], out, rng.randint(1, 30)))
    return design


def profile_bytes(rng: random.Random, labels: list[str], cycles: int, fire_rate: float) -> bytes:
    """Activity profile naming every block: one rule per block firing on about
    ``fire_rate`` of the cycles, writing a state that the next two blocks in
    label order read."""
    out = ["blockscope-profile v1", f"cycles {cycles}"]
    n = len(labels)
    for b, label in enumerate(labels):
        out.append(f"rule r{b} block {label}")
        fired = [t for t in range(cycles) if rng.random() < fire_rate] or [0]
        out.append(f"fires r{b} {','.join(map(str, fired))}")
        out.append(f"writes r{b} st{b}")
    for b, label in enumerate(labels):
        for up in sorted({(b - 1) % n, (b - 2) % n}):
            out.append(f"reads {label} st{up}")
    return ("\n".join(out) + "\n").encode("ascii")
