"""A seeded corpus of mutated netlists and the outcome of parsing each one.

Each case starts from the canonical bytes of a ``gen_random`` netlist and
applies one to three mutations: a token replaced, inserted, deleted or
swapped with the one before it, or a line duplicated (as it is or with one
token replaced), deleted, moved to the top (so it refers forward) or added
as junk. Tokens are drawn from the ids and keywords of the netlist and from
the edges of the field checks: 15-, 16- and 17-digit delays, 2^53 - 1, 2^53
and 2^53 + 1, non-ASCII digits, a byte order mark, a misplaced ``->`` and
unknown kinds.

A case's outcome is the error ``parse_netlist`` raises, with its line and
column, or the sha256 of ``serialize_netlist`` of the netlist it returns.
``tests/parse_corpus.json`` pins the outcomes, each with the sha256 of its
input, and ``tests/test_formats.py`` checks them. To pin them again after a
deliberate change of outcome, run from the repository root:

    PYTHONPATH=src python tests/parse_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator

from blockscope.fixtures import gen_random
from blockscope.formats import parse_netlist, serialize_netlist
from blockscope.model import BlockscopeError

CASES = 600
PIN = Path(__file__).with_name("parse_corpus.json")

_DELAY_TOKENS = (
    "0", "00", "7", "-1", "+1", "1.5", "1e3", "0x10", "²", "٣", "1²",
    "1" * 15, "9" * 15, "0" * 14 + "7", "1" * 16, "9" * 16, "0" * 15 + "7", "1" * 17, "0" * 16 + "7",
    str(2**53 - 1), str(2**53), str(2**53 + 1), "0" + str(2**53 - 1),
)
_EDGE_TOKENS = _DELAY_TOKENS + (
    "cell", "net", "ffpair", "->", "-", ">", "#", "LUT3", "FF_D", "FF_Q", "IN", "OUT", "LUT7", "lut3",
    "\ufeff", "\ufeffcell", "a b", "a-b", "x.y", "_", ".", "é",
)
_MUTATIONS = ("replace",) * 4 + (
    "insert", "delete", "swap", "clash", "duplicate", "drop", "junk", "forward", "bom",
)


def _token(rng: random.Random, ids: list[str]) -> str:
    return rng.choice(ids) if rng.random() < 0.3 else rng.choice(_EDGE_TOKENS)


def _mutate(rng: random.Random, lines: list[str], ids: list[str], at: int) -> None:
    """Apply one mutation at line index at, in place; lines[0] is the header."""
    kind = rng.choice(_MUTATIONS)
    tokens = lines[at].split(" ")
    # the last field is a delay on cell and net lines, so it is picked more often
    pick = len(tokens) - 1 if rng.random() < 0.4 else rng.randrange(len(tokens))
    if kind == "replace":
        last = pick == len(tokens) - 1 and rng.random() < 0.5
        tokens[pick] = rng.choice(_DELAY_TOKENS) if last else _token(rng, ids)
    elif kind == "insert":
        tokens.insert(pick + rng.randrange(2), _token(rng, ids))
    elif kind == "delete" and len(tokens) > 1:
        del tokens[pick]
    elif kind == "swap" and pick:
        tokens[pick - 1], tokens[pick] = tokens[pick], tokens[pick - 1]
    elif kind == "duplicate":
        lines.insert(rng.randrange(1, len(lines) + 1), lines[at])
    elif kind == "clash":  # a copy of the line with one more field broken, so two checks fail on it
        tokens[pick] = _token(rng, ids)
        lines.insert(rng.randrange(at + 1, len(lines) + 1), " ".join(tokens))
    elif kind == "drop" and at:
        del lines[at]
    elif kind == "junk":
        junk = " ".join(_token(rng, ids) for _ in range(rng.randrange(1, 6)))
        lines.insert(rng.randrange(1, len(lines) + 1), junk)
    elif kind == "forward" and at:
        lines.insert(1, lines.pop(at))
    elif kind == "bom":
        lines[0] = "\ufeff" + lines[0]
    if kind in ("replace", "insert", "delete", "swap") and at < len(lines):
        lines[at] = " ".join(tokens)


def cases() -> Iterator[bytes]:
    """The corpus inputs, in case order."""
    for seed in range(CASES):
        rng = random.Random(seed)
        netlist = gen_random(seed, rng.randint(2, 30))
        ids = list(netlist.ids)
        lines = serialize_netlist(netlist).decode("utf-8").splitlines()
        at = 0
        for _ in range(rng.randint(1, 3)):
            if not 0 < at < len(lines) or rng.random() < 0.5:  # else break the same line again
                at = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
            _mutate(rng, lines, ids, at)
        yield ("\n".join(lines) + "\n").encode("utf-8")


def outcome(data: bytes) -> str:
    """The error parse_netlist raises, or the digest of the netlist it returns."""
    try:
        netlist = parse_netlist(data)
    except BlockscopeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "sha256:" + hashlib.sha256(serialize_netlist(netlist)).hexdigest()


def entries() -> list[dict[str, str]]:
    return [
        {"input": hashlib.sha256(data).hexdigest()[:16], "outcome": outcome(data)} for data in cases()
    ]


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in entries())  # one case a line, so a diff names it
    PIN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
