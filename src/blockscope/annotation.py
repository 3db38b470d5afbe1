"""Recover block structure from cell-name annotations that survive synthesis.

A cell id of the form ``<label>__<local_name>`` assigns the cell to the block
``label``; the first ``__`` wins, so the local name may itself contain more
double underscores. Labels are hierarchical: dot-separated segments over
[A-Za-z0-9_], where no segment may contain ``__`` (that would collide with
the delimiter). Cells without ``__`` belong to the unannotated pseudo-block.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple

from .model import BlockscopeError, Netlist

_SEGMENT_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class AnnotationError(BlockscopeError):
    def __init__(self, message: str, cell_id: str | None = None):
        self.cell_id = cell_id
        super().__init__(message)


def check_group_depth(depth: int) -> int:
    """The depth, when it is an int of at least 1; anything else, a bool
    included, is an error."""
    if depth.__class__ is not int or depth < 1:
        raise AnnotationError("group depth must be at least 1")
    return depth


class _BlockLabel(NamedTuple):
    segments: tuple[str, ...]


class BlockLabel(_BlockLabel):
    """Hierarchical block name; compares and sorts by its segment tuple."""

    __slots__ = ()

    def __new__(cls, segments: tuple[str, ...]) -> "BlockLabel":
        if not segments:
            raise AnnotationError("block label needs at least one segment")
        for seg in segments:
            if not _SEGMENT_RE.match(seg) or "__" in seg:
                raise AnnotationError(f"malformed block label segment {seg!r}")
        return super().__new__(cls, segments)

    @classmethod
    def parse(cls, text: str) -> "BlockLabel":
        if not text:
            raise AnnotationError("empty block label")
        return cls(tuple(text.split(".")))

    def truncated(self, depth: int) -> "BlockLabel":
        # a prefix of a valid label is valid, so the cut skips the checks in __new__
        return tuple.__new__(BlockLabel, (self.segments[:check_group_depth(depth)],))

    def __str__(self) -> str:
        return ".".join(self.segments)


def extract_block_label(cell_id: str) -> BlockLabel | None:
    """Label before the first ``__`` of the id, or None for unannotated cells.

    Raises AnnotationError when a ``__`` is present but the prefix is not a
    well-formed label (empty or illegal segment).
    """
    pos = cell_id.find("__")
    if pos < 0:
        return None
    prefix = cell_id[:pos]
    try:
        return BlockLabel.parse(prefix)
    except AnnotationError as exc:
        raise AnnotationError(
            f"cell id {cell_id!r} has a malformed block label prefix: {exc}", cell_id
        ) from None


class BlockRegistry(NamedTuple):
    """Partition of all cell ids into labeled blocks plus the unannotated rest.

    blocks preserves first-seen order over ids sorted ascending; rendering
    shows the pseudo-block as ``(unannotated)`` and never merges it.
    """

    blocks: dict[BlockLabel, frozenset[str]]
    unannotated: frozenset[str]

    @property
    def unannotated_fraction(self) -> float:
        total = len(self.unannotated.union(*self.blocks.values()))
        return len(self.unannotated) / total if total else 0.0


def build_registry(netlist: Netlist) -> BlockRegistry:
    """Group cells by label in runs of the sorted id table, in first-seen order.

    An annotated id c with its first ``__`` at pos opens the run of label
    P = c[:pos], the ids in [P + "__", P + "_`"), found by one bisect. The
    bound is exact: P holds no ``__`` and cannot end in ``_`` (c's first
    ``__`` would be earlier), so the ids in it are those starting with
    P + "__", and all have label P. The label is parsed from c, the run's
    smallest id, so a malformed prefix is reported for the same cell as a
    per-cell parse. Unannotated ids are visited one by one.
    """
    ids = netlist.ids
    blocks: dict[BlockLabel, frozenset[str]] = {}
    unannotated: list[str] = []
    i, n = 0, len(ids)
    while i < n:
        cid = ids[i]
        pos = cid.find("__")
        if pos < 0:
            unannotated.append(cid)
            i += 1
        else:
            j = bisect_left(ids, cid[:pos] + "_`", i)
            blocks[extract_block_label(cid)] = frozenset(ids[i:j])
            i = j
    return BlockRegistry(blocks, frozenset(unannotated))


def group_to_depth(registry: BlockRegistry, depth: int) -> BlockRegistry:
    """Collapse labels to their first ``depth`` segments, merging cell sets.

    Idempotent: grouping an already depth-d registry to depth d is a no-op.
    The unannotated pseudo-block is never merged with labeled blocks.
    """
    check_group_depth(depth)
    grouped: dict[BlockLabel, set[str]] = {}
    for label, cells in registry.blocks.items():
        short = label.truncated(depth)
        grouped.setdefault(short, set()).update(cells)
    return BlockRegistry(
        {label: frozenset(cells) for label, cells in grouped.items()},
        registry.unannotated,
    )
