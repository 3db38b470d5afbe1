"""Line-oriented wire formats with strict parsing and canonical serialization.

Netlist (header ``blockscope-netlist v1``)::

    cell <id> <KIND> <logic_delay_ps>
    net <src_id> -> <dst_id> <net_delay_ps>
    ffpair <d_id> <q_id>

Activity profile (header ``blockscope-profile v1``)::

    cycles <N>
    rule <rule_id> block <block_label>
    fires <rule_id> <c1,c2,...>      (strictly increasing, no spaces)
    writes <rule_id> <state_id>
    reads <block_label> <state_id>

Power model (no header)::

    static <RESOURCE_KIND> <uW>
    dynamic <RESOURCE_KIND> <pJ>
    frequency <Hz>

Device files (see ``devices``) add ``delay`` and ``weight`` lines to these and
are read by the same loop, ``parse_coefficients``.

``#`` starts a comment anywhere; blank lines are ignored. Unknown directives,
malformed fields and dangling references are errors, and every error carries
the line holding the offending token. Serializers emit one canonical byte
form (cells sorted by id, nets by (src, dst, delay), directive families
sorted) so serialize(parse(x)) is byte-identical on canonical input.
"""

from __future__ import annotations

import math
import re
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator

from .annotation import AnnotationError, BlockLabel
from .area import RESOURCE_KINDS
from .model import SOURCE_KINDS, BlockscopeError, CellKind, Netlist, Violation, delay_row_key, validate
from .power import ActivityProfile, PowerModel

NETLIST_HEADER = "blockscope-netlist v1"
PROFILE_HEADER = "blockscope-profile v1"
DEVICE_HEADER = "blockscope-device v1"
_MAX_INT = 2**53  # integer fields stay below it, so every consumer of a double reads them exactly

_ID_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
_NUM_RE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")
# a fires list of JSON integers of at most 16 digits, read exactly by one json.loads;
# anything else, leading zeros included, is walked part by part
_FIRES_RE = re.compile(r"(?:[1-9][0-9]{0,15}|0)(?:,(?:[1-9][0-9]{0,15}|0))*\Z")


class ParseError(BlockscopeError):
    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{message} ({where})")


class VersionError(ParseError):
    pass


Line = tuple[int, str, list[str]]  # line number, text before any '#', its tokens


def read_file(path: str | Path) -> bytes:
    """The bytes of one input file; a path that cannot be read is an input error."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise BlockscopeError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _scan(data: bytes | str) -> Iterator[Line]:
    """The significant lines as (lineno, text, tokens); comments and blanks dropped.

    Tokens are what ``str.split()`` gives. Columns are not kept: ``_error``
    works one out from the line's text only when an error is raised. A line
    is split when it is reached; the decoded text is freed before the first.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")  # a leading byte order mark is dropped
        except UnicodeDecodeError as exc:
            # locate the bad byte the way the lines below are numbered
            before = (exc.object[: exc.start].decode("utf-8") + "?").splitlines()
            raise ParseError(
                f"input is not valid UTF-8: {exc.reason}", len(before), len(before[-1])
            ) from None
    else:
        text = data.removeprefix("\ufeff")
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    return filter(itemgetter(2), zip(count(1), lines, map(str.split, lines)))


def _error(line: Line, index: int, message: str) -> ParseError:
    """ParseError located at the line's index-th token (1-based column)."""
    starts = [m.start() for m in re.finditer(r"\S+", line[1])]
    return ParseError(message, line[0], starts[index] + 1)


def _take_header(lines: Iterator[Line], expected: str) -> Iterator[Line]:
    """Check the first significant line and return the rest of the iterator."""
    first = next(lines, None)
    if first is None:
        raise ParseError(f"empty input, expected header {expected!r}", 1)
    lineno, _, tokens = first
    got = " ".join(tokens)
    if got == expected:
        return lines
    name = expected.split()[0]
    if tokens[0] == name:
        raise VersionError(f"unsupported version {got!r}, expected {expected!r}", lineno)
    raise ParseError(f"expected header {expected!r}, found {got!r}", lineno)


def _want(line: Line, count: int, usage: str) -> None:
    if len(line[2]) != count:
        raise _error(line, 0, f"expected {usage}")


def _id_field(line: Line, index: int, what: str) -> str:
    text = line[2][index]
    if not _ID_RE.match(text):
        raise _error(line, index, f"malformed {what} {text!r}")
    return text


def _int(digits: str) -> int:
    # int() refuses huge strings; any 17 significant digits are already >= 2^53
    return int(digits) if len(digits) <= 16 else int(digits.lstrip("0")[:17] or "0")


def _nat_field(line: Line, index: int, what: str) -> int:
    text = line[2][index]
    if not (text.isascii() and text.isdigit()):  # str.isdigit alone takes '²' and '٣'
        raise _error(line, index, f"malformed {what} {text!r}, expected a non-negative integer")
    value = _int(text)
    if value >= _MAX_INT:
        raise _error(line, index, f"{what} out of range, must be below 2^53")
    return value


def _num_field(line: Line, index: int, what: str) -> float:
    text = line[2][index]
    if not _NUM_RE.match(text):
        raise _error(line, index, f"malformed {what} {text!r}, expected a non-negative number")
    value = float(text)
    if not math.isfinite(value):
        raise _error(line, index, f"{what} out of range, must be finite")
    return value


# --- netlist ---------------------------------------------------------------


def _violation_line(data: bytes | str, violation: Violation) -> int:
    """Source line of a violation, found by scanning the input again; this
    runs only when the netlist is being rejected. A net a->b or an ffpair d/q
    is found at its line, a cycle through two or more cells at the net of its
    first edge, and any other subject at its cell's declaration."""
    subj = violation.subject
    if "->" in subj:
        keyword, (a, b), at = "net", subj.split("->", 1), 3  # net <src> -> <dst> <delay>
    elif "/" in subj:
        keyword, (a, b), at = "ffpair", subj.split("/", 1), 2  # ffpair <d> <q>
    elif "," in subj:
        keyword, (a, b), at = "net", subj.split(",")[:2], 3  # a cycle's first edge
    else:
        keyword, a, b, at = "cell", subj, subj, 1  # cell <id> <kind> <delay>
    for lineno, _, tokens in _take_header(_scan(data), NETLIST_HEADER):
        if tokens[0] == keyword and tokens[1] == a and tokens[at] == b:
            return lineno
    return 1


def parse_netlist(data: bytes | str) -> Netlist:
    """Parse and fully validate one netlist file in a single pass over its lines,
    and return the netlist.

    Tokens go straight into the netlist's columns. Each directive has one
    path that checks its fields in order and raises the first error. Before
    two checked helpers runs a cheap inline test that takes the common field:
    an endpoint whose cell is already declared, a delay of at most 15 ASCII
    digits (so below 2^53). A field that fails the test goes to the helper,
    which accepts it or raises.
    """
    cell_id: list[str] = []
    cell_kind: list[CellKind] = []
    cell_logic: list[int] = []
    net_src: list[str] = []
    net_dst: list[str] = []
    net_delay: list[int] = []
    pairs: list[tuple[str, str]] = []
    ids: dict[str, str] = {}  # endpoints reuse the id string their cell line checked
    known, kind_of = ids.get, CellKind.__members__.get
    for line in _take_header(_scan(data), NETLIST_HEADER):
        tokens = line[2]
        keyword = tokens[0]
        if keyword == "net":
            if len(tokens) != 5:  # _want only on a mismatch: one call fewer per line
                _want(line, 5, "net <src> -> <dst> <delay_ps>")
            src = known(tokens[1]) or _id_field(line, 1, "net source id")
            if tokens[2] != "->":
                raise _error(line, 2, f"expected '->', found {tokens[2]!r}")
            dst = known(tokens[3]) or _id_field(line, 3, "net destination id")
            text = tokens[4]  # calling _nat_field on every delay parsed deep_paths slower in 18/20 A/B pairs
            delay = (int(text) if len(text) < 16 and text.isascii() and text.isdigit()
                     else _nat_field(line, 4, "net delay"))
            net_src.append(src)
            net_dst.append(dst)
            net_delay.append(delay)
        elif keyword == "cell":
            if len(tokens) != 4:
                _want(line, 4, "cell <id> <kind> <delay_ps>")
            cid = _id_field(line, 1, "cell id")
            kind = kind_of(tokens[2])
            if kind is None:
                raise _error(line, 2, f"unknown cell kind {tokens[2]}")
            text = tokens[3]
            delay = (int(text) if len(text) < 16 and text.isascii() and text.isdigit()
                     else _nat_field(line, 3, "logic delay"))
            if cid in ids:
                raise _error(line, 1, f"duplicate cell id {cid}")
            ids[cid] = cid
            cell_id.append(cid)
            cell_kind.append(kind)
            cell_logic.append(delay)
        elif keyword == "ffpair":
            _want(line, 3, "ffpair <d_id> <q_id>")
            d = known(tokens[1]) or _id_field(line, 1, "ffpair D id")
            q = known(tokens[2]) or _id_field(line, 2, "ffpair Q id")
            pairs.append((d, q))
        else:
            raise _error(line, 0, f"unknown directive {keyword!r}")
    netlist = Netlist._from_columns(cell_id, cell_kind, cell_logic, net_src, net_dst, net_delay, pairs)
    violations = validate(netlist)
    if violations:
        raise ParseError(violations[0].message, _violation_line(data, violations[0]))
    return netlist


def _unwritable(delay) -> bool:
    return delay.__class__ is not int or not 0 <= delay < _MAX_INT


def serialize_netlist(netlist: Netlist) -> bytes:
    """Canonical bytes: header, cells by id, nets by (src, dst, delay), pairs sorted.
    A BlockscopeError names the first cell or net, in that order, that
    parse_netlist could not read back: an id off the id pattern, a delay that
    is not an int in [0, 2^53)."""
    out = [NETLIST_HEADER]
    cells = sorted(zip(netlist.cell_id, netlist.cell_kind, netlist.cell_logic), key=lambda c: c[0])
    for cid, kind, delay in cells:
        if not _ID_RE.match(cid):
            raise BlockscopeError(f"cannot write cell id {cid!r}: ids must match [A-Za-z0-9_.]+")
        if _unwritable(delay):
            raise BlockscopeError(f"cannot write cell {cid}: logic delay {delay!r} is not an int in [0, 2^53)")
        out.append(f"cell {cid} {kind.value} {delay}")
    nets = sorted(zip(netlist.net_src, netlist.net_dst, netlist.net_delay), key=delay_row_key)
    for s, d, delay in nets:
        if _unwritable(delay):
            raise BlockscopeError(f"cannot write net {s}->{d}: net delay {delay!r} is not an int in [0, 2^53)")
        out.append(f"net {s} -> {d} {delay}")
    for d, q in sorted(netlist.ff_pairs):
        out.append(f"ffpair {d} {q}")
    return ("\n".join(out) + "\n").encode("utf-8")


# --- activity profile ------------------------------------------------------


def _label_field(line: Line, index: int) -> BlockLabel:
    text = line[2][index]
    try:
        return BlockLabel.parse(text)
    except AnnotationError as exc:
        raise _error(line, index, f"malformed block label {text!r}: {exc}") from None


def _fires_field(line: Line, index: int, loads: Callable[[str], list[int]]) -> tuple[int, ...]:
    """Strictly increasing firing cycles, read by loads (json.loads); the
    parts are walked one by one only when the one-regex check fails, so the
    error names the bad part. Walking every list parsed wide_flat's profile
    in 50 ms, against 36 ms."""
    text = line[2][index]
    if _FIRES_RE.match(text):
        values = tuple(loads("[" + text + "]"))
    else:
        parts = text.split(",")
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise _error(line, index, f"malformed firing cycle {part!r} in {text!r}")
        values = tuple(map(_int, parts))
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise _error(line, index, f"firing cycles must be strictly increasing, found {a} then {b}")
    return values


def parse_profile(data: bytes | str) -> ActivityProfile:
    """Parse one activity profile; reference checks are order-independent."""
    from json import loads  # once per profile: only profiles need json, to read a fires list in one call

    lines = _take_header(_scan(data), PROFILE_HEADER)
    cycles: int | None = None
    rules: dict[str, BlockLabel] = {}
    fires: list[tuple[str, tuple[int, ...], Line]] = []
    writes: list[tuple[str, str, Line]] = []
    reads: list[tuple[BlockLabel, str, Line]] = []
    for line in lines:
        tokens = line[2]
        keyword = tokens[0]
        if keyword == "cycles":
            _want(line, 2, "cycles <N>")
            if cycles is not None:
                raise _error(line, 0, "duplicate cycles directive")
            cycles = _nat_field(line, 1, "cycle count")
            if cycles < 1:
                raise _error(line, 1, "cycle count must be >= 1")
        elif keyword == "rule":
            _want(line, 4, "rule <rule_id> block <block_label>")
            rid = _id_field(line, 1, "rule id")
            if tokens[2] != "block":
                raise _error(line, 2, f"expected 'block', found {tokens[2]!r}")
            label = _label_field(line, 3)
            if rid in rules:
                raise _error(line, 1, f"duplicate rule declaration {rid}")
            rules[rid] = label
        elif keyword == "fires":
            _want(line, 3, "fires <rule_id> <c1,c2,...>")
            rid = _id_field(line, 1, "rule id")
            fires.append((rid, _fires_field(line, 2, loads), line))
        elif keyword == "writes":
            _want(line, 3, "writes <rule_id> <state_id>")
            rid = _id_field(line, 1, "rule id")
            sid = _id_field(line, 2, "state id")
            writes.append((rid, sid, line))
        elif keyword == "reads":
            _want(line, 3, "reads <block_label> <state_id>")
            label = _label_field(line, 1)
            sid = _id_field(line, 2, "state id")
            reads.append((label, sid, line))
        else:
            raise _error(line, 0, f"unknown directive {keyword!r}")

    if cycles is None:
        raise ParseError("missing cycles directive", 1)

    firings: dict[str, tuple[int, ...]] = {rid: () for rid in rules}
    for rid, values, line in fires:
        if rid not in rules:
            raise _error(line, 1, f"fires references undeclared rule {rid}")
        if firings[rid]:
            raise _error(line, 1, f"duplicate fires directive for rule {rid}")
        if values and values[-1] >= cycles:
            t = next(t for t in values if t >= cycles)
            raise _error(line, 1, f"cycle {t} out of range, profile has {cycles} cycles")
        firings[rid] = values

    write_set: set[tuple[str, str]] = set()
    for rid, sid, line in writes:
        if rid not in rules:
            raise _error(line, 1, f"writes references undeclared rule {rid}")
        if (rid, sid) in write_set:
            raise _error(line, 1, f"duplicate writes {rid} {sid}")
        write_set.add((rid, sid))

    declared_blocks = set(rules.values())
    written_states = {sid for _, sid in write_set}
    read_set: set[tuple[BlockLabel, str]] = set()
    for label, sid, line in reads:
        if label not in declared_blocks:
            raise _error(line, 1, f"reads references undeclared block {label}")
        if sid not in written_states:
            raise _error(line, 1, f"reads references unwritten state {sid}")
        if (label, sid) in read_set:
            raise _error(line, 1, f"duplicate reads {label} {sid}")
        read_set.add((label, sid))

    return ActivityProfile(cycles, rules, firings, frozenset(write_set), frozenset(read_set))


def serialize_profile(profile: ActivityProfile) -> bytes:
    """Canonical bytes: cycles, rules, non-empty fires, writes, reads, each sorted."""
    out = [PROFILE_HEADER, f"cycles {profile.cycles}"]
    for rid in sorted(profile.rule_block):
        out.append(f"rule {rid} block {profile.rule_block[rid]}")
    for rid in sorted(profile.firings):
        if profile.firings[rid]:
            out.append(f"fires {rid} {','.join(str(t) for t in profile.firings[rid])}")
    for rid, sid in sorted(profile.writes):
        out.append(f"writes {rid} {sid}")
    for label, sid in sorted(profile.reads, key=lambda p: (str(p[0]), p[1])):
        out.append(f"reads {label} {sid}")
    return ("\n".join(out) + "\n").encode("utf-8")


# --- power model and device coefficients -----------------------------------


def parse_coefficients(
    data: bytes | str,
    base: PowerModel,
    device: tuple[dict[CellKind, int], dict[str, float]] | None = None,
) -> PowerModel:
    """Overlay static/dynamic/frequency directives on a base model.

    The one loop behind power-model and device files. A device file's
    (logic delays, area weights) tables are given as device: the input must
    then start with DEVICE_HEADER, and its ``delay`` and ``weight`` lines
    update those tables in place.
    """
    static = dict(base.static_uw)
    dynamic = dict(base.dynamic_pj)
    frequency = base.frequency_hz
    tables = {"static": static, "dynamic": dynamic}
    lines, delays = _scan(data), None
    if device is not None:
        lines = _take_header(lines, DEVICE_HEADER)
        delays, tables["weight"] = device
    seen: set[tuple[str, str]] = set()
    saw_frequency = False
    for line in lines:
        tokens = line[2]
        keyword = tokens[0]
        if keyword in tables:
            _want(line, 3, f"{keyword} <RESOURCE_KIND> <value>")
            kind_text = tokens[1]
            if kind_text not in RESOURCE_KINDS:
                raise _error(line, 1, f"unknown resource kind {kind_text}")
            value = _num_field(line, 2, f"{keyword} coefficient")
            table, key = tables[keyword], kind_text
        elif keyword == "delay" and delays is not None:
            _want(line, 3, "delay <CELL_KIND> <ps>")
            kind_text = tokens[1]
            try:
                kind = CellKind[kind_text]
            except KeyError:
                raise _error(line, 1, f"unknown cell kind {kind_text}") from None
            value = _nat_field(line, 2, "logic delay")
            if kind in SOURCE_KINDS and value != 0:
                raise _error(line, 1, f"{kind.value} is a path source and must keep delay 0")
            table, key = delays, kind
        elif keyword == "frequency":
            _want(line, 2, "frequency <Hz>")
            if saw_frequency:
                raise _error(line, 0, "duplicate frequency directive")
            saw_frequency = True
            frequency = _num_field(line, 1, "frequency")
            if not frequency > 0:
                raise _error(line, 1, "frequency must be positive")
            continue
        else:
            raise _error(line, 0, f"unknown directive {keyword!r}")
        if (keyword, kind_text) in seen:
            raise _error(line, 1, f"duplicate {keyword} entry for {kind_text}")
        seen.add((keyword, kind_text))
        table[key] = value
    return PowerModel(static, dynamic, frequency)
