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

import re
from dataclasses import dataclass

from .annotation import AnnotationError, BlockLabel
from .area import RESOURCE_KINDS
from .model import (
    BlockscopeError,
    Cell,
    CellKind,
    Net,
    Netlist,
    Violation,
    validate,
)
from .power import ActivityProfile, PowerModel

NETLIST_HEADER = "blockscope-netlist v1"
PROFILE_HEADER = "blockscope-profile v1"
_MAX_INT = 2**53  # integer fields stay below it, so every consumer of a double reads them exactly

_ID_RE = re.compile(r"[A-Za-z0-9_.]+\Z")
_NAT_RE = re.compile(r"[0-9]+\Z")
_NUM_RE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")


class ParseError(BlockscopeError):
    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}" if column is None else f"line {line}, col {column}"
        super().__init__(f"{message} ({where})")


class VersionError(ParseError):
    pass


Token = tuple[str, int]  # text, 1-based column


def _scan(data: bytes | str) -> list[tuple[int, list[Token]]]:
    """Significant lines as (lineno, tokens); comments and blanks dropped."""
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
    lines: list[tuple[int, list[Token]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            lines.append((lineno, tokens))
    return lines


def _take_header(lines: list[tuple[int, list[Token]]], expected: str) -> list[tuple[int, list[Token]]]:
    if not lines:
        raise ParseError(f"empty input, expected header {expected!r}", 1)
    lineno, tokens = lines[0]
    got = " ".join(t for t, _ in tokens)
    if got == expected:
        return lines[1:]
    name = expected.split()[0]
    if tokens[0][0] == name:
        raise VersionError(f"unsupported version {got!r}, expected {expected!r}", lineno)
    raise ParseError(f"expected header {expected!r}, found {got!r}", lineno)


def _want(
    tokens: list[Token], count: int, lineno: int, usage: str
) -> list[Token]:
    if len(tokens) != count:
        raise ParseError(f"expected {usage}", lineno, tokens[0][1])
    return tokens


def _id_field(tok: Token, lineno: int, what: str) -> str:
    text, col = tok
    if not _ID_RE.match(text):
        raise ParseError(f"malformed {what} {text!r}", lineno, col)
    return text


def _nat_field(tok: Token, lineno: int, what: str) -> int:
    text, col = tok
    if not _NAT_RE.match(text):
        raise ParseError(f"malformed {what} {text!r}, expected a non-negative integer", lineno, col)
    # int() refuses huge strings; any 17 significant digits are already >= 2^53
    value = int(text) if len(text) <= 16 else int(text.lstrip("0")[:17] or "0")
    if value >= _MAX_INT:
        raise ParseError(f"{what} out of range, must be below 2^53", lineno, col)
    return value


def _num_field(tok: Token, lineno: int, what: str) -> float:
    text, col = tok
    if not _NUM_RE.match(text):
        raise ParseError(f"malformed {what} {text!r}, expected a non-negative number", lineno, col)
    return float(text)


# --- netlist ---------------------------------------------------------------


@dataclass(frozen=True)
class NetlistDocument:
    """Parsed netlist plus source line positions for diagnostics."""

    header: str
    body: Netlist
    cell_lines: dict[str, int]
    net_lines: dict[tuple[str, str], int]
    pair_lines: dict[tuple[str, str], int]

    def violation_line(self, violation: Violation) -> int:
        subj = violation.subject
        if subj in self.cell_lines:
            return self.cell_lines[subj]
        if "->" in subj:
            src, dst = subj.split("->", 1)
            if (src, dst) in self.net_lines:
                return self.net_lines[(src, dst)]
        if "/" in subj:
            d, q = subj.split("/", 1)
            if (d, q) in self.pair_lines:
                return self.pair_lines[(d, q)]
        if violation.cells:  # cycle: point at its first edge
            edge = (violation.cells[0], violation.cells[1 % len(violation.cells)])
            if edge in self.net_lines:
                return self.net_lines[edge]
        for (d, q), line in self.pair_lines.items():
            if subj in (d, q):
                return line
        return 1


def parse_netlist(data: bytes | str) -> NetlistDocument:
    """Parse and fully validate one netlist file."""
    lines = _take_header(_scan(data), NETLIST_HEADER)
    cells: list[Cell] = []
    nets: list[Net] = []
    pairs: list[tuple[str, str]] = []
    cell_lines: dict[str, int] = {}
    net_lines: dict[tuple[str, str], int] = {}
    pair_lines: dict[tuple[str, str], int] = {}
    for lineno, tokens in lines:
        keyword = tokens[0][0]
        if keyword == "cell":
            _want(tokens, 4, lineno, "cell <id> <kind> <delay_ps>")
            cid = _id_field(tokens[1], lineno, "cell id")
            kind_text, kind_col = tokens[2]
            try:
                kind = CellKind[kind_text]
            except KeyError:
                raise ParseError(f"unknown cell kind {kind_text}", lineno, kind_col) from None
            delay = _nat_field(tokens[3], lineno, "logic delay")
            if cid in cell_lines:
                raise ParseError(f"duplicate cell id {cid}", lineno, tokens[1][1])
            cell_lines[cid] = lineno
            cells.append(Cell(cid, kind, delay))
        elif keyword == "net":
            _want(tokens, 5, lineno, "net <src> -> <dst> <delay_ps>")
            src = _id_field(tokens[1], lineno, "net source id")
            arrow, arrow_col = tokens[2]
            if arrow != "->":
                raise ParseError(f"expected '->', found {arrow!r}", lineno, arrow_col)
            dst = _id_field(tokens[3], lineno, "net destination id")
            delay = _nat_field(tokens[4], lineno, "net delay")
            net_lines.setdefault((src, dst), lineno)
            nets.append(Net(src, dst, delay))
        elif keyword == "ffpair":
            _want(tokens, 3, lineno, "ffpair <d_id> <q_id>")
            d = _id_field(tokens[1], lineno, "ffpair D id")
            q = _id_field(tokens[2], lineno, "ffpair Q id")
            pair_lines.setdefault((d, q), lineno)
            pairs.append((d, q))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, tokens[0][1])
    doc = NetlistDocument(NETLIST_HEADER, Netlist(cells, nets, pairs), cell_lines, net_lines, pair_lines)
    report = validate(doc.body)
    if not report.ok:
        first = report.violations[0]
        raise ParseError(first.message, doc.violation_line(first))
    return doc


def serialize_netlist(obj: Netlist | NetlistDocument) -> bytes:
    """Canonical bytes: header, cells by id, nets by (src, dst, delay), pairs sorted."""
    netlist = obj.body if isinstance(obj, NetlistDocument) else obj
    out = [NETLIST_HEADER]
    for c in sorted(netlist.cells, key=lambda c: c.id):
        out.append(f"cell {c.id} {c.kind.value} {c.logic_delay}")
    for n in sorted(netlist.nets, key=lambda n: (n.src, n.dst, n.net_delay)):
        out.append(f"net {n.src} -> {n.dst} {n.net_delay}")
    for d, q in sorted(netlist.ff_pairs):
        out.append(f"ffpair {d} {q}")
    return ("\n".join(out) + "\n").encode("utf-8")


# --- activity profile ------------------------------------------------------


def _label_field(tok: Token, lineno: int) -> BlockLabel:
    text, col = tok
    try:
        return BlockLabel.parse(text)
    except AnnotationError as exc:
        raise ParseError(f"malformed block label {text!r}: {exc}", lineno, col) from None


def parse_profile(data: bytes | str) -> ActivityProfile:
    """Parse one activity profile; reference checks are order-independent."""
    lines = _take_header(_scan(data), PROFILE_HEADER)
    cycles: int | None = None
    cycles_line = 0
    rules: dict[str, tuple[BlockLabel, int]] = {}
    fires: list[tuple[str, tuple[int, ...], int, int]] = []  # rid, cycles, line, col
    writes: list[tuple[str, str, int, int]] = []
    reads: list[tuple[BlockLabel, str, int, int]] = []
    for lineno, tokens in lines:
        keyword = tokens[0][0]
        if keyword == "cycles":
            _want(tokens, 2, lineno, "cycles <N>")
            if cycles is not None:
                raise ParseError("duplicate cycles directive", lineno, tokens[0][1])
            cycles = _nat_field(tokens[1], lineno, "cycle count")
            if cycles < 1:
                raise ParseError("cycle count must be >= 1", lineno, tokens[1][1])
            cycles_line = lineno
        elif keyword == "rule":
            _want(tokens, 4, lineno, "rule <rule_id> block <block_label>")
            rid = _id_field(tokens[1], lineno, "rule id")
            lit, lit_col = tokens[2]
            if lit != "block":
                raise ParseError(f"expected 'block', found {lit!r}", lineno, lit_col)
            label = _label_field(tokens[3], lineno)
            if rid in rules:
                raise ParseError(f"duplicate rule declaration {rid}", lineno, tokens[1][1])
            rules[rid] = (label, lineno)
        elif keyword == "fires":
            _want(tokens, 3, lineno, "fires <rule_id> <c1,c2,...>")
            rid = _id_field(tokens[1], lineno, "rule id")
            list_text, list_col = tokens[2]
            values: list[int] = []
            for part in list_text.split(","):
                if not _NAT_RE.match(part):
                    raise ParseError(
                        f"malformed firing cycle {part!r} in {list_text!r}", lineno, list_col
                    )
                values.append(int(part) if len(part) <= 16 else int(part.lstrip("0")[:17] or "0"))
            for a, b in zip(values, values[1:]):
                if b <= a:
                    raise ParseError(
                        f"firing cycles must be strictly increasing, found {a} then {b}",
                        lineno,
                        list_col,
                    )
            fires.append((rid, tuple(values), lineno, tokens[1][1]))
        elif keyword == "writes":
            _want(tokens, 3, lineno, "writes <rule_id> <state_id>")
            rid = _id_field(tokens[1], lineno, "rule id")
            sid = _id_field(tokens[2], lineno, "state id")
            writes.append((rid, sid, lineno, tokens[1][1]))
        elif keyword == "reads":
            _want(tokens, 3, lineno, "reads <block_label> <state_id>")
            label = _label_field(tokens[1], lineno)
            sid = _id_field(tokens[2], lineno, "state id")
            reads.append((label, sid, lineno, tokens[1][1]))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, tokens[0][1])

    if cycles is None:
        raise ParseError("missing cycles directive", 1)

    firings: dict[str, tuple[int, ...]] = {rid: () for rid in rules}
    for rid, values, lineno, col in fires:
        if rid not in rules:
            raise ParseError(f"fires references undeclared rule {rid}", lineno, col)
        if firings[rid]:
            raise ParseError(f"duplicate fires directive for rule {rid}", lineno, col)
        for t in values:
            if t >= cycles:
                raise ParseError(f"cycle {t} out of range, profile has {cycles} cycles", lineno, col)
        firings[rid] = values

    write_set: set[tuple[str, str]] = set()
    for rid, sid, lineno, col in writes:
        if rid not in rules:
            raise ParseError(f"writes references undeclared rule {rid}", lineno, col)
        if (rid, sid) in write_set:
            raise ParseError(f"duplicate writes {rid} {sid}", lineno, col)
        write_set.add((rid, sid))

    declared_blocks = {label for label, _ in rules.values()}
    written_states = {sid for _, sid in write_set}
    read_set: set[tuple[BlockLabel, str]] = set()
    for label, sid, lineno, col in reads:
        if label not in declared_blocks:
            raise ParseError(f"reads references undeclared block {label}", lineno, col)
        if sid not in written_states:
            raise ParseError(f"reads references unwritten state {sid}", lineno, col)
        if (label, sid) in read_set:
            raise ParseError(f"duplicate reads {label} {sid}", lineno, col)
        read_set.add((label, sid))

    return ActivityProfile(
        cycles,
        {rid: label for rid, (label, _) in rules.items()},
        firings,
        frozenset(write_set),
        frozenset(read_set),
    )


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
    *,
    header: str | None = None,
    delays: dict[CellKind, int] | None = None,
    weights: dict[str, float] | None = None,
) -> PowerModel:
    """Overlay static/dynamic/frequency directives on a base model.

    The one loop behind power-model and device files: ``delay`` and ``weight``
    lines are accepted only when their table is given, and update it in place.
    """
    lines = _scan(data) if header is None else _take_header(_scan(data), header)
    static = dict(base.static_uw)
    dynamic = dict(base.dynamic_pj)
    frequency = base.frequency_hz
    tables = {"static": static, "dynamic": dynamic}
    if weights is not None:
        tables["weight"] = weights
    seen: set[tuple[str, str]] = set()
    saw_frequency = False
    for lineno, tokens in lines:
        keyword = tokens[0][0]
        if keyword in tables:
            _want(tokens, 3, lineno, f"{keyword} <RESOURCE_KIND> <value>")
            kind_text, kind_col = tokens[1]
            if kind_text not in RESOURCE_KINDS:
                raise ParseError(f"unknown resource kind {kind_text}", lineno, kind_col)
            value = _num_field(tokens[2], lineno, f"{keyword} coefficient")
            table, key = tables[keyword], kind_text
        elif keyword == "delay" and delays is not None:
            _want(tokens, 3, lineno, "delay <CELL_KIND> <ps>")
            kind_text, kind_col = tokens[1]
            try:
                kind = CellKind[kind_text]
            except KeyError:
                raise ParseError(f"unknown cell kind {kind_text}", lineno, kind_col) from None
            value = _nat_field(tokens[2], lineno, "logic delay")
            if kind.is_source and value != 0:
                raise ParseError(f"{kind.value} is a path source and must keep delay 0", lineno, kind_col)
            table, key = delays, kind
        elif keyword == "frequency":
            _want(tokens, 2, lineno, "frequency <Hz>")
            if saw_frequency:
                raise ParseError("duplicate frequency directive", lineno, tokens[0][1])
            saw_frequency = True
            frequency = _num_field(tokens[1], lineno, "frequency")
            if not frequency > 0:
                raise ParseError("frequency must be positive", lineno, tokens[1][1])
            continue
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, tokens[0][1])
        if (keyword, kind_text) in seen:
            raise ParseError(f"duplicate {keyword} entry for {kind_text}", lineno, kind_col)
        seen.add((keyword, kind_text))
        table[key] = value
    return PowerModel(static, dynamic, frequency)


def parse_power_model(data: bytes | str, base: PowerModel | None = None) -> PowerModel:
    """Overlay static/dynamic/frequency directives on a base model (defaults)."""
    return parse_coefficients(data, PowerModel.default() if base is None else base)
