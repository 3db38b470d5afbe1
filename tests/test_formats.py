"""Wire format parsing strictness, error positions, and canonical round-trips."""

import json
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockscope.devices import resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.formats import (
    DEVICE_HEADER,
    NETLIST_HEADER,
    PROFILE_HEADER,
    ParseError,
    VersionError,
    _error,
    _scan,
    parse_coefficients,
    parse_netlist,
    parse_profile,
    serialize_netlist,
    serialize_profile,
)
from blockscope.model import BlockscopeError, Cell, CellKind, Net, Netlist, ValidationError, validate

import parse_corpus
from profiles import gen_random_profile

GOOD_NETLIST = """\
# routing annotated by hand
blockscope-netlist v1
cell top.alu__a IN 0
cell top.alu__b LUT2 7   # adder bit
cell n9 OUT 0
net top.alu__a -> top.alu__b 3
net top.alu__b -> n9 2
"""

GOOD_PROFILE = """\
blockscope-profile v1
cycles 4
rule r0 block top.alu
fires r0 0,2
writes r0 acc
reads top.alu acc
"""


def test_parse_good_netlist():
    nl = parse_netlist(GOOD_NETLIST)
    assert sorted(nl.ids) == ["n9", "top.alu__a", "top.alu__b"]
    assert nl.cell("top.alu__b").logic_delay == 7


def test_comments_and_blank_lines_ignored_everywhere():
    noisy = GOOD_NETLIST.replace("cell n9 OUT 0", "\n   # interlude\ncell n9 OUT 0 # tail")
    assert parse_netlist(noisy) == parse_netlist(GOOD_NETLIST)


def test_missing_header():
    with pytest.raises(ParseError) as err:
        parse_netlist("cell a IN 0\n")
    assert "expected header" in str(err.value)
    assert err.value.line == 1


def test_version_mismatch_is_its_own_error():
    with pytest.raises(VersionError) as err:
        parse_netlist("blockscope-netlist v2\n")
    assert "unsupported version" in str(err.value)
    # a different tool's file is a plain parse error, not a version error
    with pytest.raises(ParseError) as err2:
        parse_netlist("blockscope-profile v1\n")
    assert not isinstance(err2.value, VersionError)


def test_unknown_cell_kind_reports_line_and_column():
    text = NETLIST_HEADER + "\n\n# pad\ncell a LUT9 4\n"
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    assert "unknown cell kind LUT9" in str(err.value)
    assert err.value.line == 4
    assert err.value.column == 8


def test_malformed_fields_rejected():
    cases = [
        ("cell a IN 0 extra", "expected cell"),
        ("cell a IN -1", "malformed logic delay"),
        ("cell a IN 1.5", "malformed logic delay"),
        ("cell a! IN 0", "malformed cell id"),
        ("net a => b 1", "expected '->'"),
        ("net a -> b 1.5", "malformed net delay"),
        ("gadget a b", "unknown directive"),
        ("cell a LUT1 9007199254740992", "logic delay out of range, must be below 2^53"),
        ("net a -> b 9007199254740992", "net delay out of range, must be below 2^53"),
    ]
    for line, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_netlist(f"{NETLIST_HEADER}\n{line}\n")
        assert fragment in str(err.value), line
        assert err.value.line == 2
    # a 30-digit delay is located at its column; 2^53 - 1 is still accepted
    with pytest.raises(ParseError) as err:
        parse_netlist(f"{NETLIST_HEADER}\ncell a LUT1 {'9' * 30}\n")
    assert (err.value.line, err.value.column) == (2, 13)
    big = parse_netlist(f"{NETLIST_HEADER}\ncell a LUT1 9007199254740991\n")
    assert big.cell("a").logic_delay == 2**53 - 1
    # undecodable bytes are located by line and column too
    with pytest.raises(ParseError) as err:
        parse_netlist(f"{NETLIST_HEADER}\ncell a IN 0\n".encode() + b"cell \xff IN 0\n")
    assert "not valid UTF-8" in str(err.value)
    assert (err.value.line, err.value.column) == (3, 6)


# the edges of parse_netlist's shortcuts (a delay is checked with str tests in
# place of a regex, an endpoint whose cell is already declared is not checked
# again): text after the header -> its canonical body, or the exact error with
# its line and column
EDGE_CELLS = "cell a IN 0\ncell b LUT1 1\ncell c OUT 0\ncell d FF_D 0\ncell q FF_Q 0\n"
FAST_PATH_EDGES = {
    "cell 15 digits": ("cell a LUT1 999999999999999", "cell a LUT1 999999999999999"),
    "cell 16 digits": ("cell a LUT1 1000000000000000", "cell a LUT1 1000000000000000"),
    "cell 16 digits max": ("cell a LUT1 9007199254740991", "cell a LUT1 9007199254740991"),
    "cell 16 digits 2^53": ("cell a LUT1 9007199254740992",
                            "logic delay out of range, must be below 2^53 (line 2, col 13)"),
    "cell 16 nines": ("cell a LUT1 9999999999999999",
                      "logic delay out of range, must be below 2^53 (line 2, col 13)"),
    "cell 17 digits": ("cell a LUT1 10000000000000000",
                       "logic delay out of range, must be below 2^53 (line 2, col 13)"),
    "cell leading zeros": ("cell a LUT1 007", "cell a LUT1 7"),
    "cell 23 digits, leading zeros": ("cell a LUT1 00000000000000000000007", "cell a LUT1 7"),
    "cell 2^53 after zeros": ("cell a LUT1 0000000000000009007199254740992",
                              "logic delay out of range, must be below 2^53 (line 2, col 13)"),
    "cell superscript": ("cell a LUT1 \u00b2",
                         "malformed logic delay '\u00b2', expected a non-negative integer (line 2, col 13)"),
    "cell digit then superscript": (
        "cell a LUT1 1\u00b2",
        "malformed logic delay '1\u00b2', expected a non-negative integer (line 2, col 13)"),
    "cell arabic-indic": ("cell a LUT1 \u0663",
                          "malformed logic delay '\u0663', expected a non-negative integer (line 2, col 13)"),
    "cell full-width": (
        "cell a LUT1 \uff11\uff12",
        "malformed logic delay '\uff11\uff12', expected a non-negative integer (line 2, col 13)"),
    "net 15 digits": (EDGE_CELLS + "net a -> b 999999999999999",
                      EDGE_CELLS + "net a -> b 999999999999999"),
    "net 16 digits": (EDGE_CELLS + "net a -> b 1000000000000000",
                      EDGE_CELLS + "net a -> b 1000000000000000"),
    "net 16 nines": (EDGE_CELLS + "net a -> b 9999999999999999",
                     "net delay out of range, must be below 2^53 (line 7, col 12)"),
    "net 17 digits": (EDGE_CELLS + "net a -> b 10000000000000000",
                      "net delay out of range, must be below 2^53 (line 7, col 12)"),
    "net leading zeros": (EDGE_CELLS + "net a -> b 0042", EDGE_CELLS + "net a -> b 42"),
    "net arabic-indic": (EDGE_CELLS + "net a -> b \u0663",
                         "malformed net delay '\u0663', expected a non-negative integer (line 7, col 12)"),
    "net full-width": (EDGE_CELLS + "net a -> b \uff15",
                       "malformed net delay '\uff15', expected a non-negative integer (line 7, col 12)"),
    "forward references": ("net a -> b 3\nffpair d q\n" + EDGE_CELLS + "net b -> c 2",
                           EDGE_CELLS + "net a -> b 3\nnet b -> c 2\nffpair d q"),
    "forward unknown": ("net a -> z 3\n" + EDGE_CELLS, "net a->z references unknown cell z (line 2)"),
    "forward bad net src": ("net a! -> b 3\n" + EDGE_CELLS, "malformed net source id 'a!' (line 2, col 5)"),
    "forward bad net dst": ("net a -> b! 3\n" + EDGE_CELLS,
                            "malformed net destination id 'b!' (line 2, col 10)"),
    "forward bad ffpair d": ("ffpair d! q\n" + EDGE_CELLS, "malformed ffpair D id 'd!' (line 2, col 8)"),
    "forward bad ffpair q": ("ffpair d q?\n" + EDGE_CELLS, "malformed ffpair Q id 'q?' (line 2, col 10)"),
    "bad net dst by declared": (EDGE_CELLS + "net a -> b-1 3",
                                "malformed net destination id 'b-1' (line 7, col 10)"),
    "bad net src by declared": (EDGE_CELLS + "net b:0 -> c 3", "malformed net source id 'b:0' (line 7, col 5)"),
    "bad ffpair q by declared": (EDGE_CELLS + "ffpair d q\u00e9",
                                 "malformed ffpair Q id 'q\u00e9' (line 7, col 10)"),
    "bad ffpair d by declared": (EDGE_CELLS + "ffpair d\u00e9 q",
                                 "malformed ffpair D id 'd\u00e9' (line 7, col 8)"),
    "arrow missing": (EDGE_CELLS + "net a b c 3", "expected '->', found 'b' (line 7, col 7)"),
    "arrow and field missing": (EDGE_CELLS + "net a b 3",
                                "expected net <src> -> <dst> <delay_ps> (line 7, col 1)"),
    "arrow misspelt": (EDGE_CELLS + "net a -- b 3", "expected '->', found '--' (line 7, col 7)"),
    "tabs cell": ("cell\ta\tLUT1\t\u00b2",
                  "malformed logic delay '\u00b2', expected a non-negative integer (line 2, col 13)"),
    "tabs bad dst": (EDGE_CELLS + "net\ta\t->\tb!\t3", "malformed net destination id 'b!' (line 7, col 10)"),
    "tabs arrow": (EDGE_CELLS + "net\ta\t=>\tb\t3", "expected '->', found '=>' (line 7, col 7)"),
    "tabs 17 digits": (EDGE_CELLS + "net\ta \t->\tb\t\t12345678901234567",
                       "net delay out of range, must be below 2^53 (line 7, col 14)"),
    "tabs leading zeros": (EDGE_CELLS + "net\ta\t->\tb\t0012", EDGE_CELLS + "net a -> b 12"),
    # the quick path takes a line by keyword and token count, a kind by name and
    # a delay of at most 15 digits; everything else is checked field by field
    "cell too few": ("cell a LUT1", "expected cell <id> <kind> <delay_ps> (line 2, col 1)"),
    "cell too many": ("cell a LUT1 1 2", "expected cell <id> <kind> <delay_ps> (line 2, col 1)"),
    "net too few": (EDGE_CELLS + "net a -> b", "expected net <src> -> <dst> <delay_ps> (line 7, col 1)"),
    "net too many": (EDGE_CELLS + "net a -> b 3 4", "expected net <src> -> <dst> <delay_ps> (line 7, col 1)"),
    "ffpair too few": (EDGE_CELLS + "ffpair d", "expected ffpair <d_id> <q_id> (line 7, col 1)"),
    "ffpair too many": (EDGE_CELLS + "ffpair d q q", "expected ffpair <d_id> <q_id> (line 7, col 1)"),
    "cell lowercase kind": ("cell a lut1 1", "unknown cell kind lut1 (line 2, col 8)"),
    "cell kind __class__": ("cell a __class__ 1", "unknown cell kind __class__ (line 2, col 8)"),
    "cell kind _member_map_": ("cell a _member_map_ 1", "unknown cell kind _member_map_ (line 2, col 8)"),
    "cell bad id and kind": ("cell a! LUT9 1", "malformed cell id 'a!' (line 2, col 6)"),
    "cell duplicate, bad delay": ("cell a IN 0\ncell a LUT1 x",
                                  "malformed logic delay 'x', expected a non-negative integer (line 3, col 13)"),
    "cell 15 digits, leading zeros": ("cell a LUT1 000000000000042", "cell a LUT1 42"),
    "net 16 digits max": (EDGE_CELLS + "net a -> b 9007199254740991",
                          EDGE_CELLS + "net a -> b 9007199254740991"),
    "net 16 digits, leading zeros": (EDGE_CELLS + "net a -> b 0000000000000042", EDGE_CELLS + "net a -> b 42"),
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_EDGES))
def test_fast_path_edges_parse_as_pinned(case):
    body, expected = FAST_PATH_EDGES[case]
    text = f"{NETLIST_HEADER}\n{body}\n"
    for data in (text, text.encode()):
        if not expected.endswith(")"):  # accepted: pin the canonical bytes
            assert serialize_netlist(parse_netlist(data)).decode() == f"{NETLIST_HEADER}\n{expected}\n"
            continue
        with pytest.raises(ParseError) as err:
            parse_netlist(data)
        assert str(err.value) == expected
        located = re.search(r"\(line (\d+)(?:, col (\d+))?\)\Z", expected)
        column = located[2] and int(located[2])
        assert (err.value.line, err.value.column) == (int(located[1]), column)


def test_parse_outcomes_match_the_pinned_corpus():
    pinned = json.loads(parse_corpus.PIN.read_text(encoding="utf-8"))
    assert len(pinned) == parse_corpus.CASES
    for case, (want, got) in enumerate(zip(pinned, parse_corpus.entries())):
        assert got == want, f"corpus case {case}"


def test_utf8_byte_order_mark_before_header_is_accepted():
    plain = serialize_netlist(gen_gcd()[0])
    assert parse_netlist(b"\xef\xbb\xbf" + plain) == parse_netlist(plain)
    assert parse_netlist("\ufeff" + plain.decode()) == parse_netlist(plain)


def test_duplicate_cell_id_caught_at_parse():
    text = f"{NETLIST_HEADER}\ncell a IN 0\ncell a OUT 0\n"
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    assert "duplicate cell id a" in str(err.value)
    assert err.value.line == 3


def test_validation_errors_map_back_to_source_lines():
    text = f"{NETLIST_HEADER}\ncell a IN 0\ncell q FF_Q 0\nnet a -> q 1\n"
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    assert err.value.line == 4


def test_cycle_error_names_the_cycle_cells():
    text = (
        f"{NETLIST_HEADER}\n"
        "cell i IN 0\ncell a LUT2 1\ncell b LUT1 1\ncell o OUT 0\n"
        "net i -> a 1\nnet a -> b 1\nnet b -> a 1\nnet b -> o 1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_netlist(text)
    msg = str(err.value)
    assert "combinational cycle" in msg and "a" in msg and "b" in msg
    assert err.value.line == 7  # the cycle's first edge a -> b


# every validation rule parse_netlist can hit, after comments and blank lines:
# (text appended to VIOLATION_BASE, expected line, message)
VIOLATION_BASE = f"""# generated by hand

{NETLIST_HEADER}
# cells
cell i IN 0
cell a LUT2 1

cell b LUT1 1   # trailing comment
cell o OUT 0
cell d FF_D 0
cell q FF_Q 0
cell d2 FF_D 0
cell q2 FF_Q 0
net i -> a 1
  # the adder
net a -> b 1
net b -> o 1
ffpair d q

# broken below
"""
VIOLATION_LINES = {
    "dangling-net-src": ("net ghost -> a 2\n", 21, "net ghost->a references unknown cell ghost"),
    "dangling-net-dst": ("net a -> ghost 2\n", 21, "net a->ghost references unknown cell ghost"),
    "edge-into-source-kind": ("net b -> q 2\n", 21, "net b->q drives q of source kind FF_Q"),
    "edge-from-sink-kind": ("net d -> b 2\n", 21, "net d->b leaves d of sink kind FF_D"),
    "ffpair-unknown-cell": ("ffpair d2 ghost\n", 21, "ffpair d2/ghost references unknown cell ghost"),
    "ffpair-kind-mismatch": ("ffpair q2 d2\n", 21, "ffpair q2/d2 must pair an FF_D cell with an FF_Q cell"),
    # a cell in two ffpairs is located at its declaration
    "ffpair-duplicate": ("ffpair d2 q\n", 11, "cell q appears in more than one ffpair"),
    # a cycle is located at its first edge, a -> b
    "combinational-cycle": ("net b -> a 2\n", 16, "combinational cycle through a, b"),
    "self-loop": ("net b -> b 2\n", 8, "combinational cycle through b"),
    "source-kind-delay": ("cell k IN 3\n", 21, "cell k has kind IN and must have logic_delay 0"),
    # parallel nets: the first line wins
    "dangling twin": ("net a -> ghost 2\n\n# twin\nnet a -> ghost 5\n", 21,
                      "net a->ghost references unknown cell ghost"),
    "into-source twin": ("net b -> q 2\nnet b -> q 3\n", 21, "net b->q drives q of source kind FF_Q"),
    "cycle edge twin": ("net a -> b 7\nnet b -> a 2\n", 16, "combinational cycle through a, b"),
    "later cycle": ("cell c LUT1 1\n# loop\nnet b -> c 1\nnet c -> b 1\n", 23,
                    "combinational cycle through b, c"),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_LINES))
def test_violations_are_located_on_their_line(case):
    extra, line, message = VIOLATION_LINES[case]
    for data in (VIOLATION_BASE + extra, (VIOLATION_BASE + extra).encode()):
        with pytest.raises(ParseError) as err:
            parse_netlist(data)
        assert str(err.value) == f"{message} (line {line})"
        assert (err.value.line, err.value.column) == (line, None)


def test_parse_memory_is_linear_in_the_input():
    data = serialize_netlist(gen_random(3, 20000))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        parse_netlist(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 15 * len(data)


def test_parse_frees_the_decoded_text_before_parsing():
    # Above what the parsed netlist keeps, a parse holds its list of lines and
    # the tokens of one line. The decoded text, one more copy of the input, is
    # freed before the first line is parsed: 0.52x the input on Python 3.11
    # (0.63x on 3.10), against 0.86x (0.91x) for a scanner that kept the text
    # alive to the last line.
    data = serialize_netlist(gen_random(3, 20000))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        netlist = parse_netlist(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(netlist.cell_id) == 20000
    assert peak - kept <= 0.75 * len(data)


def test_netlist_serialization_is_canonical_and_stable():
    for nl in (gen_gcd()[0], gen_fig6(), gen_random(7, 15)):
        blob = serialize_netlist(nl)
        parsed = parse_netlist(blob)
        assert parsed == nl
        assert serialize_netlist(parsed) == blob
    assert serialize_netlist(parse_netlist(GOOD_NETLIST)) != GOOD_NETLIST.encode()


def test_parallel_nets_survive_round_trip():
    text = f"{NETLIST_HEADER}\ncell a IN 0\ncell b OUT 0\nnet a -> b 3\nnet a -> b 9\n"
    nl = parse_netlist(text)
    assert sorted(n.net_delay for n in nl.nets) == [3, 9]
    again = parse_netlist(serialize_netlist(nl))
    assert again == nl


def test_parse_good_profile():
    p = parse_profile(GOOD_PROFILE)
    assert p.cycles == 4
    assert p.firings == {"r0": (0, 2)}
    assert ("r0", "acc") in p.writes
    assert {str(b) for b, _ in p.reads} == {"top.alu"}


def test_profile_reference_and_shape_errors():
    cases = [
        ("cycles 4\ncycles 5", "duplicate cycles"),
        ("cycles 0", "cycle count must be >= 1"),
        ("rule r0 block b\nrule r0 block b\ncycles 1", "duplicate rule"),
        ("rule r0 blk b\ncycles 1", "expected 'block'"),
        ("cycles 2\nfires r9 0", "undeclared rule r9"),
        ("cycles 2\nrule r0 block b\nfires r0 0\nfires r0 1", "duplicate fires"),
        ("cycles 2\nrule r0 block b\nfires r0 0,0", "strictly increasing"),
        # a repeat at the end of a 200-cycle list, and a drop after a long rise
        ("cycles 300\nrule r0 block b\nfires r0 " + ",".join(map(str, [*range(199), 198])),
         "firing cycles must be strictly increasing, found 198 then 198 (line 4, col 10)"),
        ("cycles 300\nrule r0 block b\nfires r0 " + ",".join(map(str, [*range(150), 7])),
         "firing cycles must be strictly increasing, found 149 then 7 (line 4, col 10)"),
        ("cycles 2\nrule r0 block b\nfires r0 2", "out of range"),
        ("cycles 2\nrule r0 block b\nfires r0 1,x", "malformed firing cycle"),
        ("cycles 2\nrule r0 block b\nfires r0 1," + "1" * 5000, "out of range"),
        ("cycles " + "9" * 30, "cycle count out of range"),
        ("cycles 2\nwrites r9 s", "undeclared rule r9"),
        ("cycles 2\nrule r0 block b\nwrites r0 s\nwrites r0 s", "duplicate writes"),
        ("cycles 2\nrule r0 block b\nwrites r0 s\nreads c s", "undeclared block c"),
        ("cycles 2\nrule r0 block b\nreads b s", "unwritten state s"),
        ("cycles 2\nrule r0 block b\nwrites r0 s\nreads b s\nreads b s", "duplicate reads"),
        ("rule r0 block b", "missing cycles"),
    ]
    for body, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_profile(f"{PROFILE_HEADER}\n{body}\n")
        assert fragment in str(err.value), body


@pytest.mark.parametrize("text, values", [
    ("0", (0,)), ("0,1,10", (0, 1, 10)), ("00,01,010", (0, 1, 10)), ("0,007", (0, 7)),
    ("9007199254740990", (2**53 - 2,)), ("1,09007199254740990", (1, 2**53 - 2)),
])
def test_fires_lists_read_alike_with_and_without_leading_zeros(text, values):
    # a list of JSON integers is read in one call, any other is walked part by part
    p = parse_profile(f"{PROFILE_HEADER}\ncycles {2**53 - 1}\nrule r0 block b\nfires r0 {text}\n")
    assert p.firings == {"r0": values}


def test_rule_without_fires_line_means_it_never_fired():
    p = parse_profile(f"{PROFILE_HEADER}\ncycles 3\nrule r0 block b\n")
    assert p.firings == {"r0": ()}


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5_000))
def test_random_profiles_round_trip(seed):
    p = gen_random_profile(seed)
    assert parse_profile(serialize_profile(p)) == p


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 18))
def test_random_netlists_round_trip(seed, n):
    nl = gen_random(seed, n)
    blob = serialize_netlist(nl)
    assert parse_netlist(blob) == nl
    assert serialize_netlist(parse_netlist(blob)) == blob


# delays a caller can put on a Cell or Net; the wire format spells only ints below 2^53
_ANY_DELAY = st.one_of(st.integers(-2, 2**53 - 1), st.booleans(), st.sampled_from([None, 2.0, "3"]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5_000), st.integers(2, 18), st.integers(0, 10**6), _ANY_DELAY, st.booleans())
@example(0, 6, 1, True, False)
@example(0, 6, 1, True, True)
@example(0, 6, 1, 2**53 - 1, False)  # the largest delay the wire format spells
@example(0, 6, 1, 2**53 - 1, True)
def test_every_netlist_that_validates_clean_round_trips(seed, n, pick, delay, on_net):
    nl = gen_random(seed, n)
    cells, nets = list(nl.cells), list(nl.nets)
    if on_net and nets:
        old = nets[pick % len(nets)]
        nets[pick % len(nets)] = Net(old.src, old.dst, delay)
    else:
        old = cells[pick % len(cells)]
        cells[pick % len(cells)] = Cell(old.id, old.kind, delay)
    changed = Netlist(cells, nets, nl.ff_pairs)
    if validate(changed):
        return
    blob = serialize_netlist(changed)
    assert parse_netlist(blob) == changed
    assert serialize_netlist(parse_netlist(blob)) == blob


# netlists that validate clean but that the wire format cannot spell:
# (cells, nets, the error serialize_netlist raises)
_UNSPELLABLE = {
    "id with a space": (
        [Cell("a b", CellKind.IN), Cell("o", CellKind.OUT)], [Net("a b", "o", 1)],
        "cannot write cell id 'a b': ids must match [A-Za-z0-9_.]+",
    ),
    "smallest bad id named": (
        [Cell("z-1", CellKind.IN), Cell("m", CellKind.LUT1, 1), Cell("b+", CellKind.IN),
         Cell("o", CellKind.OUT)],
        [Net("z-1", "m", 1), Net("b+", "m", 1), Net("m", "o", 1)],
        "cannot write cell id 'b+': ids must match [A-Za-z0-9_.]+",
    ),
    "non-ascii id": (
        [Cell("é", CellKind.IN), Cell("o", CellKind.OUT)], [Net("é", "o", 1)],
        "cannot write cell id 'é': ids must match [A-Za-z0-9_.]+",
    ),
    "logic delay 2^53": (
        [Cell("i", CellKind.IN), Cell("x", CellKind.LUT1, 2**53), Cell("o", CellKind.OUT)],
        [Net("i", "x", 1), Net("x", "o", 1)],
        "cannot write cell x: logic delay 9007199254740992 is not an int in [0, 2^53)",
    ),
    "net delay above 2^53": (
        [Cell("i", CellKind.IN), Cell("o", CellKind.OUT)], [Net("i", "o", 2**60)],
        "cannot write net i->o: net delay 1152921504606846976 is not an int in [0, 2^53)",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNSPELLABLE))
def test_a_netlist_the_wire_format_cannot_spell_is_not_written(case):
    cells, nets, message = _UNSPELLABLE[case]
    nl = Netlist(cells, nets)
    assert validate(nl) == ()
    for order in (1, -1):  # the message names the same cell whatever the input order
        with pytest.raises(BlockscopeError) as err:
            serialize_netlist(Netlist(cells[::order], nets[::order]))
        assert str(err.value) == message


@pytest.mark.parametrize("delay", [None, True, "3", 2.5, -1])
@pytest.mark.parametrize("on_net", [False, True])
def test_a_delay_the_wire_format_cannot_spell_still_compares_and_is_named(delay, on_net):
    # the bad delay ties an int one on every other field, so a plain sort would compare the two
    def lists(delay):
        if on_net:
            return [Cell("i", CellKind.IN), Cell("o", CellKind.OUT)], [Net("i", "o", delay), Net("i", "o", 1)]
        cells = [Cell("i", CellKind.IN, delay), Cell("i", CellKind.IN, 1), Cell("o", CellKind.OUT)]
        return cells, [Net("i", "o", 1)]

    cells, nets = lists(delay)
    if on_net:
        message = f"cannot write net i->o: net delay {delay!r} is not an int in [0, 2^53)"
    else:
        message = f"cannot write cell i: logic delay {delay!r} is not an int in [0, 2^53)"
    for order in (1, -1):
        nl = Netlist(cells[::order], nets[::order])
        assert validate(nl) and nl == nl and nl == Netlist(cells, nets)
        if delay is True:  # a tuple compares True equal to 1, but True is no delay
            assert nl != Netlist(*lists(1))
        with pytest.raises(BlockscopeError) as err:
            serialize_netlist(nl)
        assert str(err.value) == message


# everything a Netlist indexes, compared between its two entry points, and its delay graph
INDEX_FIELDS = ("ids", "index", "kind", "logic", "source", "sink", "partner", "order", "cycle",
                "graph_violations")


def _assert_same_netlist(got, want, fields=INDEX_FIELDS + ("cells", "nets", "ff_pairs")):
    for name in fields:
        assert getattr(got, name) == getattr(want, name), name
    if want.order is not None:
        assert got.delay_graph() == want.delay_graph()
        return
    for nl in (got, want):  # a cyclic netlist has no delay graph
        with pytest.raises(ValidationError) as err:
            nl.delay_graph()
        assert err.value.violations == (want.cycle,)


def _netlist_text(cells, nets, pairs) -> str:
    """Netlist text with the lines in the given order, unlike serialize_netlist."""
    lines = [NETLIST_HEADER, *(f"cell {c.id} {c.kind.value} {c.logic_delay}" for c in cells)]
    lines += [f"net {n.src} -> {n.dst} {n.net_delay}" for n in nets]
    lines += [f"ffpair {d} {q}" for d, q in pairs]
    return "\n".join(lines) + "\n"


_DIFF_CELLS = [Cell("i", CellKind.IN), Cell("b", CellKind.LUT2, 4), Cell("a", CellKind.LUT1, 2),
               Cell("d", CellKind.FF_D), Cell("q", CellKind.FF_Q), Cell("o", CellKind.OUT)]
_DIFF_NETS = [Net("i", "b", 3), Net("q", "a", 1), Net("b", "o", 2), Net("a", "b", 5), Net("a", "d", 1)]
HAND_MADE_NETLISTS = {
    "valid": (_DIFF_CELLS, _DIFF_NETS, [("d", "q")]),
    "duplicate ids": (_DIFF_CELLS + [Cell("a", CellKind.LUT3, 7), Cell("i", CellKind.OUT)], _DIFF_NETS, []),
    "dangling nets": (_DIFF_CELLS, [Net("b", "ghost", 1), *_DIFF_NETS, Net("ghost", "o", 2)], []),
    "parallel nets": (_DIFF_CELLS, _DIFF_NETS + [Net("a", "b", 9), Net("i", "b", 3), Net("a", "b", 1),
                                                 Net("a", "b", 9), Net("b", "o", 0)], [("d", "q")]),
    "bad ffpairs": (_DIFF_CELLS, _DIFF_NETS, [("d", "q"), ("d", "ghost"), ("a", "q"), ("q", "d")]),
    "cycle": (_DIFF_CELLS, _DIFF_NETS + [Net("b", "a", 1)], []),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE_NETLISTS))
def test_netlist_from_objects_matches_netlist_from_columns(case):
    cells, nets, pairs = HAND_MADE_NETLISTS[case]
    want = Netlist(cells, nets, pairs)
    columns = Netlist._from_columns(
        [c.id for c in cells], [c.kind for c in cells], [c.logic_delay for c in cells],
        [n.src for n in nets], [n.dst for n in nets], [n.net_delay for n in nets], pairs,
    )
    _assert_same_netlist(columns, want)
    violations = validate(want)
    if not violations:
        _assert_same_netlist(parse_netlist(_netlist_text(cells, nets, pairs)), want)
    else:
        with pytest.raises(ParseError) as err:
            parse_netlist(_netlist_text(cells, nets, pairs))
        assert str(err.value).startswith(f"{violations[0].message} (line ")


def test_random_netlists_index_alike_from_objects_and_from_text():
    for seed in range(200):
        nl = gen_random(seed, 2 + seed % 97)
        parsed = parse_netlist(serialize_netlist(nl))
        # serialize_netlist writes cells by id and nets by (src, dst, delay)
        cells = sorted(nl.cells, key=lambda c: c.id)
        nets = sorted(nl.nets, key=lambda n: (n.src, n.dst, n.net_delay))
        _assert_same_netlist(parsed, Netlist(cells, nets, sorted(nl.ff_pairs)))
        _assert_same_netlist(parsed, nl, INDEX_FIELDS)  # the index does not depend on the input order


def _adjacent_swaps(blob: bytes):
    """Every file variant with two adjacent tokens of one line exchanged."""
    lines = blob.decode().splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for j in range(len(tokens) - 1):
            if tokens[j] == tokens[j + 1]:
                continue
            swapped = tokens[:j] + [tokens[j + 1], tokens[j]] + tokens[j + 2:]
            yield "\n".join(lines[:i] + [" ".join(swapped)] + lines[i + 1:]) + "\n"


def test_every_adjacent_field_swap_in_netlist_fails_to_parse():
    checked = 0
    for variant in _adjacent_swaps(serialize_netlist(gen_gcd()[0])):
        with pytest.raises(ParseError):
            parse_netlist(variant)
        checked += 1
    assert checked > 100


def test_every_adjacent_field_swap_in_profile_fails_to_parse():
    checked = 0
    for variant in _adjacent_swaps(serialize_profile(gen_gcd()[1])):
        with pytest.raises(ParseError):
            parse_profile(variant)
        checked += 1
    assert checked > 20


def test_power_model_defaults_and_overrides():
    model = parse_coefficients("", resolve_device("virtex7").power)
    assert model == resolve_device("virtex7").power
    assert model.static_uw["LUT3"] == pytest.approx(0.3)
    assert model.dynamic_pj["FF"] == pytest.approx(1.0)
    assert model.frequency_hz == pytest.approx(1e8)

    text = "static LUT3 2.5\ndynamic FF 0.25\nfrequency 5e7\n"
    model = parse_coefficients(text, resolve_device("virtex7").power)
    assert model.static_uw["LUT3"] == pytest.approx(2.5)
    assert model.static_uw["LUT4"] == pytest.approx(0.4)  # untouched default
    assert model.dynamic_pj["FF"] == pytest.approx(0.25)
    assert model.frequency_hz == pytest.approx(5e7)

    layered = parse_coefficients("static FF 9\n", model)
    assert layered.static_uw["FF"] == pytest.approx(9.0)
    assert layered.frequency_hz == pytest.approx(5e7)


def test_power_model_errors():
    cases = [
        ("static LUT9 1", "unknown resource kind"),
        ("static LUT3 1\nstatic LUT3 2", "duplicate static"),
        ("frequency 0", "frequency must be positive"),
        ("frequency 1e8\nfrequency 2e8", "duplicate frequency"),
        ("static LUT3 -1", "malformed static coefficient"),
        ("static LUT3 1e400", "static coefficient out of range, must be finite"),
        ("voltage 1.2", "unknown directive"),
    ]
    for body, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_coefficients(body, resolve_device("virtex7").power)
        assert fragment in str(err.value), body


# --- tokenizer and parser robustness ----------------------------------------


def _regex_scan(text: str):
    """The tokenizer str.split() replaced, kept as the reference: one
    re.finditer(r"\\S+") per line, each token with its 1-based column."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            lines.append((lineno, tokens))
    return lines


# separators str.splitlines(), str.split() and re's \s treat specially
_AWKWARD = list("ab1_.,->#") + [" ", "\t", "\n", "\r", "\r\n", "\n\n\n", "\x0b", "\x0c",
                                 "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
                                 "\u2028", "\u2029", "\u200b", "\u3000", "\ufeff"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=60).map("".join))
@example("a\tb # c\x1cd\x85 e\u2028\u3000f\n\n\n  g#")
def test_scan_matches_the_regex_tokenizer(text):
    got = list(_scan(text))
    want = _regex_scan(text.removeprefix("\ufeff"))
    assert [(lineno, tokens) for lineno, _, tokens in got] == [
        (lineno, [t for t, _ in tokens]) for lineno, tokens in want
    ]
    for line, (_, tokens) in zip(got, want):
        for index, (_, column) in enumerate(tokens):
            err = _error(line, index, "probe")
            assert (err.line, err.column) == (line[0], column)


def test_split_and_regex_agree_on_every_whitespace_code_point():
    space = re.compile(r"\s")
    assert all(ch.isspace() == bool(space.match(ch)) for ch in map(chr, range(0x110000)))


def _parse_power_model(data):
    return parse_coefficients(data, resolve_device("virtex7").power)


def _parse_device(data):
    base = resolve_device("virtex7")
    return parse_coefficients(data, base.power, (dict(base.logic_delays), dict(base.weights)))


_PARSERS = (parse_netlist, parse_profile, _parse_power_model, _parse_device)


def _parses_or_fails_cleanly(data):
    """Every parser either accepts data or raises a BlockscopeError; a
    ParseError points at a line of the input and a column inside it."""
    text = data.decode("utf-8", "replace") if isinstance(data, bytes) else data
    lines = text.removeprefix("\ufeff").splitlines() or [""]
    for parse in _PARSERS:
        try:
            parse(data)
        except ParseError as err:
            assert 1 <= err.line <= len(lines), (parse.__name__, str(err))
            if err.column is not None:
                assert 1 <= err.column <= len(lines[err.line - 1]), (parse.__name__, str(err))
        except BlockscopeError:
            pass


_HEADERS = [b"", f"{NETLIST_HEADER}\n".encode(), f"{PROFILE_HEADER}\n".encode(),
            f"{DEVICE_HEADER}\n".encode(), b"\xef\xbb\xbf"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_HEADERS), st.binary(max_size=200))
def test_arbitrary_bytes_parse_or_fail_cleanly(header, body):
    _parses_or_fails_cleanly(header + body)


_SAMPLES = {
    "gcd netlist": serialize_netlist(gen_gcd()[0]).decode(),
    "fig6 netlist": serialize_netlist(gen_fig6()).decode(),
    "gcd profile": serialize_profile(gen_gcd()[1]).decode(),
    "random profile": serialize_profile(gen_random_profile(3)).decode(),
    "device": f"{DEVICE_HEADER}\ndelay LUT6 40\nweight FF 2\nstatic LUT3 0.3\n"
              "dynamic FF 1\nfrequency 1e8\n",
}
_REPLACEMENTS = ["", "#", "->", "-1", "0", "1.5", "1e400", "9" * 30, "1" * 5000, "1," + "1" * 5000,
                 "0,0", "2,1", "LUT9", "FF_Q", "a..b", "__x", "x__", "cell", "net", "fires",
                 "block", "\ufeff", "\xff", "\x85", "nan", "inf"]


def _token_mutations(text: str, replacements):
    """Every variant of text with one token replaced by one of replacements."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for j in range(len(tokens)):
            for new in replacements:
                mutated = " ".join(tokens[:j] + [new] + tokens[j + 1:])
                yield "\n".join(lines[:i] + [mutated] + lines[i + 1:]) + "\n"


@pytest.mark.parametrize("sample", sorted(_SAMPLES))
def test_every_single_token_mutation_parses_or_fails_cleanly(sample):
    for text in _token_mutations(_SAMPLES[sample], _REPLACEMENTS):
        _parses_or_fails_cleanly(text)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_SAMPLES)), st.integers(0, 10**6), st.text(max_size=6))
def test_random_token_mutations_parse_or_fail_cleanly(sample, pick, replacement):
    variants = list(_token_mutations(_SAMPLES[sample], [replacement]))
    text = variants[pick % len(variants)]
    _parses_or_fails_cleanly(text)
    _parses_or_fails_cleanly(text.encode())
