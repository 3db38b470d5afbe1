"""Built-in device coefficient tables and custom device files."""

import pytest

from blockscope import model
from blockscope.annotation import build_registry
from blockscope.cli import main
from blockscope.delay import delay_report
from blockscope.devices import BUILTIN_DEVICES, resolve_device
from blockscope.fixtures import gen_fig6, gen_random
from blockscope.formats import DEVICE_HEADER, ParseError, VersionError, parse_netlist, serialize_netlist
from blockscope.model import BlockscopeError, CellKind, Net, Netlist, validate

from oracles import topological_order


def test_builtin_names():
    assert BUILTIN_DEVICES == ("spartan6", "virtex5", "virtex7")


def test_builtin_lut_delay_tables():
    # LUT_k = LUT6 * k / 6, rounded half-up: 200/6 = 33.33 -> 33, 43/6 = 7.17 -> 7
    expected = {
        "spartan6": {1: 33, 2: 67, 3: 100, 4: 133, 5: 167, 6: 200},
        "virtex5": {1: 13, 2: 27, 3: 40, 4: 53, 5: 67, 6: 80},
        "virtex7": {1: 7, 2: 13, 3: 20, 4: 27, 5: 33, 6: 40},
    }
    for name, table in expected.items():
        device = resolve_device(name)
        got = {k: device.logic_delays[CellKind[f"LUT{k}"]] for k in range(1, 7)}
        assert got == table, name
        for kind in (CellKind.FF_D, CellKind.FF_Q, CellKind.CLK, CellKind.IN,
                     CellKind.OUT, CellKind.MEM_IN):
            assert device.logic_delays[kind] == 0


def test_delays_scale_strictly_down_the_generations():
    s6, v5, v7 = (resolve_device(n) for n in BUILTIN_DEVICES)
    for k in range(1, 7):
        kind = CellKind[f"LUT{k}"]
        assert s6.logic_delays[kind] > v5.logic_delays[kind] > v7.logic_delays[kind] > 0


def test_builtins_share_weights_and_power_model():
    profiles = [resolve_device(n) for n in BUILTIN_DEVICES]
    assert len({id(p.weights) for p in profiles}) == len(profiles)  # equal, not one shared table
    for p in profiles[1:]:
        assert p.weights == profiles[0].weights
        assert p.power == profiles[0].power


def test_apply_delays_rewrites_logic_only():
    nl = gen_fig6()
    device = resolve_device("spartan6")
    scaled = device.apply_delays(nl)
    assert validate(scaled) == ()
    assert scaled.cell("core__a1").logic_delay == 33  # LUT1 on spartan6
    assert scaled.cell("ff_q_a").logic_delay == 0
    assert scaled.nets == nl.nets
    assert scaled.ff_pairs == nl.ff_pairs
    assert sorted(scaled.ids) == sorted(nl.ids)


def test_apply_delays_shares_the_graph_and_its_order(monkeypatch):
    device = resolve_device("spartan6")
    parsed = parse_netlist(serialize_netlist(gen_random(4, 200)))
    for nl in (gen_fig6(), parsed):
        scaled = device.apply_delays(nl)
        assert validate(scaled) == ()
        assert scaled.nets == nl.nets and scaled.ff_pairs is nl.ff_pairs
        for column in ("net_src", "net_dst", "net_delay"):
            assert getattr(scaled, column) is getattr(nl, column)
        assert [c.id for c in scaled.cells] == [c.id for c in nl.cells]
        assert all(c.logic_delay == device.logic_delays[c.kind] for c in scaled.cells)
        fresh = Netlist(scaled.cells, scaled.nets, scaled.ff_pairs)
        assert scaled == fresh
        assert topological_order(scaled) == topological_order(fresh)
        for name in ("ids", "index", "source", "sink", "partner", "graph_violations"):
            assert getattr(scaled, name) is getattr(nl, name), name
            assert getattr(scaled, name) == getattr(fresh, name), name
        # a copy made before the build shares the graph, and so does one made after
        assert scaled.delay_graph() is nl.delay_graph()
        assert scaled.delay_graph() == fresh.delay_graph()
        assert device.apply_delays(nl).delay_graph() is nl.delay_graph()
        assert scaled.logic == fresh.logic != nl.logic
        for cid in nl.ids:
            assert scaled.cell(cid) == fresh.cell(cid)
    assert parsed != device.apply_delays(parsed)  # the source keeps its own delays
    # a dangling net and a cycle: the rules found at construction are shared too
    cid = parsed.ids[-1]
    broken = Netlist(parsed.cells, parsed.nets + (Net(cid, "ghost", 1), Net(cid, cid, 1)))
    scaled = device.apply_delays(broken)
    assert scaled.graph_violations is broken.graph_violations
    assert [v.rule for v in scaled.graph_violations] == ["dangling-net-dst"]
    assert scaled.cycle is broken.cycle and scaled.cycle.cells == (cid,)
    # a copy made before the graph is built shares the one it builds, copy first;
    # one made after the build returns the same record and builds nothing
    builds = []
    real = model._delay_graph
    monkeypatch.setattr(model, "_delay_graph", lambda *args: builds.append(1) or real(*args))
    nl = parse_netlist(serialize_netlist(gen_random(4, 200)))
    scaled = device.apply_delays(nl)
    assert builds == []
    graph = scaled.delay_graph()
    assert len(builds) == 1 and scaled.delay_graph() is graph
    assert nl.delay_graph() is graph and graph == parsed.delay_graph()
    assert len(builds) == 1
    assert device.apply_delays(nl).delay_graph() is graph
    assert device.apply_delays(scaled).delay_graph() is graph
    assert len(builds) == 1


def test_every_device_copy_shares_one_delay_graph(monkeypatch):
    """One netlist re-timed for every built-in device before any read builds its
    delay graph once, whichever copy reads first."""
    calls = []
    real = model._delay_graph
    monkeypatch.setattr(model, "_delay_graph", lambda *args: calls.append(1) or real(*args))
    text = serialize_netlist(gen_random(7, 240))
    for first in range(len(BUILTIN_DEVICES)):
        calls.clear()
        nl = parse_netlist(text)
        copies = [resolve_device(d).apply_delays(nl) for d in BUILTIN_DEVICES]
        assert calls == []  # neither the parse nor the copies build it
        graph = copies[first].delay_graph()
        assert all(c.delay_graph() is graph for c in copies) and nl.delay_graph() is graph
        assert len(calls) == 1
    totals = set()
    for c in copies:
        fresh = parse_netlist(serialize_netlist(c))
        report = delay_report(c, build_registry(c))
        assert report == delay_report(fresh, build_registry(fresh))
        totals.add(report.global_critical.total_delay)
    assert len(totals) == 3  # each copy has its own device's delays


def test_override_delays_run_builds_the_delay_graph_once(monkeypatch, tmp_path, capsys):
    """The CLI copies the netlist with the device's delays before any read,
    so only the copy builds the graph."""
    builds = []
    real = model._delay_graph
    monkeypatch.setattr(model, "_delay_graph", lambda *args: builds.append(1) or real(*args))
    bnl = tmp_path / "n.bnl"
    bnl.write_bytes(serialize_netlist(gen_random(4, 200)))
    assert main(["analyze", "--netlist", str(bnl), "--device", "spartan6", "--override-delays",
                 "--metrics", "delay"]) == 0
    assert "global-critical: " in capsys.readouterr().out
    assert len(builds) == 1


def test_custom_device_file_overrides_base(tmp_path):
    text = (
        f"{DEVICE_HEADER}\n"
        "# a slow but cheap part\n"
        "delay LUT6 600\n"
        "weight LUT6 2.0\n"
        "static FF 0.9\n"
        "dynamic LUT1 4.5\n"
        "frequency 2.5e7\n"
    )
    path = tmp_path / "custom.bdv"
    path.write_text(text)
    device = resolve_device(str(path))
    assert device.name == "custom"
    assert device.logic_delays[CellKind.LUT6] == 600
    # unspecified entries fall back to virtex7
    assert device.logic_delays[CellKind.LUT3] == 20
    assert device.weights["LUT6"] == pytest.approx(2.0)
    assert device.weights["LUT5"] == pytest.approx(1.0)
    assert device.power.static_uw["FF"] == pytest.approx(0.9)
    assert device.power.dynamic_pj["LUT1"] == pytest.approx(4.5)
    assert device.power.frequency_hz == pytest.approx(2.5e7)


def test_custom_device_file_errors(tmp_path):
    cases = [
        ("delay LUT9 5", "unknown cell kind LUT9 (line 2, col 7)"),
        ("delay __class__ 5", "unknown cell kind __class__ (line 2, col 7)"),
        ("delay FF_Q 3", "must keep delay 0"),
        ("delay LUT6 5\ndelay LUT6 6", "duplicate delay"),
        ("weight GLUE 1", "unknown resource kind"),
        ("frequency 0", "frequency must be positive"),
        ("wat 1 2", "unknown directive"),
    ]
    for body, fragment in cases:
        path = tmp_path / "bad.bdv"
        path.write_text(f"{DEVICE_HEADER}\n{body}\n")
        with pytest.raises(ParseError) as err:
            resolve_device(str(path))
        assert fragment in str(err.value), body


def test_custom_device_file_needs_header(tmp_path):
    path = tmp_path / "x.bdv"
    path.write_text("delay LUT6 5\n")
    with pytest.raises(ParseError):
        resolve_device(str(path))
    path.write_text("blockscope-device v9\n")
    with pytest.raises(VersionError):
        resolve_device(str(path))


def test_resolve_device_by_name_or_path(tmp_path):
    assert resolve_device("virtex5").name == "virtex5"
    path = tmp_path / "mine.bdv"
    path.write_text(f"{DEVICE_HEADER}\ndelay LUT1 9\n")
    assert resolve_device(str(path)).logic_delays[CellKind.LUT1] == 9
    for unknown in ("kintex9", ""):  # Path("") would be the working directory
        with pytest.raises(BlockscopeError) as err:
            resolve_device(unknown)
        assert str(err.value) == f"unknown device profile {unknown!r}; built-ins: spartan6, virtex5, virtex7"
        assert not isinstance(err.value, ParseError)  # a name has no line to point at


def test_unreadable_device_path_is_an_input_error(tmp_path, capsys):
    with pytest.raises(BlockscopeError, match=f"cannot read {tmp_path}: Is a directory"):
        resolve_device(str(tmp_path))
    bnl = tmp_path / "fig6.bnl"
    bnl.write_bytes(serialize_netlist(gen_fig6()))
    assert main(["analyze", "--netlist", str(bnl), "--device", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"blockscope: error: cannot read {tmp_path}: Is a directory\n"
