"""End-to-end command line behavior via subprocess: exit codes, exact bytes,
and the fixtures subcommand."""

import gc
import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from blockscope import cli
from blockscope.cli import main
from blockscope.devices import DEVICE_HEADER
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random, gen_random_profile
from blockscope.formats import NETLIST_HEADER, parse_netlist, serialize_netlist, serialize_profile


def run_cli(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "blockscope.cli", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def gcd_files(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fx")
    result = run_cli("fixtures", "gcd", str(outdir))
    assert result.returncode == 0, result.stderr
    return outdir / "gcd.bnl", outdir / "gcd.bpf"


def test_fixtures_subcommand_writes_canonical_files(gcd_files):
    bnl, bpf = gcd_files
    netlist, profile = gen_gcd()
    assert bnl.read_bytes() == serialize_netlist(netlist)
    assert bpf.read_bytes() == serialize_profile(profile)


def test_fixtures_fig6_and_random(tmp_path):
    assert run_cli("fixtures", "fig6", str(tmp_path)).returncode == 0
    assert (tmp_path / "fig6.bnl").exists()
    assert run_cli("fixtures", "random:3:10", str(tmp_path)).returncode == 0
    parsed = parse_netlist((tmp_path / "random_3_10.bnl").read_bytes())
    assert len(parsed.body.cells) == 10


def test_fixtures_rejects_unknown_names(tmp_path):
    for bad in ("nope", "random:x:2", "random:1"):
        result = run_cli("fixtures", bad, str(tmp_path))
        assert result.returncode == 1
        assert b"blockscope: error:" in result.stderr


@pytest.mark.parametrize(
    "name, outdir",
    [
        ("gcd", "blocker"),  # the output directory is a regular file
        ("gcd", "blocker/out"),  # ... or lies below one
        ("random:1:99999999999999999999", "out"),
        ("random:1:-5", "out"),
    ],
)
def test_fixtures_input_errors_exit_1_and_write_nothing(tmp_path, capsys, name, outdir):
    (tmp_path / "blocker").write_text("")
    assert main(["fixtures", name, str(tmp_path / outdir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("blockscope: error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
    assert (tmp_path / "blocker").read_text() == ""


def test_analyze_success_and_silence_on_stderr(gcd_files):
    bnl, bpf = gcd_files
    result = run_cli("analyze", "--netlist", str(bnl), "--profile", str(bpf))
    assert result.returncode == 0
    assert result.stderr == b""
    assert b"ranking: subtract swap x y" in result.stdout


def test_analyze_digests_match_input_files(gcd_files):
    bnl, bpf = gcd_files
    result = run_cli(
        "analyze", "--netlist", str(bnl), "--profile", str(bpf), "--format", "structured"
    )
    doc = json.loads(result.stdout)
    assert doc["metadata"]["netlist_digest"] == "sha256:" + hashlib.sha256(bnl.read_bytes()).hexdigest()
    assert doc["metadata"]["profile_digest"] == "sha256:" + hashlib.sha256(bpf.read_bytes()).hexdigest()
    assert doc["metadata"]["group_depth"] is None


def test_metrics_flag_selects_sections(gcd_files):
    bnl, _ = gcd_files
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "area")
    assert result.returncode == 0
    assert b"AREA" in result.stdout and b"DELAY" not in result.stdout
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "area,bogus")
    assert result.returncode == 1
    assert b"unknown metric" in result.stderr


def test_power_without_profile_fails(gcd_files):
    bnl, _ = gcd_files
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "power")
    assert result.returncode == 1
    assert b"power metric requires --profile" in result.stderr
    assert result.stdout == b""


def test_default_metrics_add_power_only_with_profile(gcd_files):
    bnl, bpf = gcd_files
    without = run_cli("analyze", "--netlist", str(bnl))
    assert b"POWER" not in without.stdout
    with_profile = run_cli("analyze", "--netlist", str(bnl), "--profile", str(bpf))
    assert b"POWER" in with_profile.stdout


def test_missing_and_malformed_inputs_exit_1(gcd_files, tmp_path):
    result = run_cli("analyze", "--netlist", str(tmp_path / "absent.bnl"))
    assert result.returncode == 1 and b"cannot read" in result.stderr

    wrong = tmp_path / "wrong.bnl"
    wrong.write_text("blockscope-netlist v9\n")
    result = run_cli("analyze", "--netlist", str(wrong))
    assert result.returncode == 1 and b"unsupported version" in result.stderr

    looped = tmp_path / "loop.bnl"
    looped.write_text(
        f"{NETLIST_HEADER}\n"
        "cell u LUT1 1\ncell v LUT1 1\n"
        "net u -> v 1\nnet v -> u 1\n"
    )
    result = run_cli("analyze", "--netlist", str(looped))
    assert result.returncode == 1
    assert b"combinational cycle through u, v" in result.stderr


def test_usage_errors_exit_1():
    result = run_cli("analyze")
    assert result.returncode == 1 and b"--netlist" in result.stderr
    result = run_cli("analyze", "--netlist", "x", "--format", "yaml")
    assert result.returncode == 1


def test_empty_device_name_is_an_unknown_device(gcd_files, capsys):
    bnl, _ = gcd_files
    for command in (["analyze", "--netlist", str(bnl)], ["fixtures", "gcd", str(bnl.parent / "unused")]):
        assert main([*command, "--device", ""]) == 1
        assert capsys.readouterr().err == (
            "blockscope: error: unknown device profile ''; "
            "built-ins: spartan6, virtex5, virtex7 (line 1)\n"
        )
    assert not (bnl.parent / "unused").exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(gcd_files, tmp_path, capsys, monkeypatch, enabled):
    bnl, bpf = gcd_files
    bad = tmp_path / "bad.bnl"
    bad.write_text("not a netlist\n")
    during = []
    real_parse = cli.parse_netlist

    def parse_netlist(data):
        during.append(gc.isenabled())
        return real_parse(data)

    monkeypatch.setattr(cli, "parse_netlist", parse_netlist)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["analyze", "--netlist", str(bnl), "--profile", str(bpf)]) == 0
        assert gc.isenabled() is enabled
        assert main(["analyze", "--netlist", str(bad)]) == 1
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["analyze", "--format", "yaml"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]  # the runs themselves go without the collector


def test_readme_quick_start_report(tmp_path, capsysbinary, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands, report = re.findall(r"```[a-z]*\n(.*?)```", readme.split("## Quick start\n", 1)[1], re.S)[:2]
    monkeypatch.chdir(tmp_path)
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "blockscope"
        assert main(argv[1:]) == 0
    out = capsysbinary.readouterr().out.decode()
    # the README elides each digest after its first 8 hex digits
    assert re.sub(r"(sha256:[0-9a-f]{8})[0-9a-f]{56}", r"\1...", out) == report


def test_byte_determinism_across_runs_and_threads(gcd_files):
    bnl, bpf = gcd_files
    reference = None
    for _ in range(3):
        out = run_cli(
            "analyze", "--netlist", str(bnl), "--profile", str(bpf),
            "--format", "structured",
        ).stdout
        if reference is None:
            reference = out
        assert out == reference


def test_device_override_rescales_delays(gcd_files):
    bnl, _ = gcd_files
    stock = run_cli("analyze", "--netlist", str(bnl), "--metrics", "delay")
    assert b"global-critical: 126 ps" in stock.stdout
    # without --override-delays the device only renames the profile
    renamed = run_cli("analyze", "--netlist", str(bnl), "--metrics", "delay",
                      "--device", "spartan6")
    assert b"global-critical: 126 ps" in renamed.stdout
    assert b"device: spartan6" in renamed.stdout
    overridden = run_cli("analyze", "--netlist", str(bnl), "--metrics", "delay",
                         "--device", "spartan6", "--override-delays")
    assert b"global-critical: 524 ps" in overridden.stdout


def test_custom_device_file_via_flag(gcd_files, tmp_path):
    bnl, _ = gcd_files
    dev = tmp_path / "slow.bdv"
    dev.write_text(f"{DEVICE_HEADER}\ndelay LUT3 2000\ndelay LUT4 2000\n")
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "delay",
                     "--device", str(dev), "--override-delays")
    assert result.returncode == 0
    assert b"device: slow" in result.stdout
    assert b"global-critical: 8025 ps" in result.stdout  # 4 LUTs * 2000 + 25 net


def test_block_delay_nodes_only_flag(gcd_files):
    bnl, _ = gcd_files
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "delay",
                     "--block-delay-nodes-only")
    assert b"block-delay-nets: nodes-only" in result.stdout
    assert b"101" in result.stdout


def test_group_depth_flag(tmp_path):
    deep = tmp_path / "deep.bnl"
    deep.write_text(
        f"{NETLIST_HEADER}\n"
        "cell top.a__i IN 0\n"
        "cell top.b__l LUT1 3\n"
        "cell top.b__o OUT 0\n"
        "net top.a__i -> top.b__l 1\n"
        "net top.b__l -> top.b__o 1\n"
    )
    result = run_cli("analyze", "--netlist", str(deep), "--metrics", "area",
                     "--group-depth", "1", "--format", "structured")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert [b["block"] for b in doc["area"]["blocks"]] == ["top"]
    assert doc["metadata"]["group_depth"] == 1
    bad = run_cli("analyze", "--netlist", str(deep), "--group-depth", "0")
    assert bad.returncode == 1


def test_power_model_overlay(gcd_files, tmp_path):
    bnl, bpf = gcd_files
    pm = tmp_path / "hot.bpm"
    pm.write_text("static LUT4 10\nfrequency 1e6\n")
    result = run_cli("analyze", "--netlist", str(bnl), "--profile", str(bpf),
                     "--power-model", str(pm), "--format", "structured")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    sub = next(b for b in doc["power"]["blocks"] if b["block"] == "subtract")
    # 4 LUT4 at 10 uW + 1 LUT3 at the default 0.3
    assert sub["static_uw"] == pytest.approx(40.3)
    assert doc["power"]["frequency_hz"] == 1e6


def _reject_constant(name):
    raise ValueError(f"report holds {name}")


def test_non_finite_power_numbers_exit_1(gcd_files, tmp_path):
    bnl, bpf = gcd_files
    cases = [
        ("--power-model", "static LUT3 1e400\n",
         b"static coefficient out of range, must be finite (line 1, col 13)"),
        ("--power-model", "static FF 1\nfrequency " + "9" * 400 + "\n",
         b"frequency out of range, must be finite (line 2, col 11)"),
        ("--device", f"{DEVICE_HEADER}\ndynamic LUT4 1e999\n",
         b"dynamic coefficient out of range, must be finite (line 2, col 14)"),
        # finite coefficients whose products overflow
        ("--power-model", "dynamic LUT4 1e300\nfrequency 1e300\n",
         b"average power of block subtract overflows"),
        ("--power-model", "static LUT3 1e308\n", b"average power of block swap overflows"),
    ]
    for flag, text, message in cases:
        path = tmp_path / "coefficients"
        path.write_text(text)
        result = run_cli("analyze", "--netlist", str(bnl), "--profile", str(bpf),
                         flag, str(path), "--format", "structured")
        assert result.returncode == 1, text
        assert message in result.stderr, text
        assert result.stdout == b""
    # huge coefficients that do not overflow still give strict JSON
    path.write_text("static LUT3 1e307\ndynamic LUT3 1e290\n")
    result = run_cli("analyze", "--netlist", str(bnl), "--metrics", "power", "--profile", str(bpf),
                     "--power-model", str(path), "--format", "structured")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout, parse_constant=_reject_constant)
    assert max(b["static_uw"] for b in doc["power"]["blocks"]) == 2e307  # swap's two LUT3s


def test_non_finite_weighted_area_exits_1(gcd_files, tmp_path):
    bnl, _ = gcd_files
    cases = [
        # subtract has four LUT4s
        ("weight LUT4 1e308\n", b"weighted area of block subtract overflows"),
        # every block stays finite, their sum does not
        ("weight LUT3 8e307\nweight LUT4 1e307\n", b"weighted area of the totals overflows"),
    ]
    for text, message in cases:
        path = tmp_path / "device"
        path.write_text(f"{DEVICE_HEADER}\n{text}")
        result = run_cli("analyze", "--netlist", str(bnl), "--device", str(path),
                         "--metrics", "area", "--format", "structured")
        assert result.returncode == 1, text
        assert message in result.stderr, text
        assert result.stdout == b""


# sha256 of every report for fixed inputs: the report bytes are the contract,
# so a change that moves one byte of text, CSV or JSON output fails here.
GOLDEN_REPORTS = {
    "gcd plain text": "8771327282a65fd32e935e34c27e44ef03b103f8cb7512fb6e55581819d55cdf",
    "gcd plain csv": "07e76600a60ac50f9994ee358d52ea17c269853f4b8b54cc5f2012188fdda82e",
    "gcd plain structured": "d37219dd142e33df1ddc3c4ed46461b23385891b82ea94ae92d090ef97ea617c",
    "gcd depth1 text": "388aaab61211afbd3d58fc5bf1e92d1e50a2f5cdd5efd0e59f3c29f90fd69f79",
    "gcd depth1 csv": "07e76600a60ac50f9994ee358d52ea17c269853f4b8b54cc5f2012188fdda82e",
    "gcd depth1 structured": "ca63f2e046f82d83950eb38abaf0fb6186592e39fcad7f7b9cde7a3c55932882",
    "gcd nodes-only text": "3fe13b19277c4f0d628c28cb0911b0ec8da8838098ce453d55c64cdb62e92383",
    "gcd nodes-only csv": "af46f17206b4905a9295e779a7c1756b4c84bff889125abca8c9b833ff3573f5",
    "gcd nodes-only structured": "847485e164b8e67a6d885a56d9c9a42dc9f52f3c0294b3e0e1dadef63e275caf",
    "fig6 plain text": "5061f8893454acd38b22d042135f057abd706de3c0a7f7a0825389a0a54dc1f6",
    "fig6 plain csv": "f9118abd96c20d77de87f9336cfe3eb005489c529cb8e09d34a6cde7ffe1d859",
    "fig6 plain structured": "bb98d323f72f1f663b31d70a79e9399f82df994501b5ce3fefc7b5eceb245c6c",
    "fig6 depth1 text": "2e4d45f9c09dd559b60e44e0ea62f1285f21c4e89d5c2cba7592c31137666258",
    "fig6 depth1 csv": "f9118abd96c20d77de87f9336cfe3eb005489c529cb8e09d34a6cde7ffe1d859",
    "fig6 depth1 structured": "5d7cfd651fe3d038aa83630468c03fa9ef18316052df2f5a5b02195abde82767",
    "fig6 nodes-only text": "932788082a5e0ff340a74575e042899969db30df313e546cbcd21482d6fe5a64",
    "fig6 nodes-only csv": "f9118abd96c20d77de87f9336cfe3eb005489c529cb8e09d34a6cde7ffe1d859",
    "fig6 nodes-only structured": "cf520944e9bc3fc6484b179abfc4b82c41b121d94997eb63a2d71078a26461d3",
    "random2 plain text": "31ca5fa3e953bb113acb7913212296b452ced0532d618d0adad1888e6b229871",
    "random2 plain csv": "c7ddddf784686abdbada10fe48456a2324c075a8dbd98d163e1cc553ca3cb5e0",
    "random2 plain structured": "08e4cd3c27b54ec2ff4cfb9b4f45507805aada5fef4a29e56c51ff1ff544e35e",
    "random2 depth1 text": "435e885d04f463467c0b58db14b2b9d0c2ca70edbea4edc8d73930a2dee6000f",
    "random2 depth1 csv": "7b0cf4a5facb74efa6e5cd510770c456443f07cf49a112ee89795598d5bba274",
    "random2 depth1 structured": "0d00bb1a4e8c19397b569f4e8a8be7f87886bc4bffca5373bbf986502b2461e5",
    "random2 nodes-only text": "4ffd8d63eeabe9fe43b207102fe4bb8fadb4e75a704004e4d0834cca418eb5a0",
    "random2 nodes-only csv": "c7ddddf784686abdbada10fe48456a2324c075a8dbd98d163e1cc553ca3cb5e0",
    "random2 nodes-only structured": "2c4abf5d45f6d7bb841c7713412dc9cc2633f85d83a3c6f9990f18a88ba69c33",
    "random4 plain text": "fc1f54d5342af868868cfe539cffe55065990b2d585a0b62189d0d7a31eb2c5f",
    "random4 plain csv": "2e29b7f45cbbe7aee5db8a6ee920e79a2f228516e33f5d22318404c43fb95750",
    "random4 plain structured": "f55af1f3d0d37a955d195eae0a6c095720d9c4142caf0c7dd71022788e790e46",
    "random4 depth1 text": "a3c6837c78f167e4d59d97f54a37879a26d9fdffdf8b57f420724b7c0f172c6b",
    "random4 depth1 csv": "8376876291fba8260ff206071c6f7aac41b0122c7e699ceed207c2eea3ef622a",
    "random4 depth1 structured": "0dd491d453756fbf541b27bfcda63f172e4266badc8f71bf59ee6ef23d69a1ed",
    "random4 nodes-only text": "3fc9442d57c7c417a9b2f367a3bcb4ca494088794870e40baf0c28a64c967903",
    "random4 nodes-only csv": "bf71641d6e886e2957bd32c9ae2e0d810f253fb04dfc59b7a32aeff16047a781",
    "random4 nodes-only structured": "39d8c00182572ff551e7c71fd649e858b7b94c4cc386aa89a2e65acd3f8deb3d",
    "random11 plain text": "638700b4f8375398bdcd854e976ad3f14a14f518b296bacf8d2d5a0098ed7861",
    "random11 plain csv": "c3eb6bb0a55185c199c98e043f6f24a75f988df7f1ffbafb030a0bcf27b88d92",
    "random11 plain structured": "c21ff6d558dfaed1e6eb89567880fa8a6117933af1331badf0d924ca2ff92f05",
    "random11 depth1 text": "b729c9012e1789eb7d964eb8257873ce53b40425453390d593102f3fa71bbed3",
    "random11 depth1 csv": "f8ce2a9f1bfa529fae18ada4a0767170825eb58de07bc7b63e1024448de8bef5",
    "random11 depth1 structured": "02d9db839fbaa6580dd13b1051d19cfd63340507b68fc98bf5f5cfde5ff73863",
    "random11 nodes-only text": "4df5d7297c8bf45424d57d184bcb6f7f7b95cf70799f4bc7f0ef52a77ad9ba27",
    "random11 nodes-only csv": "2d740362595389dd6175aacedaef6104953416835f2b46c783adff9075cef9af",
    "random11 nodes-only structured": "e069473df89039df35cce5e95ca0900eaa417f322ad029c1bf005bda68da2e0b",
}


def _golden_inputs(outdir):
    gcd_nl, gcd_profile = gen_gcd()
    cases = {"gcd": (gcd_nl, gcd_profile), "fig6": (gen_fig6(), None)}
    for seed in (2, 4, 11):  # each has unannotated cells and multi-segment labels
        cases[f"random{seed}"] = (gen_random(seed, 24), gen_random_profile(seed))
    args = {}
    for name, (netlist, profile) in cases.items():
        (outdir / f"{name}.bnl").write_bytes(serialize_netlist(netlist))
        args[name] = ["--netlist", str(outdir / f"{name}.bnl")]
        if profile is not None:
            (outdir / f"{name}.bpf").write_bytes(serialize_profile(profile))
            args[name] += ["--profile", str(outdir / f"{name}.bpf")]
    return args


def test_report_bytes_match_frozen_digests(tmp_path, capsysbinary):
    variants = {"plain": [], "depth1": ["--group-depth", "1"],
                "nodes-only": ["--block-delay-nodes-only"]}
    got = {}
    for case, inputs in _golden_inputs(tmp_path).items():
        for variant, flags in variants.items():
            for fmt in ("text", "csv", "structured"):
                assert main(["analyze", *inputs, *flags, "--format", fmt]) == 0
                out = capsysbinary.readouterr().out
                got[f"{case} {variant} {fmt}"] = hashlib.sha256(out).hexdigest()
    assert got == GOLDEN_REPORTS


def test_out_of_range_delay_exits_1(tmp_path, capsys):
    bnl = tmp_path / "big.bnl"
    bnl.write_text(f"{NETLIST_HEADER}\ncell i IN 0\ncell a LUT1 {'9' * 30}\ncell o OUT 0\n"
                   "net i -> a 1\nnet a -> o 1\n")
    assert main(["analyze", "--netlist", str(bnl), "--metrics", "delay"]) == 1
    assert capsys.readouterr().err == (
        "blockscope: error: logic delay out of range, must be below 2^53 (line 3, col 13)\n"
    )


def test_profile_block_missing_from_netlist_warns(gcd_files, tmp_path):
    bnl, bpf = gcd_files
    ghost = tmp_path / "ghost.bpf"
    ghost.write_bytes(bpf.read_bytes() + b"rule rg block ghost\nfires rg 0,1\n")
    reports = {}
    for profile in (bpf, ghost):
        result = run_cli("analyze", "--netlist", str(bnl), "--profile", str(profile),
                         "--format", "structured")
        assert result.returncode == 0
        reports[profile] = json.loads(result.stdout)
        reports[profile]["metadata"].pop("profile_digest")
    assert result.stderr == (
        b"blockscope: warning: profile block ghost matches no netlist block; "
        b"its activity is ignored\n"
    )
    assert reports[ghost] == reports[bpf]  # the report itself is untouched


def test_frozen_digest_inputs_warn_only_for_absent_profile_blocks(tmp_path, capsys):
    # the random profiles name some labels that only exist once the netlist
    # is grouped to depth 1; gcd and fig6 never warn
    absent = {"random2": ["u1", "u1.c"], "random11": ["u0.a", "u2", "u2.c"]}
    for case, inputs in _golden_inputs(tmp_path).items():
        for flags in ([], ["--group-depth", "1"]):
            assert main(["analyze", *inputs, *flags]) == 0
            warned = capsys.readouterr().err.splitlines()
            expected = [] if flags else absent.get(case, [])
            assert warned == [
                f"blockscope: warning: profile block {label} matches no netlist block; "
                "its activity is ignored"
                for label in expected
            ], (case, flags)
