"""End-to-end command line behavior via subprocess: exit codes, exact bytes,
and the fixtures subcommand."""

import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockscope import cli
from blockscope.cli import main
from blockscope.devices import BUILTIN_DEVICES, resolve_device
from blockscope.fixtures import gen_fig6, gen_gcd, gen_random
from blockscope.formats import DEVICE_HEADER, NETLIST_HEADER, parse_netlist, serialize_netlist, serialize_profile

from profiles import gen_random_profile


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


# a console run's stdout is block buffered unless PYTHONUNBUFFERED is set; the
# hard-exit tests run without it, so the flush before os._exit is what they test
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
UNBUFFERED = {**BUFFERED, "PYTHONUNBUFFERED": "1"}


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
    assert len(parsed.cells) == 10


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


# sha256 of gcd.bnl for each (--device, --bit-width); these bytes may not change
GCD_NETLIST_SHA256 = {
    ("spartan6", 1): "2e9f36f8efb7784f5756c20d755488d54d33a3ad819ef8a8887cd365467a12e3",
    ("spartan6", 2): "4c8bfc69649407dabc0e76056b900fb5460c0e0e9d71cf94b4e4a0ab775b69c5",
    ("spartan6", 8): "7bd159079384bcb555c87dda65ec3e28ad861b38ba38ee9a745987ff663ebba3",
    ("virtex5", 1): "8f2c2f702e85d9af95a8947f6713f3ce3fee9ee11b14acca61ac1783d0455803",
    ("virtex5", 2): "b047c72c1e5c75c838b4fc7a37aac1311b8e193211226cfa5890fe43ce5a2c40",
    ("virtex5", 8): "72705fb4661458eb5a2f87a1aed704ef0449c4e2bd43199004d061f72dd559b5",
    ("virtex7", 1): "7d48bd20b12f36b782e52cf2899d99ea183a4fbbfb07b93a5801c27fdb934dea",
    ("virtex7", 2): "0459b17d07ecc32b3cc8d990f429c480133a832138f63e9216a4e27b6a84e1d3",
    ("virtex7", 8): "b80cdcf8758d9c90aaa7970d9c079b162307a368180e19388aed30380d371122",
    ("<file>", 1): "eaefb9907ec4ed53f3961064fe77956465855c21f6c6f0075ada20d0e99b6943",
    ("<file>", 2): "7a454bfaf74ff6b10f7a27d07129f946c90b2554db1ad429c00c106078abfedb",
    ("<file>", 8): "1086eee22a241d4be0c9b17426f65dc2500333203f298081e7a8315c4c977a74",
}
# gcd.bpf: one for every width and device
GCD_PROFILE_SHA256 = "ae931311db2a973c8797a40bb1ce3ea28e3ebf9198c1704b0fdd8753e8889bce"
GCD_DEVICE_FILE = f"{DEVICE_HEADER}\ndelay LUT1 7\ndelay LUT3 55\ndelay LUT4 1234\ndelay LUT6 999\n"


@pytest.mark.parametrize("device, width", list(GCD_NETLIST_SHA256))
def test_gcd_fixture_files_match_frozen_digests(tmp_path, device, width):
    name = device
    if device == "<file>":
        (tmp_path / "mine.bdv").write_text(GCD_DEVICE_FILE)
        name = str(tmp_path / "mine.bdv")
    assert main(["fixtures", "gcd", str(tmp_path / "out"), "--bit-width", str(width), "--device", name]) == 0
    digests = [hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in ("gcd.bnl", "gcd.bpf")]
    assert digests == [GCD_NETLIST_SHA256[device, width], GCD_PROFILE_SHA256]


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
    # an unknown name is reported before --profile is missed; an empty list is one empty name
    for spelling, name in (("area,bogus", "bogus"), ("power,bogus", "bogus"), ("", ""), (",", "")):
        result = run_cli("analyze", "--netlist", str(bnl), "--metrics", spelling)
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == f"blockscope: error: unknown metric {name!r}; expected area, delay, power\n".encode()


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


@pytest.mark.parametrize(
    "metrics", [("--metrics", "area"), ("--metrics", "area,power"), ("--metrics", "delay"), ()],
    ids=["area", "area,power", "delay", "default"],
)
def test_cyclic_netlist_fails_alike_under_every_metric_set(gcd_files, tmp_path, capsys, metrics):
    # area and power never read the delay graph, yet the cycle is an input
    # error there too, located at its first edge
    _, bpf = gcd_files
    looped = tmp_path / "loop.bnl"
    looped.write_text(
        f"{NETLIST_HEADER}\n"
        "cell i IN 0\ncell u LUT2 1\ncell v LUT1 1\ncell o OUT 0\n"
        "net i -> u 1\nnet u -> v 1\nnet v -> u 1\nnet v -> o 1\n"
    )
    profile = ("--profile", str(bpf)) if "area,power" in metrics else ()
    assert main(["analyze", "--netlist", str(looped), *metrics, *profile]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"blockscope: error: {looped}: combinational cycle through u, v (line 7)\n"


def test_csv_analysis_loads_no_hashlib(gcd_files):
    # CSV prints no digest, so a CSV run neither hashes its inputs nor loads
    # hashlib; its fields need no quoting, so it loads no csv either
    bnl, bpf = gcd_files
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from blockscope.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted({'hashlib', '_hashlib', 'csv'} & (set(sys.modules) - before)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["analyze", "--netlist", str(bnl), "--profile", str(bpf), "--format", "csv"]
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True)
    assert (result.returncode, result.stderr) == (0, b"[]\n")
    assert result.stdout.startswith(b"section,block,")


def test_usage_errors_exit_1():
    result = run_cli("analyze")
    assert result.returncode == 1 and b"--netlist" in result.stderr
    result = run_cli("analyze", "--netlist", "x", "--format", "yaml")
    assert result.returncode == 1


@pytest.mark.parametrize(
    "argv, names",
    [
        ([], "COMMAND"),
        (["analyze"], "--netlist"),
        (["analyze", "--netlist", "x", "--group-depth", "x"], "--group-depth"),
        (["analyze", "--netlist", "x", "--format", "yaml"], "--format"),
        (["fixtures", "gcd"], "OUTDIR"),
        (["nope"], "'nope'"),
    ],
    ids=["no-command", "no-netlist", "bad-group-depth", "bad-format", "no-outdir", "bad-command"],
)
def test_usage_errors_print_one_line(capsys, argv, names):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("blockscope: error: ") and names in err


@pytest.mark.parametrize("flag", ["--netlist", "--profile", "--power-model", "OUTDIR"])
def test_a_nul_byte_in_a_path_is_an_input_error(gcd_files, capsys, flag):
    # a shell cannot pass a NUL, but a caller of main(argv) can
    bnl, bpf = gcd_files
    if flag == "OUTDIR":
        argv, message = ["fixtures", "gcd", "a\0b"], "cannot write"
    else:  # the files are read in this order, so the NUL path is the first that fails
        paths = {"--netlist": str(bnl), "--profile": str(bpf), "--power-model": "unread", flag: "a\0b"}
        argv, message = ["analyze", *(arg for item in paths.items() for arg in item)], "cannot read"
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"blockscope: error: {message} a\\x00b: embedded null byte\n")


def test_a_newline_in_a_missing_path_is_one_error_line(tmp_path):
    result = run_cli("analyze", "--netlist", f"{tmp_path}/no\nsuch.bnl")
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.decode() == (
        f"blockscope: error: cannot read {tmp_path}/no\\nsuch.bnl: No such file or directory\n")


def test_a_newline_in_outdir_is_one_wrote_line_per_file(tmp_path):
    result = run_cli("fixtures", "gcd", f"{tmp_path}/d\nir")
    assert (result.returncode, result.stdout) == (0, b"")
    assert result.stderr.decode() == f"wrote {tmp_path}/d\\nir/gcd.bnl\nwrote {tmp_path}/d\\nir/gcd.bpf\n"
    assert sorted(p.name for p in (tmp_path / "d\nir").iterdir()) == ["gcd.bnl", "gcd.bpf"]


@pytest.mark.parametrize(
    "argv, text", [(["--version"], "blockscope 0.1.0\n"), (["analyze", "--help"], "--netlist")]
)
def test_help_and_version_return_0(capsys, argv, text):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert text in out and err == ""


@pytest.mark.parametrize(
    "call, marker", [("main()", b""), ("main(sys.argv[1:])", b"atexit ran\n")], ids=["console", "list"]
)
def test_only_the_console_call_ends_the_process(call, marker):
    # main() flushes and leaves by os._exit, so no atexit handler runs;
    # main(argv) returns its code to a caller that goes on
    script = (
        "import atexit, sys\n"
        "atexit.register(print, 'atexit ran')\n"
        "from blockscope.cli import main\n"
        f"sys.exit({call})\n"
    )
    result = subprocess.run([sys.executable, "-c", script, "--version"], capture_output=True, env=BUFFERED)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"blockscope 0.1.0\n" + marker, b"")


# argv, then the exit code, the first line of stdout and all of stderr
CONSOLE_CASES = {
    "version": (["--version"], 0, "blockscope 0.1.0", ""),
    "help": (["--help"], 0, "usage: blockscope [-h] [--version] COMMAND ...", ""),
    "usage-error": (["analyze", "--netlist", "{bnl}", "--bogus"], 1, "",
                    "blockscope: error: unrecognized arguments: --bogus\n"),
    "input-error": (["analyze", "--netlist", "{absent}"], 1, "",
                    "blockscope: error: cannot read {absent}: No such file or directory\n"),
    "analyze": (["analyze", "--netlist", "{bnl}", "--profile", "{bpf}"], 0, "blockscope-report v1", ""),
}


@pytest.mark.parametrize("case", CONSOLE_CASES)
def test_console_run_prints_what_main_returns(gcd_files, tmp_path, capsysbinary, monkeypatch, case):
    # stdout to a regular file is block buffered, so bytes left unflushed at
    # the hard exit would be missing here; the help text wraps at COLUMNS
    bnl, bpf = gcd_files
    names = {"bnl": bnl, "bpf": bpf, "absent": tmp_path / "absent.bnl"}
    argv, code, first_line, err = CONSOLE_CASES[case]
    argv = [arg.format(**names) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # for main(argv) here; the subprocess gets its own
    out = tmp_path / "stdout"
    with open(out, "wb") as stdout:
        result = subprocess.run([sys.executable, "-m", "blockscope.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env={**BUFFERED, "COLUMNS": "80"})
    console = (result.returncode, out.read_bytes(), result.stderr)
    assert console == (main(argv), *capsysbinary.readouterr())
    assert (console[0], console[1].partition(b"\n")[0], console[2]) == (
        code, first_line.encode(), err.format(**names).encode()
    )


def test_report_to_a_closed_stdout_exits_1(gcd_files):
    bnl, _ = gcd_files
    # fd 1 is closed before the interpreter starts, as `>&-` in a shell does
    closed = ("import os, sys; os.close(1); "
              "os.execv(sys.executable, [sys.executable, '-m', 'blockscope.cli', *sys.argv[1:]])")
    result = subprocess.run([sys.executable, "-c", closed, "analyze", "--netlist", str(bnl)],
                            stderr=subprocess.PIPE)
    assert (result.returncode, result.stderr) == (1, b"blockscope: error: cannot write stdout: it is closed\n")


@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
def test_report_to_a_closed_pipe_exits_1(gcd_files, env):
    # a reader that has gone away: the write fails with EPIPE, and the bytes
    # a buffered stdout still holds must not fail again at exit
    bnl, _ = gcd_files
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "blockscope.cli", "analyze", "--netlist", str(bnl)],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"blockscope: error: cannot write stdout: Broken pipe\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
def test_report_to_a_full_device_exits_1(gcd_files, env):
    bnl, _ = gcd_files
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "blockscope.cli", "analyze", "--netlist", str(bnl)],
                                stdout=full, stderr=subprocess.PIPE, env=env)
    assert (result.returncode, result.stderr) == (
        1, b"blockscope: error: cannot write stdout: No space left on device\n"
    )


# fd 2 is closed before the interpreter starts, as `2>&-` in a shell does
CLOSED_STDERR = ("import os, sys; os.close(2); "
                 "os.execv(sys.executable, [sys.executable, '-m', 'blockscope.cli', *sys.argv[1:]])")
NO_DEV_FULL = pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")


def run_without_stderr(args, stderr, env):
    """A console run whose stderr is closed, or /dev/full, which refuses every write."""
    if stderr == "closed":
        return subprocess.run([sys.executable, "-c", CLOSED_STDERR, *args], stdout=subprocess.PIPE, env=env)
    with open("/dev/full", "wb") as full:
        return subprocess.run([sys.executable, "-m", "blockscope.cli", *args],
                              stdout=subprocess.PIPE, stderr=full, env=env)


UNWRITABLE_STDERR = ["closed", pytest.param("full", marks=NO_DEV_FULL)]


@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", UNWRITABLE_STDERR)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_warning_stderr_cannot_take_is_dropped(gcd_files, tmp_path, env, stderr, fmt):
    # the warning must neither land in the report nor change the exit code
    bnl, bpf = gcd_files
    ghost = tmp_path / "ghost.bpf"
    ghost.write_bytes(bpf.read_bytes() + b"rule ghost_r block ghost\n")
    args = ["analyze", "--netlist", str(bnl), "--profile", str(ghost), "--format", fmt]
    with_stderr = run_cli(*args, env=env)
    assert (with_stderr.returncode, with_stderr.stderr) == (
        0, b"blockscope: warning: profile block ghost matches no netlist block; its activity is ignored\n"
    )
    result = run_without_stderr(args, stderr, env)
    assert (result.returncode, result.stdout) == (0, with_stderr.stdout)
    if fmt == "structured":
        json.loads(result.stdout)


@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
def test_an_error_with_stderr_closed_leaves_stdout_empty(tmp_path, env):
    result = run_without_stderr(["analyze", "--netlist", str(tmp_path / "absent.bnl")], "closed", env)
    assert (result.returncode, result.stdout) == (1, b"")


@pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr", UNWRITABLE_STDERR)
def test_fixtures_write_every_file_when_stderr_cannot_take_the_wrote_lines(gcd_files, tmp_path, env, stderr):
    result = run_without_stderr(["fixtures", "gcd", str(tmp_path / "out")], stderr, env)
    assert (result.returncode, result.stdout) == (0, b"")
    for made in gcd_files:
        assert (tmp_path / "out" / made.name).read_bytes() == made.read_bytes()


def test_empty_device_name_is_an_unknown_device(gcd_files, capsys):
    bnl, _ = gcd_files
    for command in (["analyze", "--netlist", str(bnl)], ["fixtures", "gcd", str(bnl.parent / "unused")]):
        assert main([*command, "--device", ""]) == 1
        assert capsys.readouterr().err == (
            "blockscope: error: unknown device profile ''; "
            "built-ins: spartan6, virtex5, virtex7\n"
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
        assert main(["analyze", "--format", "yaml"]) == 1
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


def test_readme_library_use(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    example, one_block = re.findall(r"```python\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    assert main(["fixtures", "gcd", "."]) == 0
    capsys.readouterr()
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    assert capsys.readouterr().out.splitlines() == ["126", "12.0", "['subtract', 'swap', 'x', 'y']"]
    # the second example runs on the first one's names
    exec(compile(one_block, "README.md", "exec"), scope)
    assert capsys.readouterr().out.splitlines() == ["126 52"]


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
    assert (bad.stdout, bad.stderr) == (b"", b"blockscope: error: group depth must be at least 1\n")
    # checked before any input is read
    unread = run_cli("analyze", "--netlist", str(tmp_path / "missing.bnl"), "--group-depth", "0")
    assert (unread.returncode, unread.stderr) == (1, bad.stderr)


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


def test_device_file_with_power_model_overlay(gcd_files, tmp_path):
    from blockscope.area import RESOURCE_KINDS
    from blockscope.devices import resolve_device

    bnl, bpf = gcd_files
    dev = tmp_path / "board.bdv"
    dev.write_text(f"{DEVICE_HEADER}\nweight LUT4 2.5\nweight FF 3\n"
                   "static LUT4 7\nstatic LUT3 1.5\nstatic FF 2\n")
    pm = tmp_path / "hot.bpm"
    pm.write_text("static LUT4 10\n")
    result = run_cli("analyze", "--netlist", str(bnl), "--profile", str(bpf), "--device", str(dev),
                     "--power-model", str(pm), "--format", "structured")
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["metadata"]["device"] == "board"
    base = resolve_device("virtex7")
    weights = {**base.weights, "LUT4": 2.5, "FF": 3.0}
    static = {**base.power.static_uw, "LUT3": 1.5, "FF": 2.0, "LUT4": 10.0}  # LUT4: the power model's
    area_rows = {e["block"]: e for e in doc["area"]["blocks"]}
    assert sorted(area_rows) == ["subtract", "swap", "x", "y"]
    for entry in doc["area"]["blocks"] + [doc["area"]["totals"]]:
        expected = sum(entry["counts"][k] * weights[k] for k in RESOURCE_KINDS)
        assert entry["weighted_area"] == pytest.approx(expected), entry["block"]
    for entry in doc["power"]["blocks"]:
        counts = area_rows[entry["block"]]["counts"]
        expected = sum(counts[k] * static[k] for k in RESOURCE_KINDS)
        assert entry["static_uw"] == pytest.approx(expected), entry["block"]
    assert any(area_rows[b]["counts"]["LUT3"] and area_rows[b]["counts"]["LUT4"] for b in area_rows)


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


def test_power_only_report_ignores_the_area_weights(gcd_files, tmp_path, capsysbinary):
    """Power weighs the area report's counts, but a report that prints no area
    never fails on its weights."""
    bnl, bpf = gcd_files
    device = tmp_path / "device"
    device.write_text(f"{DEVICE_HEADER}\nweight LUT4 1e308\n")  # subtract's area overflows
    power = []
    for name in (str(device), "virtex7"):
        code = main(["analyze", "--netlist", str(bnl), "--profile", str(bpf), "--device", name,
                     "--metrics", "power", "--format", "structured"])
        out, err = capsysbinary.readouterr()
        assert (code, err) == (0, b""), name
        doc = json.loads(out)
        assert doc["area"] is None, name
        power.append(doc["power"])
    assert power[0] == power[1]


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
        f"blockscope: error: {bnl}: logic delay out of range, must be below 2^53 (line 3, col 13)\n"
    )


# "cannot read <path>" names the file already; an error found inside one names it too
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--netlist", "expected header 'blockscope-netlist v1', found 'oops' (line 2)"),
        ("--profile", "expected header 'blockscope-profile v1', found 'oops' (line 2)"),
        ("--power-model", "unknown directive 'oops' (line 2, col 1)"),
        ("--device", "expected header 'blockscope-device v1', found 'oops' (line 2)"),
    ],
    ids=["netlist", "profile", "power-model", "device"],
)
def test_input_file_errors_name_the_file(gcd_files, tmp_path, capsys, flag, message):
    bnl, bpf = gcd_files
    bad = tmp_path / "bad.txt"
    bad.write_text("# not an input file\noops\n")
    args = {"--netlist": bnl, "--profile": bpf, flag: bad}
    assert main(["analyze", *(str(part) for pair in args.items() for part in pair)]) == 1
    assert capsys.readouterr() == ("", f"blockscope: error: {bad}: {message}\n")


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


def _device_file(name: str) -> bytes:
    """A built-in device written out as a device file: every table in full."""
    device = resolve_device(name)
    lines = [DEVICE_HEADER]
    lines += [f"delay {kind.name} {ps}" for kind, ps in device.logic_delays.items() if ps]
    lines += [f"weight {kind} {w!r}" for kind, w in device.weights.items()]
    lines += [f"static {kind} {uw!r}" for kind, uw in device.power.static_uw.items()]
    lines += [f"dynamic {kind} {pj!r}" for kind, pj in device.power.dynamic_pj.items()]
    lines.append(f"frequency {device.power.frequency_hz!r}")
    return "\n".join(lines).encode() + b"\n"


_GCD_NETLIST, _GCD_PROFILE = gen_gcd()
FUZZ_INPUTS = {
    "<netlist>": serialize_netlist(_GCD_NETLIST),
    "<profile>": serialize_profile(_GCD_PROFILE),
    "<device>": _device_file("virtex7"),
    "<power-model>": b"static LUT4 10\ndynamic FF 2.5\nfrequency 1e6\n",
}


@st.composite
def _damaged(draw, data: bytes) -> bytes:
    """data whole (half the time), cut short, or with up to four bytes replaced."""
    how = draw(st.sampled_from(["whole", "whole", "truncated", "mutated"]))
    if how == "truncated":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "mutated":
        data = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def _mostly(good, junk):
    """A good value three times in four, junk otherwise."""
    return st.integers(0, 3).flatmap(lambda pick: good if pick else junk)


# absent paths that hold a NUL or a character str.splitlines() breaks a line at
_HOSTILE = st.sampled_from(["\0", "\n", "\r", "\x85", "\u2028"]).map(lambda c: f"<absent{c}path>")
_NUMBER = _mostly(st.integers(1, 4).map(str),
                  st.one_of(st.sampled_from(["0", "-1", "", "x", "1.5", "9" * 25]), st.text(max_size=4)))
_DEVICE = _mostly(st.sampled_from([*BUILTIN_DEVICES, "<device>"]),
                  st.one_of(st.sampled_from(["", "nope", "<absent>"]), _HOSTILE, st.text(max_size=6)))
_ANALYZE_FLAGS = {
    "--profile": _mostly(st.just("<profile>"), _HOSTILE),
    "--power-model": _mostly(st.just("<power-model>"), _HOSTILE),
    "--device": _DEVICE,
    "--metrics": _mostly(st.sampled_from(["area", "delay", "area,power", " power , delay ", "power,area,delay"]),
                         st.one_of(st.sampled_from(["", ",", "area,", "Area"]), st.text(max_size=12))),
    "--group-depth": _NUMBER,
    "--format": _mostly(st.sampled_from(["text", "csv", "structured"]), st.sampled_from(["yaml", ""])),
    "--block-delay-nodes-only": None,
    "--override-delays": None,
}
_FIXTURES_FLAGS = {"--device": _DEVICE, "--bit-width": _NUMBER}


@st.composite
def _argv(draw) -> list[str]:
    """analyze or fixtures argv; <name> stands for a file the test writes,
    <absent...> for a path under the test's directory that names no file."""
    if draw(st.booleans()):
        chunks, flags = [["analyze"]], _ANALYZE_FLAGS
        pick = draw(st.integers(0, 9))  # now and then --netlist is missing or absent
        if pick:
            chunks.append(["--netlist", draw(_HOSTILE) if pick == 1 else "<netlist>"])
    else:
        name = draw(_mostly(st.sampled_from(["gcd", "fig6", "random:3:12"]),
                            st.sampled_from(["random:x:2", "random:1", "random:1:-5", "nope"])))
        chunks, flags = [["fixtures", name, draw(_mostly(st.just("<outdir>"), _HOSTILE))]], _FIXTURES_FLAGS
    for flag, values in flags.items():
        if not draw(st.integers(0, 2)):  # each flag in a third of the runs
            chunks.append([flag] if values is None else [flag, draw(values)])
    return chunks[0] + [arg for chunk in draw(st.permutations(chunks[1:])) for arg in chunk]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_argv(), inputs=st.fixed_dictionaries({name: _damaged(data) for name, data in FUZZ_INPUTS.items()}))
# every input file whole and given, so one run always reads them all
@example(argv=["analyze", "--netlist", "<netlist>", "--profile", "<profile>", "--device", "<device>",
               "--power-model", "<power-model>", "--override-delays"], inputs=FUZZ_INPUTS)
# a NUL in a path once ended in exit 2, a newline split one diagnostic into two lines
@example(argv=["analyze", "--netlist", "<absent\0path>"], inputs=FUZZ_INPUTS)
@example(argv=["fixtures", "gcd", "<absent\0path>"], inputs=FUZZ_INPUTS)
@example(argv=["analyze", "--netlist", "<absent\npath>"], inputs=FUZZ_INPUTS)
@example(argv=["fixtures", "gcd", "<absent\npath>"], inputs=FUZZ_INPUTS)
def test_cli_fuzz_exits_0_or_1_with_one_error_line(fuzz_dir, argv, inputs):
    paths = {"<outdir>": str(fuzz_dir / "out")}
    for name, data in inputs.items():
        paths[name] = str(fuzz_dir / name.strip("<>"))
        Path(paths[name]).write_bytes(data)
    argv = [str(fuzz_dir / arg.strip("<>")) if arg.startswith("<absent") else paths.get(arg, arg) for arg in argv]
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    lines = err.getvalue().splitlines()
    if code == 0:  # stderr holds only whole wrote lines and warnings
        assert all(line.startswith(("wrote ", "blockscope: warning: ")) for line in lines), (argv, lines)
        return
    assert (code, out.buffer.getvalue(), len(lines)) == (1, b"", 1), (argv, lines)
    assert lines[0].startswith("blockscope: error: "), (argv, lines)
