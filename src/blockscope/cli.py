"""Command line entry point: parse inputs, run the requested analyses, and
print one report to stdout. Exit 0 on success, 1 on any input or validation
error or a report that cannot be written, 2 on an internal invariant failure.
stdout holds only the report; errors, warnings and ``wrote`` lines go only to
stderr, and one that a closed or full stderr cannot take is dropped without
changing the exit code. ``main()``, the console script, flushes stdout and
ends the process itself; ``main(argv)`` returns the exit code."""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from . import __version__
from .annotation import check_group_depth
from .devices import BUILTIN_DEVICES, resolve_device
from .formats import (
    ParseError,
    parse_coefficients,
    parse_netlist,
    parse_profile,
    read_file,
    serialize_netlist,
    serialize_profile,
)
from .model import BlockscopeError
from .report import build_report, metric_names, render_csv, render_structured, render_text

_RENDERERS = {"text": render_text, "csv": render_csv, "structured": render_structured}


class _Parser(argparse.ArgumentParser):
    """argparse prints its usage and exits 2 on usage problems; those are
    input errors here, reported in one line like any other."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise BlockscopeError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockscope",
        description="block-level area, delay, and power analysis for annotated netlists",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    an = sub.add_parser("analyze", help="analyze a netlist and print a report")
    an.add_argument("--netlist", required=True, metavar="FILE",
                    help="netlist file (blockscope-netlist v1)")
    an.add_argument("--profile", metavar="FILE",
                    help="activity profile file (blockscope-profile v1)")
    an.add_argument("--power-model", metavar="FILE",
                    help="power model directives layered over the device profile")
    an.add_argument("--device", default="virtex7", metavar="NAME|FILE",
                    help="built-in device (%s) or a device profile file "
                         "(default: virtex7)" % ", ".join(BUILTIN_DEVICES))
    an.add_argument("--metrics", metavar="LIST",
                    help="comma separated subset of area,delay,power (default: "
                         "area,delay, plus power when --profile is given)")
    an.add_argument("--group-depth", type=int, metavar="N",
                    help="merge block labels after their first N segments")
    an.add_argument("--format", choices=sorted(_RENDERERS), default="text", dest="fmt",
                    help="output format (default: text)")
    an.add_argument("--block-delay-nodes-only", action="store_true",
                    help="score block delay from cell delays only, ignoring intra-block nets")
    an.add_argument("--override-delays", action="store_true",
                    help="replace netlist logic delays with the device profile's per-kind delays")

    fx = sub.add_parser("fixtures", help="write bundled example inputs to a directory")
    fx.add_argument("name", metavar="NAME", help="gcd, fig6, or random:<seed>:<cells>")
    fx.add_argument("outdir", metavar="OUTDIR", help="directory for the generated files")
    fx.add_argument("--device", default="virtex7", metavar="NAME|FILE",
                    help="device supplying gcd logic delays (default: virtex7)")
    fx.add_argument("--bit-width", type=int, default=2, metavar="W",
                    help="gcd register width, 1..8 (default: 2)")
    return parser


def _note(line: str) -> None:
    """Write and flush one line to stderr, where every diagnostic goes, with each
    character str.isprintable() rejects (a newline in a path) escaped; a line a
    closed (None) or refusing stderr cannot take is dropped, never put on stdout."""
    if sys.stderr is None:
        return
    line = "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in line)
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except OSError:
        pass


def _in_file(path: str, parse, *args):
    """parse(*args); an error it finds inside the file at path names the file."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise BlockscopeError(f"{path}: {exc}") from exc


def _load(path: str, parse, fmt: str):
    """(parsed file, its header digest); the bytes (~19 MB of netlist at 10^5
    cells) die on return. Digesting after the parse keeps OpenSSL out of its
    peak; CSV prints no header, so it gets no digest."""
    data = read_file(path)
    value = _in_file(path, parse, data)
    if fmt == "csv":
        return value, None
    import hashlib  # here, not at the top: --version, usage errors and CSV never need it

    return value, "sha256:" + hashlib.sha256(data).hexdigest()


def _metric_list(args: argparse.Namespace) -> tuple[str, ...]:
    if args.metrics is None:
        return ("area", "delay", "power") if args.profile else ("area", "delay")
    # checked here, before any input is read, so a bad name is the error reported
    return metric_names(part.strip() for part in args.metrics.split(","))


def _analyze(args: argparse.Namespace) -> int:
    metrics = _metric_list(args)
    if "power" in metrics and not args.profile:
        raise BlockscopeError("power metric requires --profile")
    if args.group_depth is not None:
        check_group_depth(args.group_depth)  # before any input is read, as for metrics

    netlist, netlist_digest = _load(args.netlist, parse_netlist, args.fmt)
    device = _in_file(args.device, resolve_device, args.device)
    if args.override_delays:
        netlist = device.apply_delays(netlist)
    profile, profile_digest = _load(args.profile, parse_profile, args.fmt) if args.profile else (None, None)

    if args.power_model:
        power = _in_file(args.power_model, parse_coefficients, read_file(args.power_model), device.power)
        device = device._replace(power=power)

    report = build_report(
        netlist,
        metrics=metrics,
        device=device,
        profile=profile,
        group_depth=args.group_depth,
        include_block_nets=not args.block_delay_nodes_only,
        netlist_digest=netlist_digest,
        profile_digest=profile_digest,
    )
    data = _RENDERERS[args.fmt](report)
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise BlockscopeError("cannot write stdout: it is closed")
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except OSError as exc:
        raise BlockscopeError(f"cannot write stdout: {exc.strerror or exc}") from exc
    for label in report.power.unknown_blocks if report.power is not None else ():
        _note(f"blockscope: warning: profile block {label} matches no netlist block; "
              "its activity is ignored")
    return 0


def _fixture_files(args: argparse.Namespace) -> list[tuple[str, bytes]]:
    """The (file name, bytes) a fixture name stands for; rejects an unknown name."""
    from .fixtures import gen_fig6, gen_gcd, gen_random  # here: only this command needs random
    if args.name == "gcd":
        device = _in_file(args.device, resolve_device, args.device)  # a bad device outranks a bad width
        netlist, profile = gen_gcd(args.bit_width)
        return [("gcd.bnl", serialize_netlist(device.apply_delays(netlist))), ("gcd.bpf", serialize_profile(profile))]
    if args.name == "fig6":
        return [("fig6.bnl", serialize_netlist(gen_fig6()))]
    if args.name.startswith("random:"):
        parts = args.name.split(":")
        if len(parts) != 3:
            raise BlockscopeError("random fixture spelling is random:<seed>:<cells>")
        try:
            seed, n_cells = int(parts[1]), int(parts[2])
        except ValueError:
            raise BlockscopeError("random fixture seed and cell count must be integers") from None
        return [(f"random_{seed}_{n_cells}.bnl", serialize_netlist(gen_random(seed, n_cells)))]
    raise BlockscopeError(f"unknown fixture {args.name!r}; expected gcd, fig6, or random:<seed>:<cells>")


def _fixtures(args: argparse.Namespace) -> int:
    files = _fixture_files(args)  # before mkdir, so a rejected name leaves no directory behind
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, data in files:
            (outdir / name).write_bytes(data)
            _note(f"wrote {outdir / name}")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise BlockscopeError(f"cannot write {getattr(exc, 'filename', None) or outdir}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    With no argv, as the console script and ``python -m blockscope.cli`` call
    it, the arguments come from sys.argv and the process ends here: stdout is
    flushed (``_note`` flushes each stderr line as it writes it), then
    ``os._exit`` skips the interpreter's teardown, which frees every object of
    the run one by one, and atexit handlers (profile or trace a run through
    ``main(argv)``). If the flush fails after a successful run, the code is
    returned and the normal exit reports the failure; after a failed run,
    which has reported its error, the process still ends here.
    """
    # A batch run allocates ~10^5 cells, nets and tuples that form no cycles:
    # the cyclic collector reclaims nothing from them, and its scans cost ~7% of
    # a wide_flat run. It is off for the run; its state is restored for the caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        code = _analyze(args) if args.command == "analyze" else _fixtures(args)
    except SystemExit as exc:  # argparse exits 0 once --help or --version has printed
        code = exc.code
    except BlockscopeError as exc:
        _note(f"blockscope: error: {exc}")
        code = 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        _note(f"blockscope: internal error: {exc}")
        code = 2
    finally:
        if collecting:
            gc.enable()
    if argv is None:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            if code == 0:
                return code
            # the run failed and said so; bytes a failed stdout still holds are dropped
        os._exit(code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
