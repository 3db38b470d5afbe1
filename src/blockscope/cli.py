"""Command line entry point: parse inputs, run the requested analyses, and
print one report to stdout. Exit 0 on success, 1 on any input or validation
error, 2 on an internal invariant failure."""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import __version__
from .annotation import check_group_depth
from .devices import BUILTIN_DEVICES, resolve_device
from .fixtures import gen_fig6, gen_gcd, gen_random
from .formats import (
    parse_netlist,
    parse_power_model,
    parse_profile,
    read_file,
    serialize_netlist,
    serialize_profile,
)
from .model import BlockscopeError
from .report import build_report, metric_names, render_csv, render_structured, render_text

_RENDERERS = {"text": render_text, "csv": render_csv, "structured": render_structured}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; those are input errors here."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _digest(data: bytes) -> str:
    import hashlib  # here, not at the top: --version and usage errors never need it

    return "sha256:" + hashlib.sha256(data).hexdigest()


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

    netlist_bytes = read_file(args.netlist)
    netlist = parse_netlist(netlist_bytes)
    device = resolve_device(args.device)
    if args.override_delays:
        netlist = device.apply_delays(netlist)

    profile = None
    profile_digest = None
    if args.profile:
        profile_bytes = read_file(args.profile)
        profile = parse_profile(profile_bytes)
        profile_digest = _digest(profile_bytes)

    model = device.power
    if args.power_model:
        model = parse_power_model(read_file(args.power_model), base=model)

    report = build_report(
        netlist,
        metrics=metrics,
        weights=device.weights,
        model=model,
        profile=profile,
        group_depth=args.group_depth,
        include_block_nets=not args.block_delay_nodes_only,
        device=device.name,
        netlist_digest=_digest(netlist_bytes),
        profile_digest=profile_digest,
    )
    sys.stdout.buffer.write(_RENDERERS[args.fmt](report))
    sys.stdout.buffer.flush()
    for label in report.power.unknown_blocks if report.power is not None else ():
        print(f"blockscope: warning: profile block {label} matches no netlist block; "
              "its activity is ignored", file=sys.stderr)
    return 0


def _fixture_files(args: argparse.Namespace) -> list[tuple[str, bytes]]:
    """The (file name, bytes) a fixture name stands for; rejects an unknown name."""
    if args.name == "gcd":
        netlist, profile = gen_gcd(args.bit_width, resolve_device(args.device))
        return [("gcd.bnl", serialize_netlist(netlist)), ("gcd.bpf", serialize_profile(profile))]
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
            print(f"wrote {outdir / name}", file=sys.stderr)
    except OSError as exc:
        raise BlockscopeError(f"cannot write {exc.filename or outdir}: {exc.strerror or exc}") from exc
    return 0


def main(argv: list[str] | None = None) -> int:
    # A batch run allocates ~10^5 cells, nets and tuples that form no cycles:
    # the cyclic collector reclaims nothing from them, and its scans cost ~7% of
    # a wide_flat run. It is off for the run; its state is restored for the caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _analyze(args)
        return _fixtures(args)
    except BlockscopeError as exc:
        print(f"blockscope: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort guard for exit code 2
        print(f"blockscope: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
