"""Registry of benchmark suites behind the ``repro bench`` dispatcher.

PRs 1-9 grew one top-level subcommand per benchmark suite (``fig7``,
``fig9``, ``speed``, ``streambw``, ``qdnn``, ...), each re-declaring its
own flag handling.  This registry collapses that sprawl: every suite is
a :class:`BenchSuite` entry — name, help line, suite-specific flags
(:attr:`BenchSuite.configure`), default output document, and the command
implementation — and the CLI generates both the ``repro bench <suite>``
subparsers *and* the deprecated legacy aliases from it, so every suite
shares one flag set (``--jobs/--no-cache/--cache-dir/--backend/
--trace-events/--seed/--out``) by construction.

:func:`bench_suites` is the stable, read-only view exported through
:mod:`repro.api`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable


def _cli_command(name: str) -> Callable:
    """Resolve a command implementation in :mod:`repro.cli` lazily (the
    CLI imports this module to build its parser, so the reference must
    not be evaluated at import time)."""

    def run(args: argparse.Namespace) -> None:
        from .. import cli

        getattr(cli, name)(args)

    return run


@dataclass(frozen=True)
class BenchSuite:
    """One benchmark suite reachable as ``repro bench <name>``.

    ``out_default`` names the suite's benchmark document
    (``BENCH_*.json``); ``None`` marks a print-only suite, for which
    ``--out`` tees the rendered report to a file instead.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace], None]
    configure: Callable[[argparse.ArgumentParser], None] | None = None
    out_default: str | None = None


def _configure_size(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=4096,
                        help="operand bytes (default 4096)")


def _configure_scale_half(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (1.0 = bench scale)")


def _configure_qdnn(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (1.0 = 32x32 input)")


def _configure_intervals(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--intervals", type=int, default=1)


def _configure_sweeps(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="logical",
                        help="kernel for the operand-size sweep")


def _configure_speed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="xor",
                        choices=("and", "or", "xor", "not", "copy", "buz",
                                 "cmp", "add", "mul", "reduce"),
                        help="CC kernel shape to stream (default xor; "
                             "add/mul/reduce use 16-bit lanes)")
    parser.add_argument("--size", type=int, default=4096,
                        help="bytes per operand (default 4096, fig7 scale)")
    parser.add_argument("--instructions", type=int, default=32,
                        help="distinct disjoint-operand instructions per pass")
    parser.add_argument("--passes", type=int, default=4,
                        help="timed re-issues of the whole stream")
    parser.add_argument("--window", type=int, default=8,
                        help="stream fusion window (default 8)")
    parser.add_argument("--backends", default="packed,bitexact",
                        metavar="A,B",
                        help="comma-separated backends to measure (ignored "
                             "when --backend picks a single one)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="fail (exit 1) if stream speedup over the "
                             "sequential path falls below X on any backend")
    parser.add_argument("--baseline", metavar="BENCH_speed.json",
                        default=None,
                        help="committed baseline document to regress against")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional instructions/sec regression "
                             "vs --baseline (default 0.2)")


def _configure_streambw(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernels", default="copy,scale,add,triad",
                        metavar="K,K",
                        help="comma-separated kernels (default: the four "
                             "STREAM kernels; gather/scatter run "
                             "scalar-only)")
    parser.add_argument("--clusters", default="1,2,4", metavar="N,N",
                        help="cluster counts to sweep (default 1,2,4)")
    parser.add_argument("--cores-per-cluster", type=int, default=2,
                        help="cores (= ring stops = L3 slices) per cluster")
    parser.add_argument("--words", type=int, default=1024,
                        help="uint32 elements per array per core "
                             "(default 1024)")
    parser.add_argument("--placement", choices=("hub", "local"),
                        default="hub",
                        help="page placement: hub homes every page on "
                             "cluster 0 (NUMA stress); local homes pages "
                             "core-locally")
    parser.add_argument("--inter-hop-latency", type=int, default=24,
                        help="cluster-ring hop latency in cycles "
                             "(default 24)")
    parser.add_argument("--check-words", type=int, default=256,
                        help="array size for the flat-ring and "
                             "cross-backend bit-identity checks "
                             "(default 256)")


def _configure_crypto(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernels", default="ghash,crc32,crc64,ntt",
                        metavar="K,K",
                        help="comma-separated crypto kernels (default: all)")
    parser.add_argument("--ghash-blocks", type=int, default=64,
                        help="16-byte GHASH message blocks (default 64)")
    parser.add_argument("--crc-bytes", type=int, default=1024,
                        help="CRC message bytes (default 1024)")
    parser.add_argument("--ntt-n", type=int, default=128,
                        help="negacyclic polynomial degree (default 128)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-campaign plan seed (default 0)")
    parser.add_argument("--pulse-every", type=int, default=8,
                        help="fault pulse period in CC instructions")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the silent-error resilience section")


#: Every benchmark suite, in the order ``repro bench --help`` lists them.
BENCH_SUITES: dict[str, BenchSuite] = {
    suite.name: suite
    for suite in (
        BenchSuite("fig3", "Figure 3 energy proportions",
                   _cli_command("_cmd_fig3")),
        BenchSuite("fig7", "Figure 7 micro-benchmarks",
                   _cli_command("_cmd_fig7"), configure=_configure_size),
        BenchSuite("fig8", "Figure 8 in/near-place + levels",
                   _cli_command("_cmd_fig8"), configure=_configure_size),
        BenchSuite("fig9", "Figure 9 applications",
                   _cli_command("_cmd_fig9"),
                   configure=_configure_scale_half),
        BenchSuite("fig10", "Figure 10 checkpoint overheads",
                   _cli_command("_cmd_fig10"),
                   configure=_configure_intervals),
        BenchSuite("fig11", "Figure 11 checkpoint energy",
                   _cli_command("_cmd_fig11"),
                   configure=_configure_intervals),
        BenchSuite("sweeps",
                   "design-space sweeps around the 4 KB operating point",
                   _cli_command("_cmd_sweeps"), configure=_configure_sweeps),
        BenchSuite("qdnn", "Neural Cache quantized-DNN benchmark",
                   _cli_command("_cmd_qdnn"), configure=_configure_qdnn),
        BenchSuite("speed",
                   "sustained simulator-throughput benchmark (sequential "
                   "vs stream scheduler; see docs/benchmarks.md)",
                   _cli_command("_cmd_speed"), configure=_configure_speed,
                   out_default="BENCH_speed.json"),
        BenchSuite("streambw",
                   "STREAM NUMA bandwidth sweep over cluster counts "
                   "(see docs/topology.md)",
                   _cli_command("_cmd_streambw"),
                   configure=_configure_streambw,
                   out_default="BENCH_streambw.json"),
        BenchSuite("crypto",
                   "crypto kernels on cc_clmul vs scalar CPU, with the "
                   "silent-error resilience study (see docs/crypto.md)",
                   _cli_command("_cmd_crypto"),
                   configure=_configure_crypto,
                   out_default="BENCH_crypto.json"),
    )
}


def bench_suites() -> dict[str, BenchSuite]:
    """The benchmark-suite registry behind ``repro bench <suite>`` —
    name -> :class:`BenchSuite` (a copy; mutating it does not affect the
    CLI)."""
    return dict(BENCH_SUITES)
