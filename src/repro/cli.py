"""Command-line interface: ``repro-demux``.

Subcommands::

    tables                regenerate the in-text result sets
    figures               render Figures 4 / 13 / 14 as ASCII
    validate              run the simulation-vs-analytic check
    simulate              one workload run against one algorithm
    obs-report            ASCII dashboard from metrics.json + span JSONL
    compare               algorithm matrix over one workload
    fault-matrix          robustness campaign: algorithms x faults x seeds
    smp-sweep             sharded demux: shard count x steering x batch size
    bench-gate            fast-path throughput sweep + cross-PR regression gate
    serve                 live asyncio front end serving real TCP clients
    record-info           validate a recorded capture and print its header
    canary                A/B a candidate algorithm against the incumbent
    leak-audit            churn + SYN-flood memory-bounds audit of the fast path
    hash-balance          chain-balance comparison of the hash functions
    pcap                  summarize a capture written by the simulator
    run-all               write every artifact into an output directory
    report                print the combined markdown report

All output goes to stdout unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.registry import available_algorithms, make_algorithm
from .experiments.figures import figure4, figure13, figure14
from .experiments.report import build_report
from .experiments.runner import run_all
from .experiments.simulate import validate_against_analytic
from .experiments.text_results import all_text_results
from .hashing.analysis import compare_functions
from .hashing.functions import HASH_FUNCTIONS
from .workload.thinktime import make_think_model
from .workload.tpca import TPCAConfig, TPCADemuxSimulation

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-demux",
        description=(
            "Reproduction of McKenney & Dove, 'Efficient Demultiplexing of"
            " Incoming TCP Packets' (SIGCOMM 1992)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate the paper's in-text results")

    figures = sub.add_parser("figures", help="render Figures 4, 13, 14")
    figures.add_argument("--points", type=int, default=41)
    figures.add_argument(
        "--figure", choices=("4", "13", "14"), help="just one figure"
    )

    validate = sub.add_parser(
        "validate", help="simulation vs. analytic model"
    )
    validate.add_argument("--users", type=int, default=500)
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument("--duration", type=float, default=120.0)
    validate.add_argument(
        "--algorithms",
        nargs="+",
        help="subset to run (default: all)",
    )

    simulate = sub.add_parser(
        "simulate", help="one TPC/A run against one algorithm"
    )
    simulate.add_argument(
        "--algorithm",
        default="sequent:h=19",
        help=f"spec, e.g. {', '.join(available_algorithms())}",
    )
    simulate.add_argument("--users", type=int, default=500)
    simulate.add_argument("--response-time", type=float, default=0.2)
    simulate.add_argument("--rtt", type=float, default=0.001)
    simulate.add_argument("--duration", type=float, default=120.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--think-model",
        choices=("exponential", "truncated", "deterministic"),
        default="exponential",
    )
    simulate.add_argument(
        "--full-stack",
        action="store_true",
        help="run real TCP stacks over the simulated network",
    )
    simulate.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "fault-injection spec, e.g."
            " 'ge=0.05:0.45,reorder=0.02:0.005,dup=0.02'"
            " (network terms imply --full-stack); infrastructure terms"
            " 'crash=K:W', 'stall=K:W:D', 'snapcorrupt=P' compose in"
            " and need a sharded --algorithm"
        ),
    )
    simulate.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "supervise the (sharded) structure and checkpoint every"
            " shard each N operations (enables warm recovery)"
        ),
    )
    simulate.add_argument(
        "--crash-shards",
        metavar="SPEC",
        help=(
            "kill shards mid-run: 'S@P,...' crashes shard S before"
            " packet P, or 'K[:W]' crashes K seeded shards within the"
            " first W packets (default window 1000)"
        ),
    )
    simulate.add_argument(
        "--detect-after",
        type=int,
        default=0,
        metavar="K",
        help=(
            "packets steered at a dead shard that are dropped before"
            " the crash is detected (default 0: immediate)"
        ),
    )
    simulate.add_argument(
        "--slo",
        metavar="SPEC",
        help=(
            "watchdog budget overrides, e.g. 'p99=80,drop=0.1'"
            " (keys: p99, drop, imbalance, retained)"
        ),
    )
    simulate.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="bound the server's PCB table (full-stack only)",
    )
    simulate.add_argument(
        "--overflow-policy",
        choices=("reject-new", "evict-oldest-embryonic"),
        default="reject-new",
        help="what a full bounded table does with new SYNs",
    )
    simulate.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reap connections idle this long; enables the lifecycle"
            " reaper (implies --full-stack)"
        ),
    )
    simulate.add_argument(
        "--time-wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "reaper-managed TIME-WAIT quarantine instead of the fixed"
            " 2*MSL event (implies --full-stack)"
        ),
    )
    simulate.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace (lookups, inserts, sim dispatch)",
    )
    simulate.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "write run metrics: JSON registry snapshot, or Prometheus"
            " text format if PATH ends in .prom"
        ),
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="sampled perf_counter timing of the lookup hot path",
    )
    simulate.add_argument(
        "--profile-sample-every",
        type=int,
        default=None,
        metavar="N",
        help="time one lookup in N (default 64; implies --profile)",
    )
    simulate.add_argument(
        "--spans-out",
        metavar="PATH",
        help="write sampled per-packet spans as JSONL (enables spans)",
    )
    simulate.add_argument(
        "--span-sample-every",
        type=int,
        default=None,
        metavar="N",
        help="record one packet span in N (default 64; implies spans)",
    )
    simulate.add_argument(
        "--sketch",
        action="store_true",
        help=(
            "stream traffic sketches (quantiles, heavy hitters,"
            " train-ness, population) and publish traffic_* gauges"
        ),
    )
    simulate.add_argument(
        "--sketch-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="virtual seconds between sketch publishes (default 5)",
    )
    simulate.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics, /snapshot.json and /healthz over HTTP"
            " during the run (0 picks a free port)"
        ),
    )
    simulate.add_argument(
        "--serve-hold",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the telemetry server up this long after the run",
    )

    obs_report = sub.add_parser(
        "obs-report",
        help="ASCII dashboard from a metrics snapshot (+ optional spans)",
    )
    obs_report.add_argument(
        "--metrics",
        required=True,
        metavar="PATH",
        help="metrics.json from simulate --metrics-out (or /snapshot.json)",
    )
    obs_report.add_argument(
        "--spans",
        metavar="PATH",
        help="span JSONL from simulate --spans-out",
    )
    obs_report.add_argument(
        "--out",
        metavar="PATH",
        help="write the dashboard here instead of stdout",
    )

    compare = sub.add_parser(
        "compare", help="algorithm matrix over one workload"
    )
    compare.add_argument(
        "--workload",
        choices=("tpca", "trains", "polling", "mixed", "churn"),
        default="tpca",
    )
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["bsd", "mtf", "sendrecv", "sequent:h=19"],
        help="algorithm specs (e.g. sequent:h=51 multicache:k=16)",
    )
    compare.add_argument("--users", type=int, default=300)
    compare.add_argument("--seed", type=int, default=1)

    matrix = sub.add_parser(
        "fault-matrix",
        help="robustness campaign: algorithms x fault mixes x seeds",
    )
    matrix.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        help="algorithm specs (default: bsd sendrecv sequent:h=19)",
    )
    matrix.add_argument(
        "--mixes",
        nargs="+",
        default=None,
        help=(
            "standard mix names (clean iid5 ge10 chaos) or custom"
            " name=SPEC entries"
        ),
    )
    matrix.add_argument("--seeds", nargs="+", type=int, default=[1])
    matrix.add_argument("--users", type=int, default=20)
    matrix.add_argument("--duration", type=float, default=30.0)
    matrix.add_argument("--max-connections", type=int, default=None)
    matrix.add_argument(
        "--overflow-policy",
        choices=("reject-new", "evict-oldest-embryonic"),
        default="reject-new",
    )
    matrix.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write fault_matrix.txt and fault_matrix.json into DIR",
    )

    smp = sub.add_parser(
        "smp-sweep",
        help="sharded demux sweep: shard count x steering x batch size",
    )
    smp.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        help="inner algorithm specs (default: bsd sequent:h=19)",
    )
    smp.add_argument("--users", type=int, default=1000)
    smp.add_argument("--duration", type=float, default=30.0)
    smp.add_argument(
        "--shards",
        nargs="+",
        type=int,
        default=None,
        help="shard counts to sweep (default: 1 2 4 8)",
    )
    smp.add_argument(
        "--steerings",
        nargs="+",
        default=None,
        help="steering policies (default: hash rr sticky)",
    )
    smp.add_argument(
        "--batch-sizes",
        nargs="+",
        type=int,
        default=None,
        help="coalescing batch sizes, 1 = unbatched (default: 1 64)",
    )
    smp.add_argument("--seeds", nargs="+", type=int, default=[7])
    smp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical for any value)",
    )
    smp.add_argument("--utilization", type=float, default=0.6)
    smp.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="write smp_sweep.txt and smp_sweep.json into DIR",
    )
    smp.add_argument(
        "--bench-out",
        metavar="PATH",
        default=None,
        help="also write the JSON payload to PATH (e.g. BENCH_smp.json)",
    )

    gate = sub.add_parser(
        "bench-gate",
        help=(
            "replay recorded TPC/A streams through the swept structures,"
            " append packets/sec to the benchmark trajectory, fail on"
            " >threshold regression"
        ),
    )
    gate.add_argument(
        "--trajectory",
        metavar="PATH",
        default="BENCH_trajectory.json",
        help="trajectory file to gate against and append to",
    )
    gate.add_argument(
        "--quick",
        action="store_true",
        help="reduced sweep (smaller N, shorter streams; the CI smoke)",
    )
    gate.add_argument(
        "--scale",
        action="store_true",
        help=(
            "million-connection tier: chained incumbent vs the O(1)"
            " fast-cuckoo table at N=10^4-10^5 (override with --users,"
            " up to 10^6)"
        ),
    )
    gate.add_argument(
        "--reap-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "attach a connection reaper during replays (idle timeout in"
            " simulated seconds) so huge sweeps stay memory-bounded;"
            " reaped runs gate against their own baselines"
        ),
    )
    gate.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for jittery shared runners)",
    )
    gate.add_argument(
        "--no-append",
        action="store_true",
        help="measure and compare without recording a new entry",
    )
    gate.add_argument("--seed", type=int, default=None)
    gate.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds of TPC/A traffic per stream",
    )
    gate.add_argument(
        "--users",
        nargs="+",
        type=int,
        default=None,
        metavar="N",
        help="connection counts to sweep",
    )
    gate.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed replays per cell (best-of-R is recorded)",
    )
    gate.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="fractional packets/sec drop that fails the gate",
    )
    gate.add_argument(
        "--canary",
        metavar="SPEC",
        default=None,
        help=(
            "canary mode: A/B this candidate spec against --incumbent"
            " on mirrored recorded traffic instead of the sweep"
            " (exit 1 = blocked)"
        ),
    )
    gate.add_argument(
        "--incumbent",
        metavar="SPEC",
        default="fast-sequent:h=19",
        help="incumbent spec the canary must beat (canary mode only)",
    )
    gate.add_argument(
        "--capture",
        metavar="PATH",
        default=None,
        help=(
            "recorded capture to replay in canary mode (e.g. from"
            " 'serve --record'); default: a synthetic TPC/A stream"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "bind a real TCP socket, route every arriving frame through"
            " a demux algorithm, and drive it with a seeded loop-back"
            " client swarm"
        ),
    )
    serve.add_argument(
        "--algorithm",
        default="fast-sequent:h=19",
        help=f"spec, e.g. {', '.join(available_algorithms())}",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 picks a free port"
    )
    serve.add_argument(
        "--clients", type=int, default=10, help="loop-back swarm size"
    )
    serve.add_argument(
        "--frames", type=int, default=20, help="frames per client"
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="max clients connected at once (default: all)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="shed connections beyond this many live sessions",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown drain before cancelling handlers",
    )
    serve.add_argument(
        "--record",
        metavar="PATH",
        default=None,
        help="write the served traffic as a recorded-stream capture",
    )
    serve.add_argument(
        "--record-order",
        choices=("canonical", "arrival"),
        default="canonical",
        help=(
            "capture ordering: canonical replays byte-identically"
            " across runs; arrival keeps true interleaving"
        ),
    )
    serve.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve /metrics, /snapshot.json and /healthz over HTTP"
            " during the run (0 picks a free port)"
        ),
    )

    record_info = sub.add_parser(
        "record-info",
        help="validate a recorded capture and print its header",
    )
    record_info.add_argument("file", help="path to a capture .json")

    canary = sub.add_parser(
        "canary",
        help=(
            "A/B a candidate algorithm against the incumbent on one"
            " capture; exit 1 blocks the promotion"
        ),
    )
    canary.add_argument("candidate", help="candidate algorithm spec")
    canary.add_argument(
        "--incumbent",
        metavar="SPEC",
        default="fast-sequent:h=19",
        help="incumbent spec the candidate must beat",
    )
    canary.add_argument(
        "--capture",
        metavar="PATH",
        default=None,
        help=(
            "recorded capture to replay (e.g. from 'serve --record');"
            " default: a synthetic TPC/A stream"
        ),
    )
    canary.add_argument("--seed", type=int, default=7)
    canary.add_argument(
        "--users",
        type=int,
        default=300,
        help="connections in the synthetic fallback stream",
    )
    canary.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="synthetic fallback stream's simulated seconds",
    )
    canary.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed replays per side (best-of-R)",
    )
    canary.add_argument(
        "--pps-margin",
        type=float,
        default=0.05,
        help="fractional packets/sec shortfall tolerated",
    )
    canary.add_argument(
        "--examined-margin",
        type=float,
        default=0.10,
        help="fractional p99-examined excess tolerated",
    )
    canary.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict as JSON instead of text",
    )

    leak = sub.add_parser(
        "leak-audit",
        help=(
            "memory-bounds smoke: churn-storm and SYN-flood each"
            " algorithm, then audit interned keys vs live connections"
        ),
    )
    leak.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        help=(
            "specs to audit (default: fast-sequent:h=19"
            " sharded-fast-sequent:shards=4,h=19)"
        ),
    )
    leak.add_argument("--seeds", nargs="+", type=int, default=[1])
    leak.add_argument(
        "--steps",
        type=int,
        default=10000,
        help="churn-storm mutation steps per cell",
    )
    leak.add_argument(
        "--grace",
        type=int,
        default=0,
        help="allowed interned-keys overhang above the live population",
    )
    leak.add_argument(
        "--skip-flood",
        action="store_true",
        help="churn-storm cells only (faster; no full-stack pass)",
    )

    balance = sub.add_parser(
        "hash-balance", help="hash function balance comparison"
    )
    balance.add_argument("--users", type=int, default=2000)
    balance.add_argument("--chains", type=int, default=19)

    pcap = sub.add_parser(
        "pcap", help="summarize a capture written by the simulator"
    )
    pcap.add_argument("file", help="path to a .pcap file")
    pcap.add_argument(
        "--flows", action="store_true", help="per-flow breakdown"
    )

    drill = sub.add_parser(
        "recovery-drill",
        help=(
            "crash a shard mid-run and prove warm restore beats cold"
            " rebuild (writes recovery_drill.{txt,json})"
        ),
    )
    drill.add_argument(
        "--algorithms",
        nargs="+",
        metavar="SPEC",
        help="sharded specs to drill (default: the acceptance pair)",
    )
    drill.add_argument(
        "--seeds", type=int, nargs="+", help="drill seeds (default: 1 2)"
    )
    drill.add_argument("--users", type=int, default=None)
    drill.add_argument("--packets", type=int, default=None)
    drill.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="warm copy's checkpoint cadence in operations",
    )
    drill.add_argument(
        "--mttr-budget",
        type=float,
        default=None,
        metavar="MS",
        help="fail the drill if any recovery takes longer (milliseconds)",
    )
    drill.add_argument("--out", default="results")

    runall = sub.add_parser("run-all", help="write all artifacts to a directory")
    runall.add_argument("--out", default="results")
    runall.add_argument("--users", type=int, default=500)
    runall.add_argument("--seed", type=int, default=7)
    runall.add_argument(
        "--no-simulation", action="store_true", help="analytic artifacts only"
    )

    report = sub.add_parser("report", help="print the combined report")
    report.add_argument("--users", type=int, default=500)
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--no-simulation", action="store_true", help="analytic results only"
    )

    return parser


def _cmd_tables() -> int:
    ok = True
    for table in all_text_results():
        print(table.render())
        print()
        ok = ok and table.all_ok
    return 0 if ok else 1


def _cmd_figures(args) -> int:
    wanted = {
        "4": figure4,
        "13": figure13,
        "14": figure14,
    }
    keys = [args.figure] if args.figure else ["4", "13", "14"]
    for key in keys:
        print(wanted[key](points=args.points).render())
        print()
    return 0


def _cmd_validate(args) -> int:
    result = validate_against_analytic(
        n_users=args.users,
        seed=args.seed,
        duration=args.duration,
        algorithms=args.algorithms,
        progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
    )
    print(result.render())
    return 0 if result.all_ok else 1


def _cmd_simulate(args) -> int:
    from .obs.metrics import (
        DEFAULT_EXPORT_BUCKETS,
        DemuxStatsExporter,
        MetricsRegistry,
    )
    from .obs.profile import LookupProfiler
    from .obs.trace import JsonlSink, Tracer

    algorithm = make_algorithm(args.algorithm)
    config = TPCAConfig(
        n_users=args.users,
        response_time=args.response_time,
        round_trip=args.rtt,
        duration=args.duration,
        seed=args.seed,
        think_model=make_think_model(args.think_model),
    )

    # -- fault spec: network terms drive the injector, infrastructure
    # terms (crash/stall/snapcorrupt) drive the shard supervisor.
    fault_models = []
    infra_faults = []
    if args.faults:
        from .faults.infra import parse_mixed_spec

        fault_models, infra_faults = parse_mixed_spec(args.faults)

    supervisor = None
    if args.checkpoint_every or args.crash_shards or infra_faults:
        from .faults.infra import ShardCrash, ShardStall, SnapshotCorruption
        from .recovery import ShardSupervisor
        from .smp.sharded import ShardedDemux

        if not isinstance(algorithm, ShardedDemux):
            print(
                f"error: --checkpoint-every/--crash-shards and"
                f" crash/stall/snapcorrupt faults need a sharded"
                f" algorithm, got {args.algorithm!r}",
                file=sys.stderr,
            )
            return 2
        snapshot_fault = None
        for fault in infra_faults:
            if isinstance(fault, SnapshotCorruption):
                fault.bind_seed(args.seed)
                snapshot_fault = fault
        try:
            supervisor = ShardSupervisor(
                algorithm,
                checkpoint_every=args.checkpoint_every,
                detect_after=args.detect_after,
                snapshot_fault=snapshot_fault,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.crash_shards:
            try:
                supervisor.arm_crashes(
                    _parse_crash_shards(
                        args.crash_shards, algorithm.nshards, args.seed
                    )
                )
            except (ValueError, IndexError) as exc:
                print(f"error: --crash-shards: {exc}", file=sys.stderr)
                return 2
        for fault in infra_faults:
            if isinstance(fault, ShardCrash):
                supervisor.arm_crashes(
                    fault.schedule(algorithm.nshards, args.seed)
                )
            elif isinstance(fault, ShardStall):
                supervisor.arm_stalls(
                    fault.schedule(algorithm.nshards, args.seed)
                )
        algorithm = supervisor
    elif args.detect_after:
        print(
            "warning: --detect-after has no effect without"
            " --checkpoint-every, --crash-shards, or a"
            " crash/stall/snapcorrupt fault",
            file=sys.stderr,
        )

    lifecycle = (
        args.idle_timeout is not None or args.time_wait is not None
    )
    full_stack = args.full_stack or bool(fault_models) or lifecycle

    # -- telemetry plane: spans, sketches, registry ------------------
    # The span collector must exist before the simulation is built:
    # the workload's bind_tracer_clock (demux path) or the stack ctor
    # (full-stack path) binds its clock to virtual time.
    wants_spans = (
        bool(args.spans_out)
        or args.sketch
        or args.span_sample_every is not None
    )
    collector = None
    if wants_spans:
        from .obs.spans import DEFAULT_SPAN_SAMPLE_EVERY, SpanCollector

        collector = SpanCollector(
            sample_every=args.span_sample_every or DEFAULT_SPAN_SAMPLE_EVERY
        )
        collector.attach(algorithm)
    characterizer = None
    if args.sketch:
        from .obs.sketch import TrafficCharacterizer

        characterizer = TrafficCharacterizer().attach(collector)

    serve = args.serve_metrics is not None
    registry = None
    if args.metrics_out or serve or args.sketch or args.slo:
        registry = MetricsRegistry()

    if full_stack:
        from .workload.tpca import TPCAFullStackSimulation

        simulation = TPCAFullStackSimulation(
            config,
            algorithm,
            fault_models=fault_models,
            max_connections=args.max_connections,
            overflow_policy=args.overflow_policy,
            idle_timeout=args.idle_timeout,
            time_wait_timeout=args.time_wait,
            spans=collector,
        )
    else:
        simulation = TPCADemuxSimulation(config, algorithm)

    tracer = None
    if args.trace_out:
        tracer = Tracer(JsonlSink(args.trace_out))
        algorithm.tracer = tracer
        tracer.attach_simulator(simulation.sim)

    profiler = None
    if args.profile or args.profile_sample_every is not None:
        if args.profile_sample_every is not None:
            profiler = LookupProfiler(args.profile_sample_every)
        else:
            profiler = LookupProfiler()
        profiler.attach(algorithm)

    # -- registry publishers -----------------------------------------
    # Counter-backed exporters publish *deltas*, so the periodic
    # publisher and the final flush must reuse one instance each --
    # fresh exporters per tick would re-add the running totals.
    publish_steps = []
    if registry is not None:
        from .fastpath.metrics import publish_fastpath

        demux_exporter = DemuxStatsExporter(
            registry, algorithm=algorithm.name
        )
        publish_steps.append(
            lambda: demux_exporter.publish(algorithm.stats)
        )
        publish_steps.append(lambda: publish_fastpath(registry, algorithm))
        sharded_view = (
            supervisor.sharded if supervisor is not None else algorithm
        )
        if getattr(sharded_view, "shards", None) is not None:
            from .smp.metrics import publish_sharded

            publish_steps.append(
                lambda: publish_sharded(registry, sharded_view)
            )
        if supervisor is not None:
            from .recovery import publish_recovery

            publish_steps.append(
                lambda: publish_recovery(registry, supervisor)
            )
        sim_gauges = registry.gauge("sim_run", "simulation run facts")

        def publish_sim() -> None:
            sim_gauges.set(simulation.sim.events_run, name="events_run")
            sim_gauges.set(
                simulation.transactions_completed, name="transactions"
            )
            sim_gauges.set(simulation.sim.now, name="virtual_time_seconds")
            sim_gauges.set(args.users, name="users")
            sim_gauges.set(args.seed, name="seed")

        publish_steps.append(publish_sim)
        if full_stack:
            from .faults.metrics import InjectorExporter, StackFaultExporter

            host = str(simulation.server.address)
            stack_exporter = StackFaultExporter(registry, host=host)
            publish_steps.append(
                lambda: stack_exporter.publish(simulation.server)
            )
            received_counter = registry.counter(
                "packets_received_total",
                "inbound packets accepted by the stack",
            )
            received_state = {"last": 0}

            def publish_received() -> None:
                current = simulation.server.packets_received
                received_counter.inc(
                    current - received_state["last"], host=host
                )
                received_state["last"] = current

            publish_steps.append(publish_received)
            if simulation.injector is not None:
                injector_exporter = InjectorExporter(registry, host=host)
                publish_steps.append(
                    lambda: injector_exporter.publish(simulation.injector)
                )
            if simulation.server.reaper is not None:
                from .lifecycle import publish_lifecycle

                publish_steps.append(
                    lambda: publish_lifecycle(
                        registry, simulation.server.reaper
                    )
                )

    def publish_all() -> None:
        for step in publish_steps:
            step()
        if characterizer is not None:
            characterizer.publish(registry)

    # -- live telemetry server + watchdog ----------------------------
    watchdog = None
    if registry is not None:
        from .obs.watchdog import HealthWatchdog, default_rules, parse_slo_spec

        try:
            slo_kwargs = parse_slo_spec(args.slo) if args.slo else {}
        except ValueError as exc:
            print(f"error: --slo: {exc}", file=sys.stderr)
            return 2
        watchdog = HealthWatchdog(default_rules(**slo_kwargs), tracer=tracer)
    server = None
    if serve:
        from .obs.live import TelemetryServer

        def run_snapshot():
            return {
                "algorithm": algorithm.name,
                "events_run": simulation.sim.events_run,
                "virtual_time": simulation.sim.now,
                "transactions": simulation.transactions_completed,
            }

        server = TelemetryServer(
            registry,
            watchdog=watchdog,
            port=args.serve_metrics,
            extra_snapshot=run_snapshot,
            clock=lambda: simulation.sim.now,
        )
        port = server.start()
        print(
            f"  telemetry: http://127.0.0.1:{port}/metrics"
            " (/snapshot.json, /healthz)",
            file=sys.stderr,
        )

        def publish_periodically() -> None:
            with server.lock:
                publish_all()
            simulation.sim.schedule(
                args.sketch_interval, publish_periodically
            )

        simulation.sim.schedule(args.sketch_interval, publish_periodically)
    elif characterizer is not None:
        characterizer.attach_simulator(
            simulation.sim, registry, interval=args.sketch_interval
        )

    exit_code = 0
    result = simulation.run()
    print(result.summary())
    print(f"  max examined: {result.max_examined}")
    print(f"  structure: {algorithm.describe()}")
    if supervisor is not None:
        summary = supervisor.recovery_summary()
        modes = ", ".join(
            f"{mode}={count}" for mode, count in summary["modes"].items()
        )
        print(
            f"  recovery: crashes={summary['crashes_injected']}"
            f" stalls={summary['stalls_injected']}"
            f" recoveries={summary['recoveries']}"
            + (f" ({modes})" if modes else "")
            + f" dropped={summary['packets_dropped']}"
            f" checkpoints={summary['checkpoints_taken']}"
            f" corrupt={summary['checkpoint_corruptions_detected']}"
            f" mttr-max={summary['mttr_ms_max']:.2f}ms"
        )
        if summary["dead_shards"]:
            print(f"  recovery: shards still dead: {summary['dead_shards']}")
    if full_stack:
        from .faults.audit import audit_leaks, audit_stack

        stack = simulation.server
        print(
            f"  transactions: {simulation.transactions_completed},"
            f" users completed: {simulation.users_completed}/{args.users}"
        )
        drops = ", ".join(f"{k}={v}" for k, v in stack.drops.items())
        print(f"  drops: {drops}")
        if simulation.injector is not None:
            print(f"  {simulation.injector.summary()}")
            print(f"  fault digest: {simulation.injector.schedule_digest()}")
        if stack.reaper is not None:
            stats = stack.reaper.stats
            print(
                f"  reaped: idle={stack.reaped['idle']}"
                f" time-wait={stack.reaped['time-wait']}"
                f" spurious-wakeups={stats.spurious_wakeups}"
                f" timers={stats.timers_scheduled}"
            )
        audit = audit_stack(stack)
        print(f"  {audit.describe()}")
        leak = audit_leaks(stack.demux)
        print(f"  {leak.describe()}")
        if not audit.ok or not leak.ok:
            exit_code = 1

    if profiler is not None:
        print(f"  profile: {profiler.report().render()}")
    if tracer is not None:
        tracer.close()
        print(f"  trace written to {args.trace_out}")

    # -- final publish, health verdict, artifacts --------------------
    if registry is not None:
        if server is not None:
            with server.lock:
                publish_all()
        else:
            publish_all()
        if profiler is not None:
            report = profiler.report()
            profile_gauges = registry.gauge(
                "lookup_wallclock_ns", "sampled lookup latency"
            )
            profile_gauges.set(report.mean_ns, stat="mean")
            profile_gauges.set(report.p50_ns, stat="p50")
            profile_gauges.set(report.p95_ns, stat="p95")
            profile_gauges.set(report.samples, stat="samples")
        health = watchdog.evaluate(registry, now=simulation.sim.now)
        print(f"  health: {health.describe()}")
    if collector is not None:
        print(f"  {collector.summary()}")
    if characterizer is not None:
        print(f"  {characterizer.summary()}")
    if args.spans_out:
        count = collector.to_jsonl(args.spans_out)
        print(f"  {count} spans written to {args.spans_out}")
    if args.metrics_out:
        if args.metrics_out.endswith(".prom"):
            text = registry.to_prometheus(
                histogram_buckets=DEFAULT_EXPORT_BUCKETS
            )
        else:
            text = registry.to_json() + "\n"
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"  metrics written to {args.metrics_out}")
    if server is not None:
        if args.serve_hold > 0:
            import time

            # The summary must survive a signal that ends the hold.
            sys.stdout.flush()
            print(
                f"  holding telemetry server for {args.serve_hold:g}s",
                file=sys.stderr,
            )
            time.sleep(args.serve_hold)
        server.stop()
    return exit_code


def _cmd_obs_report(args) -> int:
    from .obs.report import load_metrics_snapshot, render_dashboard
    from .obs.spans import read_spans_jsonl

    snapshot = load_metrics_snapshot(args.metrics)
    spans = read_spans_jsonl(args.spans) if args.spans else None
    text = render_dashboard(snapshot, spans=spans)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"dashboard written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_compare(args) -> int:
    from .workload.churn import ChurnConfig, ChurnWorkload
    from .workload.mixed import MixedConfig, MixedWorkload
    from .workload.polling import PollingConfig, PollingWorkload
    from .workload.tpca import TPCADemuxSimulation
    from .workload.trains import PacketTrainWorkload, TrainConfig

    def run(spec: str):
        algorithm = make_algorithm(spec)
        if args.workload == "tpca":
            return TPCADemuxSimulation(
                TPCAConfig(n_users=args.users, seed=args.seed), algorithm
            ).run()
        if args.workload == "trains":
            config = TrainConfig(
                n_connections=max(2, args.users // 10),
                n_trains=1000,
                seed=args.seed,
            )
            return PacketTrainWorkload(config, algorithm).run()
        if args.workload == "polling":
            config = PollingConfig(n_terminals=args.users, n_cycles=30)
            return PollingWorkload(config, algorithm).run()
        if args.workload == "mixed":
            config = MixedConfig(
                n_oltp_users=args.users, bulk_rate=50.0, seed=args.seed
            )
            return MixedWorkload(config, algorithm).run()
        config = ChurnConfig(n_users=args.users, seed=args.seed)
        return ChurnWorkload(config, algorithm).run()

    print(
        f"workload={args.workload} users={args.users} seed={args.seed}"
    )
    print(
        f"  {'algorithm':<18} {'PCBs/pkt':>9} {'data':>9} {'ack':>9}"
        f" {'hit rate':>9}"
    )
    for spec in args.algorithms:
        result = run(spec)
        print(
            f"  {spec:<18} {result.mean_examined:>9.2f}"
            f" {result.data_mean_examined:>9.2f}"
            f" {result.ack_mean_examined:>9.2f}"
            f" {result.cache_hit_rate:>9.2%}"
        )
    return 0


def _cmd_fault_matrix(args) -> int:
    import os

    from .faults.config import STANDARD_MIXES, FaultSpecError
    from .faults.matrix import DEFAULT_ALGORITHMS, run_fault_matrix

    standard = dict(STANDARD_MIXES)
    if args.mixes:
        mixes = []
        for entry in args.mixes:
            if entry in standard:
                mixes.append((entry, standard[entry]))
            elif "=" in entry:
                name, _, spec = entry.partition("=")
                mixes.append((name, spec))
            else:
                known = ", ".join(standard)
                raise FaultSpecError(
                    f"unknown mix {entry!r}; known: {known} (or name=SPEC)"
                )
    else:
        mixes = list(STANDARD_MIXES)

    result = run_fault_matrix(
        algorithms=args.algorithms or DEFAULT_ALGORITHMS,
        mixes=mixes,
        seeds=args.seeds,
        n_users=args.users,
        duration=args.duration,
        max_connections=args.max_connections,
        overflow_policy=args.overflow_policy,
        progress=lambda cell: print(
            f"  ... {cell.algorithm} / {cell.mix} / seed {cell.seed}:"
            f" {'ok' if cell.ok else 'FAIL'}",
            file=sys.stderr,
        ),
    )
    text = result.render_text()
    print(text)

    # Re-judge the campaign with the same SLO rules /healthz applies:
    # publish every cell's drop taxonomy and accepted-packet count
    # into a throwaway registry and let the watchdog rate it.  The
    # verdict is informational -- exit status stays with result.ok.
    from .obs.metrics import MetricsRegistry
    from .obs.watchdog import HealthWatchdog, default_rules

    registry = MetricsRegistry()
    drop_counter = registry.counter(
        "packet_drops_total", "packets dropped, by taxonomy reason"
    )
    received_counter = registry.counter(
        "packets_received_total", "inbound packets accepted by the stack"
    )
    for cell in result.cells:
        labels = {
            "algorithm": cell.algorithm,
            "mix": cell.mix,
            "seed": str(cell.seed),
        }
        received_counter.inc(cell.packets_received, **labels)
        for reason, count in cell.drops.items():
            drop_counter.inc(count, reason=reason, **labels)
    health = HealthWatchdog(default_rules()).evaluate(registry)
    print(f"watchdog: {health.describe()}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        txt_path = os.path.join(args.out, "fault_matrix.txt")
        json_path = os.path.join(args.out, "fault_matrix.json")
        with open(txt_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
        print(f"report written to {txt_path} and {json_path}")
    return 0 if result.ok else 1


def _cmd_smp_sweep(args) -> int:
    from .smp.sweep import SMPSweepConfig, run_smp_sweep, write_sweep_artifacts

    kwargs = {
        "n_connections": args.users,
        "duration": args.duration,
        "seeds": tuple(args.seeds),
        "jobs": args.jobs,
        "utilization": args.utilization,
    }
    if args.algorithms:
        kwargs["algorithms"] = tuple(args.algorithms)
    if args.shards:
        kwargs["shard_counts"] = tuple(args.shards)
    if args.steerings:
        kwargs["steerings"] = tuple(args.steerings)
    if args.batch_sizes:
        kwargs["batch_sizes"] = tuple(args.batch_sizes)
    config = SMPSweepConfig(**kwargs)

    result = run_smp_sweep(
        config,
        progress=lambda name: print(f"  ... {name}", file=sys.stderr),
    )
    print(result.render_text())
    if args.out:
        outdir = write_sweep_artifacts(
            result, args.out, bench_path=args.bench_out
        )
        written = f"{outdir}/smp_sweep.txt and {outdir}/smp_sweep.json"
        if args.bench_out:
            written += f" (bench: {args.bench_out})"
        print(f"report written to {written}")
    elif args.bench_out:
        import pathlib

        pathlib.Path(args.bench_out).write_text(result.to_json() + "\n")
        print(f"bench payload written to {args.bench_out}")
    return 0 if result.ok else 1


def _canary_stream(capture, *, users, duration, seed, quick=False):
    """The capture behind a canary run: a recorded file, or synthetic
    TPC/A traffic when none is given (``quick`` shrinks the fallback)."""
    from .workload.record import load_stream, record_tpca_stream

    if capture is not None:
        return load_stream(capture)
    if quick:
        users, duration = min(users, 200), min(duration, 10.0)
    return record_tpca_stream(n_users=users, duration=duration, seed=seed)


def _run_canary_cli(
    *,
    candidate,
    incumbent,
    capture,
    users,
    duration,
    seed,
    repeats,
    pps_margin,
    examined_margin,
    as_json=False,
    quick=False,
) -> int:
    import json as json_module

    from .fastpath.gate import CanaryConfig, run_canary
    from .workload.record import CaptureFormatError

    try:
        stream = _canary_stream(
            capture, users=users, duration=duration, seed=seed,
            quick=quick,
        )
    except (CaptureFormatError, OSError) as exc:
        print(f"error: --capture: {exc}", file=sys.stderr)
        return 2
    try:
        config = CanaryConfig(
            candidate=candidate,
            incumbent=incumbent,
            repeats=repeats,
            pps_margin=pps_margin,
            examined_margin=examined_margin,
        )
        report = run_canary(
            stream,
            config,
            progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(json_module.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.promoted else 1


def _cmd_canary(args) -> int:
    return _run_canary_cli(
        candidate=args.candidate,
        incumbent=args.incumbent,
        capture=args.capture,
        users=args.users,
        duration=args.duration,
        seed=args.seed,
        repeats=args.repeats,
        pps_margin=args.pps_margin,
        examined_margin=args.examined_margin,
        as_json=args.json,
    )


def _cmd_record_info(args) -> int:
    from .workload.record import CaptureFormatError, stream_info

    try:
        info = stream_info(args.file)
    except (CaptureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"  {key:<{width}}  {value}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import LoadConfig, ServeConfig, run_self_drive

    try:
        serve_config = ServeConfig(
            algorithm=args.algorithm,
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            drain_timeout=args.drain_timeout,
            record_order=args.record_order,
        )
        load = LoadConfig(
            clients=args.clients,
            frames=args.frames,
            seed=args.seed,
            concurrency=args.concurrency,
        )
        algorithm = make_algorithm(args.algorithm)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def on_telemetry(telemetry) -> None:
        print(
            f"  telemetry: {telemetry.url('/metrics')}"
            " (/snapshot.json, /healthz)",
            file=sys.stderr,
        )

    report = asyncio.run(
        run_self_drive(
            serve_config,
            load,
            record_path=args.record,
            telemetry_port=args.serve_metrics,
            algorithm=algorithm,
            on_telemetry=(
                on_telemetry if args.serve_metrics is not None else None
            ),
        )
    )
    print(report.render_text())
    return 0 if report.ok else 1


def _cmd_bench_gate(args) -> int:
    import dataclasses

    from .fastpath.gate import (
        GateConfig,
        QUICK_CONFIG,
        SCALE_CONFIG,
        run_gate,
    )

    if args.canary is not None:
        return _run_canary_cli(
            candidate=args.canary,
            incumbent=args.incumbent,
            capture=args.capture,
            users=300,
            duration=30.0,
            seed=args.seed if args.seed is not None else 7,
            repeats=args.repeats if args.repeats is not None else 3,
            pps_margin=0.05,
            examined_margin=0.10,
            quick=args.quick,
        )
    if args.capture is not None:
        print(
            "error: --capture only applies to canary mode (--canary)",
            file=sys.stderr,
        )
        return 2

    if args.scale and args.quick:
        # --quick shrinks the scale tier too: the smallest interesting
        # N with one repeat, for CI smoke runs.
        config = dataclasses.replace(
            SCALE_CONFIG, n_sweep=(10_000,), duration=2.0
        )
    elif args.scale:
        config = SCALE_CONFIG
    elif args.quick:
        config = QUICK_CONFIG
    else:
        config = GateConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.users is not None:
        overrides["n_sweep"] = tuple(args.users)
    if args.repeats is not None:
        overrides["repeats"] = args.repeats
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    if args.reap_idle is not None:
        overrides["reap_idle"] = args.reap_idle
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    report = run_gate(
        config,
        args.trajectory,
        append=not args.no_append,
        progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
    )
    print(report.render_text())
    if not report.ok and args.warn_only:
        print("warn-only: regression(s) reported but not enforced")
    return 0 if report.ok or args.warn_only else 1


#: Default structures the leak audit exercises: the plain fast path
#: and the sharded facade (whose shards intern independently).
LEAK_AUDIT_ALGORITHMS = (
    "fast-sequent:h=19",
    "sharded-fast-sequent:shards=4,h=19",
)


def _cmd_leak_audit(args) -> int:
    from .faults.audit import audit_leaks, audit_stack
    from .lifecycle.metrics import count_interned
    from .obs.metrics import MetricsRegistry
    from .obs.watchdog import HealthWatchdog, default_rules
    from .workload.adversarial import ChurnStormWorkload, SynFloodWorkload

    specs = args.algorithms or list(LEAK_AUDIT_ALGORITHMS)
    failures = []

    # Every cell's live-vs-interned pair also lands in a registry, so
    # the retained-entries SLO rule re-judges the campaign with the
    # exact logic /healthz uses (informational; the audits decide).
    registry = MetricsRegistry()
    retention = registry.gauge(
        "lifecycle_retention",
        "live PCBs vs interned fast-path keys (leak-audit pair)",
    )
    watchdog = HealthWatchdog(
        default_rules(retention_grace=float(args.grace))
    )

    def record_retention(algorithm, spec, seed, phase):
        labels = {"algorithm": spec, "seed": str(seed), "phase": phase}
        retention.set(len(algorithm), population="live_pcbs", **labels)
        interned = count_interned(algorithm)
        if interned is not None:
            retention.set(interned, population="interned_keys", **labels)

    def check(label, audit):
        print(f"  {audit.describe()}")
        if not audit.ok:
            failures.append(label)

    for spec in specs:
        for seed in args.seeds:
            label = f"{spec} seed={seed}"
            print(f"churn-storm: {label}")
            algorithm = make_algorithm(spec)
            result = ChurnStormWorkload(
                algorithm, steps=args.steps, seed=seed
            ).run()
            print(f"  {result.summary()}")
            record_retention(algorithm, spec, seed, "churn")
            check(f"churn {label}", audit_leaks(algorithm, grace=args.grace))
            # Drain the survivors: with every connection gone, the
            # intern tables must be empty -- the PR 4 leak in one line.
            for pcb in list(algorithm):
                algorithm.remove(pcb.four_tuple)
            drained = count_interned(algorithm)
            status = "OK" if not drained else f"LEAK ({drained} retained)"
            print(f"  drained: live=0 interned={drained or 0}, {status}")
            if drained:
                failures.append(f"drain {label}")

            if args.skip_flood:
                continue
            print(f"syn-flood: {label}")
            flood = SynFloodWorkload(
                algorithm=make_algorithm(spec),
                max_connections=64,
                overflow_policy="evict-oldest-embryonic",
                idle_timeout=5.0,
                time_wait_timeout=0.5,
                seed=seed,
            )
            flood_result = flood.run()
            print(f"  {flood_result.summary()}")
            reaped = flood.server.reaped
            print(
                f"  reaped: idle={reaped['idle']}"
                f" time-wait={reaped['time-wait']}"
            )
            record_retention(flood.server.demux, spec, seed, "flood")
            check(f"flood {label} (stack)", audit_stack(flood.server))
            check(
                f"flood {label} (leaks)",
                audit_leaks(flood.server.demux, grace=args.grace),
            )

    health = watchdog.evaluate(registry)
    print(f"watchdog: {health.describe()}")
    if failures:
        print(f"leak-audit: {len(failures)} FAILURE(S): {', '.join(failures)}")
        return 1
    print("leak-audit: all cells OK")
    return 0


def _cmd_hash_balance(args) -> int:
    config = TPCAConfig(n_users=args.users)
    keys = [config.user_tuple(i) for i in range(args.users)]
    print(
        f"{args.users} TPC/A connections over {args.chains} chains"
        f" (ideal scan {(args.users / args.chains + 1) / 2:.2f}):"
    )
    for name, balance in compare_functions(HASH_FUNCTIONS, keys, args.chains):
        print(f"  {name:<18} {balance.summary()}")
    return 0


def _cmd_pcap(args) -> int:
    from .sim.pcap import PcapReader

    records = PcapReader(args.file).read_all()
    if not records:
        print(f"{args.file}: empty capture")
        return 0
    first, last = records[0][0], records[-1][0]
    total_bytes = sum(packet.wire_length for _, packet in records)
    pure_acks = sum(1 for _, packet in records if packet.is_pure_ack)
    print(f"{args.file}: {len(records)} packets,"
          f" {total_bytes} IP bytes,"
          f" {last - first:.6f}s span")
    print(f"  pure acks: {pure_acks},"
          f" data/control: {len(records) - pure_acks}")
    if args.flows:
        flows = {}
        for _, packet in records:
            # Normalize both directions onto one flow key.
            tup = packet.four_tuple
            key = min(
                (str(tup.local_addr), tup.local_port,
                 str(tup.remote_addr), tup.remote_port),
                (str(tup.remote_addr), tup.remote_port,
                 str(tup.local_addr), tup.local_port),
            )
            entry = flows.setdefault(key, {"packets": 0, "bytes": 0})
            entry["packets"] += 1
            entry["bytes"] += len(packet.tcp.payload)
        print(f"  {len(flows)} flows:")
        for key, entry in sorted(flows.items()):
            a_addr, a_port, b_addr, b_port = key
            print(
                f"    {a_addr}:{a_port} <-> {b_addr}:{b_port}:"
                f" {entry['packets']} pkts,"
                f" {entry['bytes']} payload bytes"
            )
    return 0


def _parse_crash_shards(spec: str, nshards: int, seed: int):
    """``--crash-shards``: explicit ``S@P,...`` pairs, or a seeded
    ``K[:W]`` count routed through :class:`~repro.faults.infra.ShardCrash`
    so the CLI and the fault grammar crash identically."""
    from .faults.infra import ShardCrash

    spec = spec.strip()
    if "@" in spec:
        schedule = []
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            try:
                shard_text, packet_text = term.split("@")
                shard, packet = int(shard_text), int(packet_text)
            except ValueError:
                raise ValueError(
                    f"bad --crash-shards term {term!r}: expected SHARD@PACKET"
                ) from None
            schedule.append((packet, shard))
        return sorted(schedule)
    count, _, window = spec.partition(":")
    try:
        crash = ShardCrash(
            count=int(count), window=int(window) if window else 1000
        )
    except ValueError as exc:
        raise ValueError(f"bad --crash-shards spec {spec!r}: {exc}") from None
    return crash.schedule(nshards, seed)


def _cmd_recovery_drill(args) -> int:
    import json as json_module
    import pathlib

    from .recovery import DrillConfig, run_recovery_drill

    overrides = {}
    if args.algorithms:
        overrides["algorithms"] = tuple(args.algorithms)
    if args.seeds:
        overrides["seeds"] = tuple(args.seeds)
    if args.users is not None:
        overrides["n_users"] = args.users
    if args.packets is not None:
        overrides["n_packets"] = args.packets
    if args.checkpoint_every is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if args.mttr_budget is not None:
        overrides["mttr_budget_ms"] = args.mttr_budget
    result = run_recovery_drill(DrillConfig(**overrides))

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    text = result.render_text()
    (outdir / "recovery_drill.txt").write_text(text + "\n")
    (outdir / "recovery_drill.json").write_text(
        json_module.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
    )
    print(text)
    print(f"  artifacts written to {outdir}/recovery_drill.{{txt,json}}")
    return 0 if result.ok else 1


def _cmd_run_all(args) -> int:
    outdir = run_all(
        args.out,
        include_simulation=not args.no_simulation,
        sim_users=args.users,
        seed=args.seed,
        progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
    )
    print(f"artifacts written to {outdir}/")
    return 0


def _cmd_report(args) -> int:
    print(
        build_report(
            include_simulation=not args.no_simulation,
            sim_users=args.users,
            seed=args.seed,
            progress=lambda msg: print(f"  ... {msg}", file=sys.stderr),
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": lambda: _cmd_tables(),
        "figures": lambda: _cmd_figures(args),
        "validate": lambda: _cmd_validate(args),
        "simulate": lambda: _cmd_simulate(args),
        "obs-report": lambda: _cmd_obs_report(args),
        "compare": lambda: _cmd_compare(args),
        "fault-matrix": lambda: _cmd_fault_matrix(args),
        "smp-sweep": lambda: _cmd_smp_sweep(args),
        "bench-gate": lambda: _cmd_bench_gate(args),
        "serve": lambda: _cmd_serve(args),
        "record-info": lambda: _cmd_record_info(args),
        "canary": lambda: _cmd_canary(args),
        "leak-audit": lambda: _cmd_leak_audit(args),
        "hash-balance": lambda: _cmd_hash_balance(args),
        "pcap": lambda: _cmd_pcap(args),
        "recovery-drill": lambda: _cmd_recovery_drill(args),
        "run-all": lambda: _cmd_run_all(args),
        "report": lambda: _cmd_report(args),
    }
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
