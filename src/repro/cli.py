"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``vtc``          -- print the VTC threshold table and selected thresholds.
``delay``        -- proximity-aware delay/ttime for one configuration.
``characterize`` -- build and save a table-mode gate library.
``validate``     -- run the Table 5-1 validation.
``experiment``   -- run any experiment by id (e1..e8, a1..a4).
``glitch``       -- Section-6 minimum-separation (inertial delay).
``stats``        -- summarize a metrics report or run manifest; with
                    ``--trend``, compare benchmark baselines.
``top``          -- tail the live metrics snapshot of a ``--live`` run.
``serve``        -- long-lived characterization daemon (JSON over HTTP
                    and unix sockets; see :mod:`repro.serve`).

Every command takes ``-v/-vv/--quiet`` (logging) and ``--trace`` /
``--metrics`` / ``--manifest`` / ``--live`` (telemetry artifacts; see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .charlib import GateLibrary
from .charlib.library import cached_thresholds
from .core import DelayCalculator
from .errors import ReproError
from .gates import Gate
from .log import get_logger, setup_logging
from .obs.manifest import RunContext
from .tech.presets import PROCESSES
from .units import format_quantity, parse_quantity
from .waveform import Edge

_log = get_logger("cli")

__all__ = ["main", "build_parser"]


def _gate_from_args(args: argparse.Namespace) -> Gate:
    # The serve protocol speaks the CLI's cell-naming language; the one
    # parser lives there so daemon and CLI can never drift apart.
    from .serve.protocol import build_gate

    return build_gate(args.gate, args.process, args.load)


def _add_gate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gate", default="nand3",
                        help="cell: nandN, norN, inv, aoi21, oai21, aoi22")
    parser.add_argument("--process", default="default", choices=sorted(PROCESSES),
                        help="technology preset")
    parser.add_argument("--load", default="100f", help="output load (e.g. 100f)")


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size for independent simulations "
             "(default: REPRO_WORKERS env var, else serial; -1 = all "
             "cores; results are identical for any worker count)")
    parser.add_argument(
        "--batch", type=int, default=None, metavar="B",
        help="points per pooled task, so no effect below --workers 2; "
             "results identical (default: REPRO_BATCH env var, else 1)")


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log detail (-v info, -vv debug)")
    parser.add_argument(
        "--quiet", action="store_true", help="log errors only")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON of this run (open in "
             "chrome://tracing or Perfetto); also enables telemetry")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write the run's metric registry (counters, histograms) "
             "as JSON; summarize later with `repro stats FILE`")
    parser.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write a run manifest (args, env knobs, git SHA, metric "
             "totals) next to the outputs")
    parser.add_argument(
        "--live", metavar="DIR", nargs="?", const="live", default=None,
        help="periodically snapshot live metrics into DIR (default "
             "'live') as metrics.json + OpenMetrics metrics.prom; tail "
             "with `repro top`; interval via REPRO_LIVE_INTERVAL")


def _add_resilience_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retry", type=int, default=None, metavar="N",
        help="solver retry-ladder attempts per solve (default: REPRO_RETRY "
             "env var, else 3; 1 disables escalation)")
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task timeout for parallel simulations (default: "
             "REPRO_TASK_TIMEOUT env var, else none); a timed-out grid "
             "point is recorded in the health report, not fatal")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume interrupted/degraded sweeps from their progress "
             "journals, recomputing only missing points")
    parser.add_argument(
        "--sparse", choices=["auto", "0", "1"], default=None,
        help="linear-solver backend (REPRO_SPARSE): auto dispatches "
             "dense vs sparse SuperLU by unknown-node count, 1 forces "
             "sparse, 0 forces dense (default: auto)")


def _apply_resilience_options(args: argparse.Namespace) -> None:
    """Publish the resilience flags as environment variables.

    The env route (rather than argument threading) is deliberate: worker
    processes inherit the environment, so ``--retry`` and
    ``--task-timeout`` reach every fanned-out simulation exactly like
    ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR`` do.
    """
    import os

    from .parallel import BATCH_ENV_VAR, TIMEOUT_ENV_VAR
    from .resilience.retry import RETRY_ENV_VAR
    from .resilience.runtime import RESUME_ENV_VAR
    from .spice.sparse import SPARSE_ENV_VAR

    if getattr(args, "retry", None) is not None:
        os.environ[RETRY_ENV_VAR] = str(args.retry)
    if getattr(args, "task_timeout", None) is not None:
        os.environ[TIMEOUT_ENV_VAR] = str(args.task_timeout)
    if getattr(args, "resume", False):
        os.environ[RESUME_ENV_VAR] = "1"
    if getattr(args, "batch", None) is not None:
        os.environ[BATCH_ENV_VAR] = str(args.batch)
    if getattr(args, "sparse", None) is not None:
        os.environ[SPARSE_ENV_VAR] = args.sparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal-proximity gate delay modeling (DAC 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vtc = sub.add_parser("vtc", help="VTC family thresholds (paper Fig 2-1)")
    _add_gate_options(p_vtc)
    _add_obs_options(p_vtc)

    p_delay = sub.add_parser("delay", help="proximity-aware delay for one config")
    _add_gate_options(p_delay)
    _add_obs_options(p_delay)
    p_delay.add_argument(
        "--edge", action="append", required=True, metavar="PIN:DIR:TAU[:AT]",
        help="switching input, e.g. a:fall:500ps:0ps (repeatable)")
    p_delay.add_argument("--mode", default="oracle", choices=("oracle", "table"))
    p_delay.add_argument("--correction", default="paper",
                         choices=("paper", "scaled", "off"))

    p_char = sub.add_parser("characterize", help="build + save a table library")
    _add_gate_options(p_char)
    _add_workers_option(p_char)
    _add_resilience_options(p_char)
    _add_obs_options(p_char)
    p_char.add_argument("--output", required=True, help="JSON file to write")
    p_char.add_argument("--fast", action="store_true",
                        help="use the small demo grids")

    p_val = sub.add_parser("validate", help="Table 5-1 validation run")
    _add_gate_options(p_val)
    _add_workers_option(p_val)
    _add_resilience_options(p_val)
    _add_obs_options(p_val)
    p_val.add_argument("--configs", type=_count, default=100)
    p_val.add_argument("--seed", type=int, default=1996)

    p_exp = sub.add_parser("experiment", help="run a paper experiment by id")
    p_exp.add_argument("id", choices=(
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8",
        "a1", "a2", "a3", "a4"))
    p_exp.add_argument("--quick", action="store_true",
                       help="reduced sweep sizes for a fast look")
    _add_workers_option(p_exp)
    _add_resilience_options(p_exp)
    _add_obs_options(p_exp)

    p_glitch = sub.add_parser("glitch", help="Section-6 inertial delay")
    _add_gate_options(p_glitch)
    _add_obs_options(p_glitch)
    p_glitch.add_argument("--causing", default="b")
    p_glitch.add_argument("--blocking", default="a")
    p_glitch.add_argument("--tau-causing", default="100ps")
    p_glitch.add_argument("--tau-blocking", default="500ps")

    p_stats = sub.add_parser(
        "stats", help="summarize a --metrics report or --manifest file")
    p_stats.add_argument("file", nargs="?", default=None,
                         help="metrics or manifest JSON to read")
    p_stats.add_argument(
        "--trend", action="store_true",
        help="compare committed BENCH_*.json baselines against a later "
             "run, flagging wall-time regressions with phase-histogram "
             "attribution")
    p_stats.add_argument(
        "--baseline", metavar="DIR", default="benchmarks/baseline",
        help="baseline BENCH_*.json directory for --trend "
             "(default: benchmarks/baseline)")
    p_stats.add_argument(
        "--current", metavar="DIR", default=None,
        help="directory holding the later run's BENCH_*.json records "
             "for --trend (e.g. the bench job's REPRO_BENCH_DIR)")
    p_stats.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="fractional wall-time slowdown flagged as a regression "
             "by --trend (default: 0.25)")
    _add_obs_options(p_stats)

    p_top = sub.add_parser(
        "top", help="tail the live metrics snapshot of a --live run")
    p_top.add_argument("dir", nargs="?", default="live",
                       help="live snapshot directory (or metrics.json "
                            "path) to tail; default 'live'")
    p_top.add_argument("--once", action="store_true",
                       help="render one frame and exit (exit 1 when no "
                            "snapshot exists yet)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="refresh cadence (default: 1.0)")
    _add_obs_options(p_top)

    p_serve = sub.add_parser(
        "serve", help="long-lived characterization daemon (HTTP + unix)")
    _add_obs_options(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="TCP bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8357,
                         help="TCP port; 0 picks an ephemeral port "
                              "(default: 8357)")
    p_serve.add_argument("--socket", default=None, metavar="PATH",
                         help="also serve on a unix-domain socket at PATH")
    p_serve.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                         help="response-cache TTL (default: REPRO_SERVE_TTL "
                              "env var, else 300; 0 never expires)")
    p_serve.add_argument("--cache-max", type=int, default=None, metavar="N",
                         help="response-cache entry cap (default: "
                              "REPRO_SERVE_CACHE_MAX env var, else 1024; "
                              "0 disables caching)")
    p_serve.add_argument("--no-coalesce", action="store_true",
                         help="disable request coalescing (each query "
                              "solves scalar; results are identical)")
    p_serve.add_argument("--ready-file", default=None, metavar="FILE",
                         help="write a JSON line with the bound endpoints "
                              "once listening (for scripts and CI)")
    return parser


def _parse_edge(spec: str) -> tuple[str, Edge]:
    from .serve.protocol import parse_edge_spec

    return parse_edge_spec(spec)


def _cmd_vtc(args: argparse.Namespace) -> int:
    from .experiments.report import format_table
    from .vtc import threshold_table, select_thresholds
    from .charlib.library import cached_vtc_family

    gate = _gate_from_args(args)
    family = cached_vtc_family(gate)
    print(format_table(threshold_table(family)))
    thr = select_thresholds(family, gate.process.vdd)
    print(f"\nselected: {thr.describe()}")
    return 0


def _cmd_delay(args: argparse.Namespace) -> int:
    from .serve.protocol import format_delay_report

    gate = _gate_from_args(args)
    edges = dict(_parse_edge(spec) for spec in args.edge)
    library = GateLibrary.characterize(gate, mode=args.mode)
    calc = DelayCalculator(library, correction=args.correction)
    result = calc.explain(edges)
    print(format_delay_report(result))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .charlib import DualInputGrid, SingleInputGrid

    _apply_resilience_options(args)
    gate = _gate_from_args(args)
    kwargs = {}
    if args.fast:
        kwargs["single_grid"] = SingleInputGrid.fast()
        kwargs["dual_grid"] = DualInputGrid.fast()
    library = GateLibrary.characterize(gate, mode="table",
                                       workers=args.workers, **kwargs)
    library.save(args.output)
    print(f"wrote {args.output}: thresholds {library.thresholds.describe()}, "
          f"{len(library.single_keys)} single + {len(library.dual_keys)} dual models")
    print(library.health_summary())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .experiments import table5_1

    _apply_resilience_options(args)
    process = PROCESSES[args.process]()
    result = table5_1.run(process, n_configs=args.configs, seed=args.seed,
                          load=parse_quantity(args.load, unit="F"),
                          workers=args.workers)
    print(result.summary())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments as ex

    _apply_resilience_options(args)
    quick = args.quick
    if args.id in ("e1", "e2"):
        direction = "fall" if args.id == "e1" else "rise"
        seps = [s * 1e-12 for s in range(-200, 701, 150)] if quick else None
        print(ex.fig1_2.run(direction=direction, separations=seps).summary())
    elif args.id == "e3":
        print(ex.fig2_1.run().summary())
    elif args.id == "e4":
        kwargs = {"points_per_curve": 7, "tau_bs": (100e-12, 1000e-12)} if quick else {}
        print(ex.fig3_3.run(**kwargs).summary())
    elif args.id == "e5":
        print(ex.fig4_2.run().summary())
    elif args.id in ("e6", "e7"):
        n = 15 if quick else 100
        validation = ex.table5_1.run(n_configs=n, workers=args.workers)
        if args.id == "e6":
            print(validation.summary())
        else:
            print(ex.fig5_1.run(validation=validation).summary())
    elif args.id == "e8":
        kwargs = {"tau_rises": (100e-12, 1000e-12),
                  "separations": [s * 1e-12 for s in range(-200, 1101, 260)]} if quick else {}
        print(ex.fig6_1.run(**kwargs).summary())
    elif args.id == "a1":
        print(ex.baselines_exp.run(n_configs=8 if quick else 30,
                                   workers=args.workers).summary())
    elif args.id == "a2":
        print(ex.ablations.run(n_configs=6 if quick else 25,
                               workers=args.workers).summary())
    elif args.id == "a3":
        print(ex.timing_exp.run(n_scenarios=2 if quick else 4).summary())
    elif args.id == "a4":
        print(ex.crossgate.run(n_configs=3 if quick else 10,
                               workers=args.workers).summary())
    return 0


def _cmd_glitch(args: argparse.Namespace) -> int:
    from .inertial import SimulatorGlitchModel, minimum_separation

    gate = _gate_from_args(args)
    thresholds = cached_thresholds(gate)
    model = SimulatorGlitchModel(gate, args.causing, args.blocking, thresholds)
    min_sep = minimum_separation(
        model,
        parse_quantity(args.tau_causing, unit="s"),
        parse_quantity(args.tau_blocking, unit="s"),
        thresholds,
    )
    print(f"minimum valid separation (inertial delay): "
          f"{format_quantity(min_sep, 's')}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs import bench_trend, format_bench, format_stats

    if args.trend:
        print(bench_trend(args.baseline, args.current,
                          threshold=args.threshold))
        return 0
    if args.file is None:
        raise ReproError(
            "stats needs a metrics/manifest FILE to summarize "
            "(or --trend for benchmark-trend analysis)")
    # A benchmark trajectory that has not accumulated anything yet is a
    # normal state, not an error: a missing file, an empty file, or an
    # empty JSON list/object all render as "no history".
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError:
        print(f"no recorded stats: {args.file!r} does not exist yet")
        return 0
    if not text.strip():
        print(f"no recorded stats: {args.file!r} is empty")
        return 0
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"cannot read {args.file!r}: {exc}") from exc
    if isinstance(document, (list, dict)) and not document:
        print(f"no recorded stats: {args.file!r} holds an empty history")
        return 0
    if not isinstance(document, dict):
        raise ReproError(f"{args.file!r} is not a metrics/manifest document")
    if document.get("kind") == "repro-bench":
        print(format_bench(document))
        return 0
    title = None
    if document.get("kind") == "repro-manifest":
        sha = document.get("git_sha") or "unknown"
        wall = document.get("wall_seconds")
        title = (f"run manifest: command={document.get('command') or '?'} "
                 f"git={sha[:12]}"
                 + (f" wall={wall:.2f}s" if isinstance(wall, float) else ""))
    print(format_stats(document, title=title))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs import format_top, read_snapshot
    from .obs.live import SNAPSHOT_NAME

    path = args.dir
    if not path.endswith(".json"):
        path = os.path.join(path, SNAPSHOT_NAME)
    previous = None
    try:
        while True:
            document = read_snapshot(path)
            if document is None:
                text = (f"no live snapshot at {path} yet -- run a repro "
                        "command with --live (snapshots land atomically, "
                        "so a partial file never renders)")
            else:
                text = format_top(document, previous=previous)
                previous = document
            if args.once:
                print(text)
                return 0 if document is not None else 1
            # Clear + home, like top(1); the snapshot file is replaced
            # atomically so every frame reads a complete document.
            sys.stdout.write("\x1b[2J\x1b[H" + text + "\n")
            sys.stdout.flush()
            time.sleep(max(0.05, args.interval))
    except KeyboardInterrupt:
        return 0


def _serve_recorder():
    """The recorder ``repro serve`` pins, or ``None`` when one is armed.

    ``/metrics`` needs a real registry even when no ``--trace`` or
    ``--metrics`` flag (or ``REPRO_OBS``) armed one, so the daemon pins
    a :class:`~repro.obs.MetricsRecorder` for its lifetime: the metric
    registry and the flight ring, and no span buffer, which nothing in
    the daemon would ever drain.
    """
    from .obs import MetricsRecorder, get_recorder

    return None if get_recorder().enabled else MetricsRecorder()


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal
    import threading
    import time

    from .obs import get_recorder, set_recorder
    from .serve import ReproServer, ServeState
    from .serve.coalesce import coalescing_enabled

    pinned = _serve_recorder()
    if pinned is not None:
        set_recorder(pinned)

    coalesce = coalescing_enabled() and not args.no_coalesce
    state = ServeState(ttl=args.ttl, cache_max=args.cache_max)
    server = ReproServer(host=args.host, port=args.port,
                         socket_path=args.socket, state=state,
                         coalesce=coalesce)
    stop = threading.Event()

    def _request_shutdown(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _request_shutdown)

    server.start()
    endpoints = {"http": server.http_endpoint}
    if server.unix_endpoint:
        endpoints["unix"] = server.unix_endpoint
    if args.ready_file:
        with open(args.ready_file, "w") as handle:
            json.dump(endpoints, handle)
            handle.write("\n")
    print(f"repro serve listening on {server.http_endpoint}"
          + (f" and {server.unix_endpoint}" if server.unix_endpoint else "")
          + (" (coalescing)" if coalesce else " (coalescing off)"),
          flush=True)
    try:
        # A sleep loop rather than Event.wait(): the handler runs on
        # this thread, and setting an Event the thread is blocked on
        # would contend for the Event's own lock.
        while not stop.is_set():
            time.sleep(0.2)
    finally:
        drained = server.stop()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if pinned is not None and get_recorder() is pinned:
            from .obs import reset_recorder

            reset_recorder()
    print(f"repro serve shut down cleanly (drained={drained})", flush=True)
    return 0


_COMMANDS = {
    "vtc": _cmd_vtc,
    "delay": _cmd_delay,
    "characterize": _cmd_characterize,
    "validate": _cmd_validate,
    "experiment": _cmd_experiment,
    "glitch": _cmd_glitch,
    "stats": _cmd_stats,
    "top": _cmd_top,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(getattr(args, "verbose", 0),
                  quiet=getattr(args, "quiet", False))
    context = RunContext.from_args(args)
    context.arm()
    try:
        with context.root_span(f"repro.{args.command}"):
            return _COMMANDS[args.command](args)
    except ReproError as exc:
        _log.error(str(exc))
        return 1
    except BrokenPipeError:
        # Downstream closed the pipe (`repro stats ... | head`); point
        # stdout at devnull so interpreter shutdown doesn't re-raise on
        # the final flush, and exit quietly like other Unix tools.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # pragma: no cover - in-process callers
            pass
        return 0
    finally:
        for path in context.finalize():
            _log.info("wrote %s", path)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
