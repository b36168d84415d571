"""One benchmark run: set up, measure, check the outputs, print the metrics.

    python bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
                        [--trace-dir DIR] [--out FILE] [--smoke]
    python bench/run.py --all --seed N [--seconds S] [--trace 0|1] [--out DIR]
    python bench/run.py --workload NAME --seed N --make-reference

Every time reported is normalized to a CPU at nominal speed (see
``bench/speed.py``).  Every line but the last is for people.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
for ``--trace 0``, its per-layer metrics for ``--trace 1``.  End-to-end
numbers come from untraced runs only; a traced run measures half its
time untraced and half traced, and reports the difference as
``trace.overhead_frac``.
"""

import time

# Set-up is timed from here, before anything imports repro.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The checkout root replaces this script's directory on the path, so
# ``bench.trace`` never shadows the standard library's ``trace``.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import common  # noqa: E402
from bench.serve_load import ServeBatch, ServeSingle, ServeWorkload  # noqa: E402
from bench.speed import SpeedMeter, pin_to_one_cpu  # noqa: E402
from bench.trace import (LAYER_METRICS, Tracer, in_window, layer_metrics, now,  # noqa: E402
                         registry_delta, registry_from_openmetrics, registry_from_payload,
                         write_chrome_trace)
from bench.workloads import CharlibBatch, FlatLarge, ValidateOracle  # noqa: E402

WORKLOADS = {w.name: w for w in (ValidateOracle, CharlibBatch, ServeSingle, ServeBatch,
                                 FlatLarge)}

#: The end-to-end metrics, in ``BENCHMARK.json`` order, with units.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
              ("p50_ms", "ms"))

#: Set-ups per untraced run: the run's own plus fresh-process repeats.
SETUP_RUNS = 3

DEFAULT_SECONDS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=common.OUT / "trace",
                        help="where traced runs write Chrome trace JSON")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result record here (a directory with --all)")
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops and one set-up: checks only, numbers meaningless")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--make-reference", action="store_true",
                        help="record reference outputs for this workload and seed")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_run(workload, setup_output, records, reference):
    """Problems as (op index or 'setup', message), reference seeds
    against their recorded outputs, every seed against invariants."""
    problems = []
    ref_ops = reference["ops"] if reference else []
    if reference:
        problems += [("setup", p) for p in common.compare_output(reference["setup"],
                                                                 setup_output)]
    for record in records:
        if record.error is not None:
            problems.append((record.index, record.error))
            continue
        found = workload.invariants(record)
        if record.index < len(ref_ops):
            found += common.compare_output(ref_ops[record.index], record.output)
        problems += [(record.index, p) for p in found]
    problems += workload.cross_checks(records)
    return problems


def result_line(problems, records, metrics):
    failed_ops = {index for index, _ in problems if index != "setup"}
    return {
        "correct": not problems,
        "attempted": max(1, len(records)),
        "failed": len(failed_ops) + (1 if any(i == "setup" for i, _ in problems) else 0),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def setup_window(workload, end: float):
    """When set-up ran: from process start for in-process workloads,
    from the server's spawn for the serve workloads."""
    return workload.setup_window if isinstance(workload, ServeWorkload) else (T0, end)


def run_phase(workload, args, start: int, seconds: float):
    if args.smoke:
        return workload.run_phase(start, count=workload.smoke_ops)
    return workload.run_phase(start, seconds=seconds)


def normalized_rate(meter, phase) -> float:
    seconds = meter.normalize(phase.start, phase.end)
    return phase.work / seconds if seconds > 0 else 0.0


def measure(workload, args, meter):
    """An untraced run: the end-to-end metrics."""
    setup_output = workload.setup()
    setups = [meter.normalize(*setup_window(workload, now()))]
    if not args.smoke:
        workload.warm_up()
    phase = run_phase(workload, args, 0, args.seconds)
    rss = workload.peak_rss_mb()
    if not args.smoke:
        if not isinstance(workload, ServeWorkload):
            meter.stop()  # set-up children time themselves, on this CPU
        setups += [workload.cold_setup_seconds(meter) for _ in range(SETUP_RUNS - 1)]
    workload.close()
    ok = [r for r in phase.records if r.error is None]
    latencies = [meter.normalize(r.start, r.start + r.latency) for r in ok]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "ops_per_s": normalized_rate(meter, phase),
        "p50_ms": statistics.median(latencies) * 1e3 if latencies else float("nan"),
    }
    raw_p50 = statistics.median(r.latency for r in ok) * 1e3 if ok else float("nan")
    notes = [f"set-ups (s): {' '.join(f'{s:.3f}' for s in setups)}",
             f"{len(phase.records)} ops (one {workload.op_unit} each) in {phase.wall:.2f} s: "
             f"{values['ops_per_s']:.4g} {workload.work_unit}/s",
             f"raw (not normalized): {phase.work / phase.wall:.4g} {workload.work_unit}/s, "
             f"p50 {raw_p50:.2f} ms; host speed factor "
             f"{meter.factor(phase.start, phase.end):.3f}"]
    rate_name, rate_unit = workload.rate_metric
    figures = {rate_name: (values["ops_per_s"], rate_unit)}
    tail = common.tail_percentile(latencies)
    if tail:
        figures[f"p{tail[0]}_ms"] = (tail[1] * 1e3, "ms")
        notes.append(f"latency tail: p{tail[0]} of {len(latencies)} ops")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return setup_output, phase.records, metrics, notes, {"setups": setups, "wall": phase.wall,
                                                          "figures": figures}


def measure_traced(workload, args, meter):
    """A traced run: half untraced, half traced; the per-layer metrics."""
    half = args.seconds / 2.0
    tracer = Tracer()
    serve = isinstance(workload, ServeWorkload)
    if not serve:
        tracer.install()
    setup_output = workload.setup()
    s0, s1 = setup_window(workload, now())
    tracer.uninstall()
    if not args.smoke:
        workload.warm_up()
    untraced = run_phase(workload, args, 0, half)
    records = list(untraced.records)
    if serve:
        s0, s1 = workload.restart(traced=True)
        workload.tracer = tracer
        if not args.smoke:
            workload.warm_up()
        before = registry_from_openmetrics(workload.server.metrics_text())
        traced = run_phase(workload, args, 0, half)
        registry = registry_delta(registry_from_openmetrics(workload.server.metrics_text()),
                                  before)
        trace_path = workload.server.trace_path
        workload.close()
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
    else:
        from repro.obs import get_recorder

        os.environ["REPRO_OBS"] = "1"  # the program's own registry, traced half only
        tracer.install()
        workload.tracer = tracer
        traced = run_phase(workload, args, untraced.next_index, half)
        tracer.uninstall()
        registry = registry_from_payload(get_recorder().metrics_payload())
        del os.environ["REPRO_OBS"]
        events = []
    workload.tracer = None
    records += traced.records
    events += tracer.chrome_events(os.getpid())
    rates = normalized_rate(meter, untraced), normalized_rate(meter, traced)
    values = layer_metrics(in_window(events, traced.start, traced.end),
                           in_window(events, s0, s1), registry,
                           phase_seconds=traced.wall, setup_seconds=s1 - s0,
                           overhead_frac=1.0 - rates[1] / rates[0] if rates[0] else 0.0)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = args.trace_dir / f"{workload.name}-{args.seed}.json"
    write_chrome_trace(trace_file, events, registry)
    notes = [f"untraced {rates[0]:.4g} vs traced {rates[1]:.4g} {workload.work_unit}/s "
             f"(normalized); trace written to {trace_file}"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    return setup_output, records, metrics, notes, {"wall": traced.wall}


def run_one(args) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    started = time.time()
    meter = workload.meter = SpeedMeter().start()
    try:
        if args.setup_only:
            workload.setup()
            print(repr(meter.normalize(T0, now())))
            return 0
        if args.make_reference:
            return make_reference(workload)
        run = measure_traced if args.trace else measure
        setup_output, records, metrics, notes, extra = run(workload, args, meter)
    finally:
        meter.stop()
        workload.close()
    reference = common.load_reference(workload.name, args.seed)
    problems = check_run(workload, setup_output, records, reference)
    line = result_line(problems, records, metrics)
    done = [r for r in records if r.output]
    figures = {**extra.pop("figures", {}), **workload.figures(done),
               "fail_frac": (line["failed"] / line["attempted"], "fraction")}

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
    print("  not gated:")
    for name, (value, unit) in figures.items():
        print(f"    {name:<32} {value:.6g} {unit}")
    for note in notes + workload.summary(done):
        print(f"  {note}")
    ref_text = (f"reference {common.reference_path(workload.name, args.seed).name}"
                if reference else "invariant checks only (no reference for this seed)")
    print(f"  checks: {line['attempted']} ops, {line['failed']} failed; {ref_text}")
    for index, problem in problems[:10]:
        print(f"    op {index}: {problem}")
    if args.out is not None:
        common.write_json(args.out, {
            **line, "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "started": started,
            "duration": time.time() - started, "provenance": common.provenance(),
            "figures": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in figures.items()},
            "problems": [[str(i), p] for i, p in problems[:50]], **extra})
    print(json.dumps(line), flush=True)
    return 0


def make_reference(workload) -> int:
    """Record the outputs of the first ``reference_ops`` ops."""
    setup_output = workload.setup()
    workload.warm_up()
    records = workload.run_phase(0, count=workload.reference_ops).records
    workload.close()
    problems = check_run(workload, setup_output, records, None)
    if problems:
        for index, problem in problems[:20]:
            print(f"op {index}: {problem}", file=sys.stderr)
        return 1
    path = common.reference_path(workload.name, workload.seed)
    common.write_json(path, {"workload": workload.name, "seed": workload.seed,
                             "provenance": common.provenance(), "setup": setup_output,
                             "ops": [r.output for r in records]})
    print(f"wrote {path} ({len(records)} ops)")
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every result line."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(args.trace_dir)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out is not None:
            cmd += ["--out", str(args.out / f"{name}-{args.seed}-t{args.trace}.json")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps({"correct": status == 0, "workloads": results}), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_source()
    if args.all:
        return run_all(args)
    pin_to_one_cpu()
    common.isolate_environ(common.scratch_dir("cache"))
    try:
        return run_one(args)
    finally:
        common.remove_scratch()


if __name__ == "__main__":
    sys.exit(main())
