"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` wraps public callables of the ``repro`` package (see
:data:`TARGETS`) with timing wrappers.  A function is replaced on every
module attribute that holds the same function object, so call sites
that did ``from x import f`` are traced too; methods are replaced on
their class.  :meth:`Tracer.uninstall` puts every original back.

Each span records its name, start, end, parent span (the enclosing
span on the same thread) and an op id: the benchmark sets the id per
config, grid point or circuit; in the server one id covers each HTTP
request on its handler thread, and pool-thread spans take the query
signature.  Spans stay in memory and are written as Chrome trace JSON
when the run ends.  :func:`layer_metrics` turns the events into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

now = time.perf_counter

# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _lanes(args, kwargs, result) -> Dict[str, Any]:
    return {"lanes": len(args[1] if len(args) > 1 else kwargs["requests"])}


def _batch_transient(args, kwargs, result) -> Dict[str, Any]:
    circuits = args[0] if args else kwargs["circuits"]
    steps = sum(len(r.times) - 1 for r in result if hasattr(r, "times"))
    return {"lanes": len(circuits), "steps": steps}


def _transient(args, kwargs, result) -> Dict[str, Any]:
    return {"steps": len(result.times) - 1}


#: (module, attribute path, span name, extra-args hook).  An attribute
#: path with a dot names a method on a class.
TARGETS: Tuple[Tuple[str, str, str, Any], ...] = (
    ("repro.serve.server", "ServeApp.handle_delay", "serve.request", None),
    ("repro.serve.state", "ServeState.cached_or_compute", "serve.cache", None),
    ("repro.serve.state", "ServeState.delay_response", "serve.compute", None),
    ("repro.serve.coalesce", "ShotBroker.route", "serve.route", None),
    ("repro.core.api", "DelayCalculator.explain", "core.explain", None),
    ("repro.core.api", "DelayCalculator.step_error", "core.step_error", None),
    ("repro.core.algorithm", "proximity_delay", "core.proximity", None),
    ("repro.models.single", "SimulatorSingleInputModel.delay", "models.oracle", None),
    ("repro.models.single", "SimulatorSingleInputModel.ttime", "models.oracle", None),
    ("repro.models.dual", "SimulatorDualInputModel.delay_ratio", "models.oracle", None),
    ("repro.models.dual", "SimulatorDualInputModel.ttime_ratio", "models.oracle", None),
    ("repro.charlib.simulate", "multi_input_response", "charlib.shot", None),
    ("repro.charlib.simulate", "multi_input_response_batch", "charlib.shot_batch", _lanes),
    ("repro.charlib.single", "characterize_single_input", "charlib.sweep", None),
    ("repro.charlib.dual", "characterize_dual_input", "charlib.sweep", None),
    ("repro.charlib.cache", "CharacterizationCache.get_or_compute", "charlib.cache", None),
    ("repro.gates.gate", "Gate.build", "gates.build", None),
    ("repro.vtc.extract", "vtc_family", "vtc.family", None),
    ("repro.waveform.measure", "gate_delay", "waveform.measure", None),
    ("repro.waveform.measure", "transition_time", "waveform.measure", None),
    ("repro.spice.netlist", "Circuit.compile", "spice.compile", None),
    ("repro.spice.transient", "transient", "spice.transient", _transient),
    ("repro.spice.batch", "transient_batch", "spice.transient_batch", _batch_transient),
    ("repro.spice.dc", "solve_dc", "spice.dc", None),
    ("repro.spice.batch", "solve_dc_batch", "spice.dc", None),
    ("repro.spice.dc", "dc_sweep", "spice.dc", None),
    ("repro.spice.builders", "hierarchical_decoder", "spice.build", None),
    ("repro.spice.builders", "bitcell_array", "spice.build", None),
    ("repro.spice.builders", "delay_chain", "spice.build", None),
    ("repro.resilience.journal", "ProgressJournal.record", "resilience.journal", None),
)

#: Span names that open a new op id when they are the first span on a
#: thread the benchmark did not label (server handler, pool and broker
#: threads).
_ROOT_IDS = {"serve.request": "request", "serve.cache": "signature"}


class Tracer:
    """In-memory span recorder plus the patching of :data:`TARGETS`."""

    def __init__(self) -> None:
        self.events: List[tuple] = []
        self.thread_names: Dict[int, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []
        self._originals: Dict[int, Tuple[object, object]] = {}

    # -- op ids and harness spans -----------------------------------------
    def set_op(self, op: Any) -> None:
        """Label every span the calling thread opens from now on."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self.thread_names[threading.get_ident()] = threading.current_thread().name
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (the ``loadgen`` layer)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            self.events.append((sid, parent, name, start, end, threading.get_ident(),
                                getattr(self._local, "op", None), None))

    # -- wrapping ------------------------------------------------------------
    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for ``fn`` recording spans named ``name``."""
        local, events, ids = self._local, self.events, self._ids
        root_id = _ROOT_IDS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            labelled = False
            if not stack and root_id is not None:
                local.op = (args[1] if root_id == "signature" else f"request-{sid}")
                labelled = True
            extra: Optional[Dict[str, Any]] = None
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                extra = {"error": True}
                raise
            else:
                if hook is not None:
                    extra = hook(args, kwargs, result)
                return result
            finally:
                end = now()
                stack.pop()
                events.append((sid, parent, name, start, end, threading.get_ident(),
                               getattr(local, "op", None), extra))
                if labelled:
                    local.op = None

        return traced

    def install(self) -> "Tracer":
        """Patch every target; idempotent per tracer."""
        if self._patched:
            return self
        for module_name, path, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self.wrap(name, original, hook))
                continue
            original = getattr(module, path)
            wrapper = self.wrap(name, original, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))
        self._originals[id(wrapper)] = (wrapper, original)

    def uninstall(self) -> None:
        """Put every original callable back, including references that
        modules imported after :meth:`install` copied from a patched one."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "repro":
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
        self._patched = []
        self._originals = {}

    # -- output ----------------------------------------------------------------
    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """The spans as Chrome trace events (``ts``/``dur`` in µs on the
        shared monotonic clock, so two processes' traces line up)."""
        out = []
        for sid, parent, name, start, end, tid, op, extra in self.events:
            args = {"span": sid, "parent": parent, "id": op,
                    "thread": self.thread_names.get(tid, "")}
            if extra:
                args.update(extra)
            out.append({"name": name, "cat": "repro", "ph": "X", "pid": pid,
                        "tid": tid, "ts": start * 1e6, "dur": (end - start) * 1e6,
                        "args": args})
        return out


def write_chrome_trace(path, events: List[Dict[str, Any]],
                       registry: Optional[Dict[str, float]] = None) -> None:
    """Write Chrome trace JSON (``registry`` rides along as metadata)."""
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    if registry is not None:
        document["registry"] = registry
    with open(path, "w") as handle:
        json.dump(document, handle)


# ----------------------------------------------------------------------
# The program's own registry (Newton counts, phase seconds)
# ----------------------------------------------------------------------

PHASE_DRIVERS = ("dense", "sparse", "batch", "sparse_batch")
PHASE_PARTS = ("assembly", "factorize")


def registry_from_payload(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a :meth:`MetricRegistry.snapshot` into the counts we use."""
    flat: Dict[str, float] = {}
    for key, value in payload.get("counters", {}).items():
        name = key.split("{", 1)[0]
        if name in ("spice.newton.iterations", "spice.newton.solves", "spice.retries"):
            flat[name] = flat.get(name, 0.0) + float(value)
    for key, entry in payload.get("histograms", {}).items():
        labels = dict(re.findall(r"(\w+)=([^,}]*)", key))
        if key.startswith("spice.phase.seconds{"):
            flat[f"phase.{labels.get('driver')}.{labels.get('phase')}"] = float(entry["sum"])
    return flat


_OM_LINE = re.compile(r"^repro_(\w+?)(_total|_sum)(?:\{([^}]*)\})? (\S+)$")


def registry_from_openmetrics(text: str) -> Dict[str, float]:
    """The same counts, parsed from a server's ``GET /metrics`` text."""
    flat: Dict[str, float] = {}
    for line in text.splitlines():
        match = _OM_LINE.match(line)
        if not match:
            continue
        family, suffix, labels_text, value = match.groups()
        labels = dict(re.findall(r'(\w+)="([^"]*)"', labels_text or ""))
        if suffix == "_total" and family in ("spice_newton_iterations",
                                            "spice_newton_solves", "spice_retries"):
            name = family.replace("_", ".", 2)
            flat[name] = flat.get(name, 0.0) + float(value)
        elif suffix == "_sum" and family == "spice_phase_seconds":
            flat[f"phase.{labels.get('driver')}.{labels.get('phase')}"] = float(value)
    return flat


def registry_delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric name, in ``BENCHMARK.json`` order, with unit.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("serve.request.calls", "count"), ("serve.request.self_frac", "fraction"),
    ("serve.cache.hit_ratio", "fraction"), ("serve.compute.frac", "fraction"),
    ("serve.route.calls", "count"), ("serve.route.frac", "fraction"),
    ("serve.flush.lanes_mean", "lanes"), ("serve.errors", "count"),
    ("core.explain.calls", "count"), ("core.explain.self_frac", "fraction"),
    ("core.step_error.calls", "count"),
    ("models.oracle.calls", "count"), ("models.oracle.memo_hit_ratio", "fraction"),
    ("models.self_frac", "fraction"),
    ("charlib.shot.calls", "count"), ("charlib.shot.self_frac", "fraction"),
    ("charlib.shot.transients_per_shot", "ratio"),
    ("charlib.shot_batch.calls", "count"), ("charlib.shot_batch.lanes_mean", "lanes"),
    ("charlib.shot_batch.self_frac", "fraction"),
    ("charlib.sweep.calls", "count"), ("charlib.sweep.self_frac", "fraction"),
    ("charlib.cache.calls", "count"), ("charlib.cache.hit_ratio", "fraction"),
    ("charlib.cache.self_frac", "fraction"),
    ("gates.build.calls", "count"), ("gates.build.frac", "fraction"),
    ("vtc.family.calls", "count"), ("vtc.family.frac", "fraction"),
    ("waveform.measure.calls", "count"), ("waveform.measure.frac", "fraction"),
    ("spice.compile.calls", "count"), ("spice.compile.frac", "fraction"),
    ("spice.transient.calls", "count"), ("spice.transient.self_frac", "fraction"),
    ("spice.transient_batch.calls", "count"),
    ("spice.transient_batch.lanes_mean", "lanes"),
    ("spice.transient_batch.self_frac", "fraction"),
    ("spice.dc.calls", "count"), ("spice.dc.self_frac", "fraction"),
    ("spice.steps.accepted", "count"), ("spice.newton.iterations", "count"),
    ("spice.newton.solves", "count"), ("spice.newton.iters_per_solve", "ratio"),
    ("spice.retries", "count"),
) + tuple(
    (f"spice.phase.{driver}.{part}_frac", "fraction")
    for driver in PHASE_DRIVERS for part in PHASE_PARTS
) + (
    ("resilience.journal.calls", "count"), ("resilience.journal.frac", "fraction"),
    ("trace.coverage_frac", "fraction"), ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"), ("loadgen.client_frac", "fraction"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_table(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Events with ``dur``, ``self`` (duration minus children's) in
    seconds and their number of ``children``."""
    child_time: Dict[Tuple[int, int], float] = {}
    child_count: Dict[Tuple[int, int], int] = {}
    for ev in events:
        key = (ev["pid"], ev["args"]["parent"])
        child_time[key] = child_time.get(key, 0.0) + ev["dur"] * 1e-6
        child_count[key] = child_count.get(key, 0) + 1
    table = []
    for ev in events:
        dur = ev["dur"] * 1e-6
        key = (ev["pid"], ev["args"]["span"])
        table.append({**ev["args"], "name": ev["name"], "pid": ev["pid"],
                      "start": ev["ts"] * 1e-6, "dur": dur,
                      "self": dur - child_time.get(key, 0.0),
                      "children": child_count.get(key, 0)})
    return table


def in_window(events: List[Dict[str, Any]], start: float, end: float) -> List[Dict[str, Any]]:
    """Events that began inside ``[start, end]`` (seconds, shared clock)."""
    lo, hi = start * 1e6, end * 1e6
    return [ev for ev in events if lo <= ev["ts"] <= hi]


def layer_metrics(phase_events: List[Dict[str, Any]], setup_events: List[Dict[str, Any]],
                  registry: Dict[str, float], *, phase_seconds: float,
                  setup_seconds: float, overhead_frac: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``phase_events`` are the spans of the measured phase (program and
    ``loadgen``) and ``phase_seconds`` its wall time, which every
    ``_frac`` divides by.  ``vtc.*`` and ``spice.dc.*`` describe set-up
    instead: ``setup_events`` over ``setup_seconds``.  ``registry`` holds the program's own Newton
    counts and phase seconds for the measured phase.
    """
    spans = span_table(phase_events)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    ids = {(s["pid"], s["span"]): s for s in spans}

    def named(name):
        return by_name.get(name, [])

    def share(name):
        # Self time, summed over threads.
        return _ratio(sum(s["self"] for s in named(name)), phase_seconds)

    def outer_share(name):
        # Wall time some span of this name was open: the union of their
        # intervals, so concurrent pool threads and nesting count once.
        total, reach = 0.0, float("-inf")
        for start, end in sorted((s["start"], s["start"] + s["dur"]) for s in named(name)):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        return _ratio(total, phase_seconds)

    def mean(name, key):
        values = [s[key] for s in named(name) if key in s]
        return _ratio(sum(values), len(values))

    def hit_ratio(name):
        # A cache or memo hit never ran its compute path: no child spans.
        calls = named(name)
        return _ratio(sum(1 for s in calls if not s["children"]), len(calls))

    def under_shot(span):
        parent = ids.get((span["pid"], span["parent"]))
        while parent is not None:
            if parent["name"] == "charlib.shot":
                return True
            parent = ids.get((parent["pid"], parent["parent"]))
        return False

    shots = named("charlib.shot")
    flushes = [s for s in named("charlib.shot_batch") if s["thread"] == "repro-serve-broker"]
    roots = [s for s in spans if s["parent"] == 0 and s["name"] != "loadgen"
             and not s["thread"].startswith(("repro-serve-worker", "repro-serve-broker"))]
    loadgen = sum(s["dur"] for s in named("loadgen"))
    covered = sum(s["dur"] for s in roots) + loadgen
    setup = span_table(setup_events)
    setup_named = {name: [s for s in setup if s["name"] == name]
                   for name in ("vtc.family", "spice.dc")}
    iterations = registry.get("spice.newton.iterations", 0.0)
    solves = registry.get("spice.newton.solves", 0.0)

    metrics = {
        "serve.request.calls": len(named("serve.request")),
        "serve.request.self_frac": share("serve.request"),
        "serve.cache.hit_ratio": hit_ratio("serve.cache"),
        "serve.compute.frac": outer_share("serve.compute"),
        "serve.route.calls": len(named("serve.route")),
        "serve.route.frac": outer_share("serve.route"),
        "serve.flush.lanes_mean": _ratio(sum(s["lanes"] for s in flushes), len(flushes)),
        "serve.errors": sum(1 for s in named("serve.request") if s.get("error")),
        "core.explain.calls": len(named("core.explain")),
        "core.explain.self_frac": share("core.explain"),
        "core.step_error.calls": len(named("core.step_error")),
        "models.oracle.calls": len(named("models.oracle")),
        "models.oracle.memo_hit_ratio": hit_ratio("models.oracle"),
        "models.self_frac": share("models.oracle"),
        "charlib.shot.calls": len(shots),
        "charlib.shot.self_frac": share("charlib.shot"),
        "charlib.shot.transients_per_shot": _ratio(
            sum(1 for s in named("spice.transient") if under_shot(s)), len(shots)),
        "charlib.shot_batch.calls": len(named("charlib.shot_batch")),
        "charlib.shot_batch.lanes_mean": mean("charlib.shot_batch", "lanes"),
        "charlib.shot_batch.self_frac": share("charlib.shot_batch"),
        "charlib.sweep.calls": len(named("charlib.sweep")),
        "charlib.sweep.self_frac": share("charlib.sweep"),
        "charlib.cache.calls": len(named("charlib.cache")),
        "charlib.cache.hit_ratio": hit_ratio("charlib.cache"),
        "charlib.cache.self_frac": share("charlib.cache"),
        "gates.build.calls": len(named("gates.build")),
        "gates.build.frac": outer_share("gates.build"),
        "vtc.family.calls": len(setup_named["vtc.family"]),
        "vtc.family.frac": _ratio(sum(s["dur"] for s in setup_named["vtc.family"]),
                                  setup_seconds),
        "waveform.measure.calls": len(named("waveform.measure")),
        "waveform.measure.frac": outer_share("waveform.measure"),
        "spice.compile.calls": len(named("spice.compile")),
        "spice.compile.frac": outer_share("spice.compile"),
        "spice.transient.calls": len(named("spice.transient")),
        "spice.transient.self_frac": share("spice.transient"),
        "spice.transient_batch.calls": len(named("spice.transient_batch")),
        "spice.transient_batch.lanes_mean": mean("spice.transient_batch", "lanes"),
        "spice.transient_batch.self_frac": share("spice.transient_batch"),
        "spice.dc.calls": len(setup_named["spice.dc"]),
        "spice.dc.self_frac": _ratio(sum(s["self"] for s in setup_named["spice.dc"]),
                                     setup_seconds),
        "spice.steps.accepted": sum(s.get("steps", 0) for s in named("spice.transient"))
        + sum(s.get("steps", 0) for s in named("spice.transient_batch")),
        "spice.newton.iterations": iterations,
        "spice.newton.solves": solves,
        "spice.newton.iters_per_solve": _ratio(iterations, solves),
        "spice.retries": registry.get("spice.retries", 0.0),
    }
    for driver in PHASE_DRIVERS:
        for part in PHASE_PARTS:
            metrics[f"spice.phase.{driver}.{part}_frac"] = _ratio(
                registry.get(f"phase.{driver}.{part}", 0.0), phase_seconds)
    metrics.update({
        "resilience.journal.calls": len(named("resilience.journal")),
        "resilience.journal.frac": outer_share("resilience.journal"),
        "trace.coverage_frac": _ratio(covered, phase_seconds),
        "trace.unattributed_frac": 1.0 - _ratio(covered, phase_seconds),
        "trace.overhead_frac": overhead_frac,
        "loadgen.client_frac": _ratio(loadgen, phase_seconds),
    })
    return {name: float(value) for name, value in metrics.items()}
