"""The in-process workloads and the phase loop they share.

A workload turns ``--seed`` into an endless, deterministic sequence of
operations (ops).  :meth:`Workload.run_phase` runs ops from a given
index until a time or count budget is spent and returns a
:class:`Phase`; ``run.py`` checks every op's output and
derives the metrics.  Ops run in rounds of ``round_size`` so every run
measures the same mix; a phase stops at the round boundary nearest its
time budget.

Every call into ``repro`` goes through a module attribute looked up at
call time (``simulate.multi_input_response``, ``spice.transient``), so
the tracer's patches reach the benchmark's own call sites too.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .common import BENCH, finite, peak_rss_mb, positive_finite
from .trace import now

_NULL = nullcontext()

#: A phase budgeted in nominal-speed seconds still ends once this many
#: times its budget has passed on the clock, so a slow host stretches a
#: run by at most 30%.
RAW_CAP = 1.3


@dataclass
class OpRecord:
    index: int
    start: float
    latency: float
    work: float
    output: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    raw: Any = None         # workload-private data the checks may need


@dataclass
class Phase:
    """The ops of one measured phase."""

    records: List[OpRecord] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def work(self) -> float:
        """Work units completed."""
        return sum(r.work for r in self.records if r.error is None)

    @property
    def next_index(self) -> int:
        return max((r.index for r in self.records), default=-1) + 1


class Workload:
    """Base class: one workload, one seed, one process."""

    name = ""
    op_unit = "op"          # what one op is, for the printed summary
    work_unit = "op"        # what ops_per_s counts
    rate_metric = ("ops_per_s", "1/s")  # ops_per_s under this workload's own name
    round_size = 1
    smoke_ops = 1
    reference_ops = 0       # ops a reference file records

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = None
        self.meter = None

    def elapsed(self, start: float) -> float:
        """Seconds since ``start``; nominal-speed seconds when a speed
        meter runs, so a run does the same work on a slow host."""
        if self.meter is None:
            return now() - start
        return self.meter.normalize(start, now())

    def spent(self, start: float, seconds: float, reserve: float = 0.0) -> bool:
        """Whether a phase that began at ``start`` used its budget, less
        ``reserve`` (see :data:`RAW_CAP`)."""
        return (self.elapsed(start) >= seconds - reserve
                or now() - start >= RAW_CAP * seconds)

    def loadgen(self):
        """A span around benchmark-side work, when tracing."""
        return self.tracer.span("loadgen") if self.tracer is not None else _NULL

    # -- overridden per workload ---------------------------------------------
    def setup(self) -> Dict[str, Any]:
        """Everything before the first op; returns checked set-up output."""
        return {}

    def op(self, index: int) -> Tuple[float, Dict[str, Any]]:
        """Run op ``index``; returns (work units, output sections)."""
        raise NotImplementedError

    def invariants(self, record: OpRecord) -> List[str]:
        """Checks every seed gets, reference or not."""
        return []

    def summary(self, records: List[OpRecord]) -> List[str]:
        return []

    def figures(self, records: List[OpRecord]) -> Dict[str, Tuple[float, str]]:
        """Workload-specific numbers, printed and recorded but not gated,
        as name -> (value, unit)."""
        return {}

    def warm_up(self) -> None:
        """Unmeasured work between set-up and the measured phase."""

    def cross_checks(self, records: List[OpRecord]) -> List[Tuple[int, str]]:
        """Checks across ops, as (op index, problem) pairs."""
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def cold_setup_seconds(self, meter) -> float:
        """One more set-up, in a fresh process with a fresh cache; the
        child reports its own normalized set-up time."""
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", self.name,
             "--seed", str(self.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr.strip()[-2000:]}")
        return float(out.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        pass

    # -- the phase loop --------------------------------------------------------
    def run_phase(self, start: int, seconds: Optional[float] = None,
                  count: Optional[int] = None) -> Phase:
        """Ops from ``start`` until ``count`` ops ran or ``seconds`` passed.

        The time budget (see :meth:`elapsed`) ends at a round boundary:
        the phase stops once less than half a round's mean duration
        remains.
        """
        phase = Phase(start=now())
        index = start
        rounds: List[float] = []
        while True:
            round_start = now()
            for _ in range(self.round_size):
                if self.tracer is not None:
                    self.tracer.set_op(index)
                t0 = now()
                try:
                    work, output = self.op(index)
                    phase.records.append(OpRecord(index, t0, now() - t0, work, output))
                except Exception as exc:  # one failed op must not end the run
                    phase.records.append(OpRecord(index, t0, now() - t0, 0.0,
                                                  error=f"{type(exc).__name__}: {exc}"))
                index += 1
                if count is not None and index - start >= count:
                    break
            rounds.append(self.elapsed(round_start))
            if count is not None and index - start >= count:
                break
            if seconds is not None and \
                    self.spent(phase.start, seconds, statistics.mean(rounds) / 2):
                break
        phase.end = now()
        return phase


# ----------------------------------------------------------------------
# validate_oracle
# ----------------------------------------------------------------------

class ValidateOracle(Workload):
    """The paper's Table 5-1 protocol on NAND3, one config per op."""

    name = "validate_oracle"
    op_unit = "config"
    work_unit = "configs"
    rate_metric = ("configs_per_s", "1/s")
    smoke_ops = 2
    reference_ops = 150

    def setup(self):
        from repro.charlib import simulate
        from repro.experiments import table5_1
        from repro.experiments.common import paper_calculator, paper_gate, paper_thresholds
        from repro.waveform import FALL, Edge

        self._simulate, self._edge, self._fall = simulate, Edge, FALL
        self.gate = paper_gate()
        self.thresholds = paper_thresholds()
        self.calc = paper_calculator()
        step = self.calc.step_error(FALL)
        # random_cases(n, seed) is a prefix of random_cases(m, seed), m > n.
        self.cases = table5_1.random_cases(4000, self.seed)
        return {"times": {"step_error": list(step)},
                "volts": {"thresholds": [self.thresholds.vil, self.thresholds.vih]}}

    def op(self, index):
        with self.loadgen():
            case = self.cases[index]
            taus, seps, edge, fall = case["taus"], case["seps"], self._edge, self._fall
            edges = {"a": edge(fall, 0.0, taus["a"]),
                     "b": edge(fall, seps["ab"], taus["b"]),
                     "c": edge(fall, seps["ac"], taus["c"])}
        model = self.calc.explain(edges)
        shot = self._simulate.multi_input_response(self.gate, edges, self.thresholds,
                                                   reference=model.reference)
        with self.loadgen():
            output = {"times": {"model": [model.delay, model.ttime],
                                "sim": [shot.delay, shot.out_ttime]},
                      "text": {"reference": model.reference}}
        return 1.0, output

    def invariants(self, record):
        # Delays are measured from the dominant input, which another
        # input can beat to the output threshold: a delay may be
        # negative, a transition time may not.
        model, sim = record.output["times"]["model"], record.output["times"]["sim"]
        return (finite("delays", [model[0], sim[0]])
                + positive_finite("transition times", [model[1], sim[1]]))

    def figures(self, records):
        """RMS of the model's percent errors against simulation (delay and
        transition time, the two quantities of Table 5-1)."""
        if not records:
            return {}
        figures = {}
        for k, name in ((0, "delay_err_rms_pct"), (1, "ttime_err_rms_pct")):
            errors = [(r.output["times"]["model"][k] - r.output["times"]["sim"][k])
                      / r.output["times"]["sim"][k] * 100.0 for r in records]
            figures[name] = (statistics.fmean(e * e for e in errors) ** 0.5, "%")
        return figures


# ----------------------------------------------------------------------
# charlib_batch
# ----------------------------------------------------------------------

#: One round: (gate, input direction, dual pin pair).  Falling NAND3
#: inputs switch the parallel pull-up, rising NOR2 inputs the parallel
#: pull-down; the two builds cost about the same.
CHARLIB_ROUND = (("nand3", "fall", ("a", "b")), ("nor2", "rise", ("a", "b")))

#: Loads span 60-150 fF.  Op i takes the point ``offset + i * golden``
#: (mod 1) of a low-discrepancy sequence whose offset the seed picks, so
#: every run sees loads spread over the whole range.
LOAD_RANGE = (60e-15, 150e-15)
GOLDEN = 0.6180339887498949


class CharlibBatch(Workload):
    """Table-mode library builds through the batched lockstep kernel."""

    name = "charlib_batch"
    op_unit = "library"
    work_unit = "grid points"
    rate_metric = ("points_per_s", "1/s")
    round_size = len(CHARLIB_ROUND)
    reference_ops = 8

    def setup(self):
        from repro.charlib import DualInputGrid, GateLibrary, SingleInputGrid
        from repro.charlib.library import cached_thresholds
        from repro.gates import Gate
        from repro.tech import default_process

        self._library, self._gate = GateLibrary, Gate
        self._grids = (SingleInputGrid.fast(), DualInputGrid.fast())
        self._offset = random.Random(self.seed).random()
        self.process = default_process()
        # Thresholds come from the DC transfer curves, which no load
        # changes; every op reuses these.
        self.thresholds = {kind: cached_thresholds(self._build(kind, 100e-15))
                           for kind, _, _ in CHARLIB_ROUND}
        return {"volts": {kind: [thr.vil, thr.vih] for kind, thr in self.thresholds.items()}}

    def _build(self, kind: str, load: float):
        if kind.startswith("nand"):
            return self._gate.nand(int(kind[4:]), self.process, load=load)
        return self._gate.nor(int(kind[3:]), self.process, load=load)

    def op(self, index):
        kind, direction, pair = CHARLIB_ROUND[index % len(CHARLIB_ROUND)]
        with self.loadgen():
            # A fresh load per op keys a fresh cache entry: every build
            # misses and writes.
            lo, hi = LOAD_RANGE
            gate = self._build(kind, lo + (hi - lo) * ((self._offset + index * GOLDEN) % 1.0))
        library = self._library.characterize(
            gate, mode="table", directions=(direction,), single_grid=self._grids[0],
            dual_grid=self._grids[1], pairs=[pair], thresholds=self.thresholds[kind],
            batch=8, workers=0)
        with self.loadgen():
            payload = library.to_payload()
            reports = library.health_reports()
            ratios = {}
            for model in payload["singles"]:
                label = f"single.{model['input']}.{model['direction']}"
                for key in ("u", "delay_norm", "ttime_norm"):
                    ratios[f"{label}.{key}"] = model[key]
            for model in payload["duals"]:
                label = f"dual.{model['reference']}.{model['other']}.{model['direction']}"
                ratios[f"{label}.axes"] = model["axes"]
                ratios[f"{label}.delay"] = model["delay_table"]
                ratios[f"{label}.ttime"] = model["ttime_table"]
            points = sum(r.total_points for r in reports)
            output = {"ratios": ratios,
                      "counts": {"points": points,
                                 "failed": sum(r.n_failed for r in reports)}}
        return float(points), output

    def invariants(self, record):
        output = record.output
        problems = []
        if output["counts"]["failed"]:
            problems.append(f"{output['counts']['failed']} grid points failed (NaN cells)")
        for key, values in output["ratios"].items():
            problems += finite(key, values)
            if key.endswith(("delay_norm", "ttime_norm")):
                problems += positive_finite(key, values)
        return problems


# ----------------------------------------------------------------------
# flat_large
# ----------------------------------------------------------------------

#: One round of flat netlists: (kind, size, simulated window).
FLAT_ROUND = (("chain", 40, 1.0e-9), ("decoder", 6, 1.2e-9), ("bitcells", 32, 0.4e-9),
              ("decoder", 7, 1.2e-9), ("bitcells", 48, 0.4e-9))

#: Fractions of the window at which recorded node voltages are checked.
SAMPLE_POINTS = (0.25, 0.5, 0.75, 1.0)


class FlatLarge(Workload):
    """Scalar transients of multi-gate netlists on the sparse backend."""

    name = "flat_large"
    op_unit = "circuit"
    work_unit = "simulated ns"
    rate_metric = ("sim_ns_per_s", "ns/s")
    round_size = len(FLAT_ROUND)
    reference_ops = 10

    def setup(self):
        import repro.spice as spice
        from repro import ramp
        from repro.spice import builders
        from repro.tech import default_process

        self._spice, self._builders, self._ramp = spice, builders, ramp
        self.vdd = default_process().vdd
        return {}

    def _spec(self, index: int) -> Dict[str, Any]:
        """The seeded stimulus of op ``index``, its recorded nodes and the
        final levels a correct simulation must reach."""
        kind, size, t_stop = FLAT_ROUND[index % len(FLAT_ROUND)]
        rng = random.Random(f"{self.seed}:{index}")
        spec: Dict[str, Any] = {"kind": kind, "size": size, "t_stop": t_stop}
        if kind == "chain":
            spec.update(nodes=["n2", "n4", "n6", "n8"], expected={})
        elif kind == "decoder":
            # Address bit 0 rises in every op: the same predecode group
            # switches the same way, so ops of one size cost the same.
            address = 2 * rng.randrange(2 ** (size - 1))
            old, new = f"wl{address}", f"wl{address ^ 1}"
            spec.update(address=address, nodes=[old, new],
                        expected={old: 0.0, new: self.vdd})
        else:
            pattern = [rng.getrandbits(size) for _ in range(size)]
            row, other, col = rng.randrange(size), rng.randrange(size), rng.randrange(size)
            if other == row:
                other = (row + 1) % size
            held = f"q{other}_{col}"
            spec.update(pattern=pattern, row=row,
                        nodes=[f"q{row}_{col}", f"qb{row}_{col}", held],
                        expected={held: self.vdd * ((pattern[other] >> col) & 1)})
        return spec

    def _build(self, spec: Dict[str, Any]):
        """(circuit, initial operating-point guess) for a spec."""
        vdd, ramp, size = self.vdd, self._ramp, spec["size"]
        if spec["kind"] == "chain":
            stimulus = ramp(50e-12, 0.0, vdd, 100e-12)
            return self._builders.delay_chain(size, 4, input_stimulus=stimulus), None
        if spec["kind"] == "decoder":
            return self._builders.hierarchical_decoder(
                size, address=spec["address"],
                stimuli={"a0": ramp(50e-12, 0.0, vdd, 100e-12)}), None
        circuit = self._builders.bitcell_array(
            size, size, pattern=spec["pattern"],
            stimuli={f"wl{spec['row']}": ramp(50e-12, 0.0, vdd, 100e-12)})
        return circuit, self._builders.bitcell_levels(size, size, spec["pattern"])

    def op(self, index):
        import numpy as np

        with self.loadgen():
            spec = self._spec(index)
        circuit, levels = self._build(spec)
        t_stop, nodes = spec["t_stop"], spec["nodes"]
        result = self._spice.transient(circuit, t_stop, initial_op=levels, record=nodes)
        with self.loadgen():
            times = result.times
            half = self.vdd / 2.0
            crossings, volts = {}, {}
            for node in nodes:
                v = result.samples(node)
                above = v >= half
                flips = np.nonzero(above[1:] != above[:-1])[0]
                crossings[node] = [float(times[i] + (half - v[i]) * (times[i + 1] - times[i])
                                         / (v[i + 1] - v[i])) for i in flips]
                volts[node] = [float(np.interp(f * t_stop, times, v)) for f in SAMPLE_POINTS]
            output = {"times": crossings, "volts": volts,
                      "counts": {"steps": len(times) - 1,
                                 "newton": int(result.newton_iterations)}}
        return t_stop * 1e9, output

    def invariants(self, record):
        output = record.output
        problems = finite("volts", list(output["volts"].values()))
        if output["counts"]["steps"] <= 0:
            problems.append("no accepted time steps")
        for node, level in self._spec(record.index)["expected"].items():
            final = output["volts"][node][-1]
            if abs(final - level) > 0.1 * self.vdd:
                problems.append(f"{node} ends at {final:.3f} V, expected {level:.3f} V")
        return problems
