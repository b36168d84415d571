"""E6 -- paper Table 5-1: model-vs-simulation error statistics.

The paper's validation protocol, reproduced verbatim on our substrate:

* 3-input NAND (Figure 1-1), fixed transistor sizes and load;
* 100 randomly generated configurations: fall times of the three inputs
  uniform in [50 ps, 2000 ps]; separations ``s_ab`` and ``s_ac`` uniform
  in [-500 ps, 500 ps] ("note that this automatically varies the
  separation between b and c as well");
* the circuit simulator serves as the dual-input macromodel ("we used
  HSPICE as the macromodel for processing the dual-input case");
* delay and output rise time from the algorithm are compared against
  full three-input transient simulations, in percent.

Paper's numbers (their process/HSPICE):

====================  =======  ==========
quantity              delay    rise time
====================  =======  ==========
mean error            1.4 %    -1.33 %
std-dev               2.46 %   4.82 %
max error             8.54 %   11.51 %
min error             -6.94 %  -13.15 %
====================  =======  ==========
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..obs import degradation_summary, traced
from ..charlib.cache import default_cache
from ..core import DelayCalculator
from ..core.algorithm import CorrectionPolicy
from ..errors import ReproError
from ..resilience.runtime import resilient_map
from ..tech import Process
from ..waveform import Edge, FALL
from ..charlib.simulate import multi_input_response
from .common import paper_calculator, paper_gate, paper_thresholds
from .report import format_table, stat_row

__all__ = ["PAPER_STATS", "ValidationCase", "Table51Result", "run", "random_cases"]

#: The paper's reported statistics, for side-by-side display.
PAPER_STATS = {
    "delay": {"mean": 1.4, "std": 2.46, "max": 8.54, "min": -6.94},
    "rise_time": {"mean": -1.33, "std": 4.82, "max": 11.51, "min": -13.15},
}


@dataclass(frozen=True)
class ValidationCase:
    """One random input configuration and its measured outcomes."""

    taus: Dict[str, float]
    seps: Dict[str, float]
    reference: str
    model_delay: float
    model_ttime: float
    sim_delay: float
    sim_ttime: float

    @property
    def delay_error_pct(self) -> float:
        return (self.model_delay - self.sim_delay) / self.sim_delay * 100.0

    @property
    def ttime_error_pct(self) -> float:
        return (self.model_ttime - self.sim_ttime) / self.sim_ttime * 100.0

    def to_payload(self) -> Dict[str, object]:
        """JSON form for the progress journal (floats round-trip by repr)."""
        return {
            "taus": self.taus, "seps": self.seps, "reference": self.reference,
            "model_delay": self.model_delay, "model_ttime": self.model_ttime,
            "sim_delay": self.sim_delay, "sim_ttime": self.sim_ttime,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ValidationCase":
        return cls(
            taus=dict(payload["taus"]), seps=dict(payload["seps"]),
            reference=str(payload["reference"]),
            model_delay=float(payload["model_delay"]),
            model_ttime=float(payload["model_ttime"]),
            sim_delay=float(payload["sim_delay"]),
            sim_ttime=float(payload["sim_ttime"]),
        )


@dataclass
class Table51Result:
    cases: List[ValidationCase]
    direction: str
    mode: str
    correction: str

    @property
    def delay_errors(self) -> List[float]:
        return [c.delay_error_pct for c in self.cases]

    @property
    def ttime_errors(self) -> List[float]:
        return [c.ttime_error_pct for c in self.cases]

    def rows(self) -> List[Dict[str, object]]:
        ttime_label = "rise_time" if self.direction == FALL else "fall_time"
        return [
            stat_row("delay", self.delay_errors),
            stat_row(ttime_label, self.ttime_errors),
        ]

    def summary(self) -> str:
        ttime_label = "rise time" if self.direction == FALL else "fall time"
        lines = [
            f"Table 5-1: {len(self.cases)} random configurations "
            f"(mode={self.mode}, correction={self.correction})",
            format_table(self.rows()),
            "",
            "paper reported: delay mean 1.40 / std 2.46 / max 8.54 / min -6.94 (%)",
            f"                {ttime_label} mean -1.33 / std 4.82 / "
            f"max 11.51 / min -13.15 (%)",
        ]
        extra = degradation_summary()
        if extra:
            lines.append(extra)
        return "\n".join(lines)


def random_cases(n_configs: int, seed: int, *,
                 tau_lo: float = 50e-12, tau_hi: float = 2000e-12,
                 sep_lo: float = -500e-12, sep_hi: float = 500e-12,
                 ) -> List[Dict[str, Dict[str, float]]]:
    """The paper's random configuration generator (deterministic)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n_configs):
        cases.append({
            "taus": {name: rng.uniform(tau_lo, tau_hi) for name in "abc"},
            "seps": {
                "ab": rng.uniform(sep_lo, sep_hi),
                "ac": rng.uniform(sep_lo, sep_hi),
            },
        })
    return cases


def _evaluate_case(task) -> ValidationCase:
    """Worker: one random configuration -- model prediction vs. full
    three-input transient simulation."""
    calc, gate, thresholds, direction, config = task
    taus = config["taus"]
    seps = config["seps"]
    edges = {
        "a": Edge(direction, 0.0, taus["a"]),
        "b": Edge(direction, seps["ab"], taus["b"]),
        "c": Edge(direction, seps["ac"], taus["c"]),
    }
    model = calc.explain(edges)
    shot = multi_input_response(
        gate, edges, thresholds, reference=model.reference,
    )
    return ValidationCase(
        taus=dict(taus), seps=dict(seps), reference=model.reference,
        model_delay=model.delay, model_ttime=model.ttime,
        sim_delay=shot.delay, sim_ttime=shot.out_ttime,
    )


@traced("experiment.table5_1")
def run(process: Optional[Process] = None, *,
        n_configs: int = 100,
        seed: int = 1996,
        direction: str = FALL,
        mode: str = "oracle",
        correction: CorrectionPolicy | str = CorrectionPolicy.PAPER,
        load: float = 100e-15,
        characterize_kwargs: Optional[dict] = None,
        calculator: Optional[DelayCalculator] = None,
        workers: Optional[int] = None) -> Table51Result:
    """Run the full validation and return the error statistics.

    ``mode="table"`` evaluates the *deployable* interpolation-table
    models instead of the simulator oracle; ``characterize_kwargs``
    tunes the table grids (see :class:`~repro.charlib.DualInputGrid`).
    ``workers`` fans the independent configurations over a process pool
    (see :mod:`repro.parallel`); cases merge back in generation order,
    so the statistics are bit-identical to a serial run.

    Completed configurations are journaled into the characterization
    cache directory as they land, keyed by the full experiment identity
    (process, load, count, seed, direction, mode, correction): a run
    killed at configuration 70/100 and re-invoked under ``--resume``
    (``REPRO_RESUME=1``) replays the finished 70 and simulates only the
    remaining 30.  A case that fails still aborts the experiment -- a
    validation with holes would misreport the error statistics -- but
    the journal survives the abort, so the fix-and-resume loop is cheap.
    Raises :class:`~repro.errors.ReproError` for ``n_configs < 1``: the
    statistics of no configurations are undefined.
    """
    if n_configs < 1:
        raise ReproError(f"n_configs must be at least 1, got {n_configs}")
    gate = paper_gate(process, load=load)
    thresholds = paper_thresholds(process, load=load)
    calc = calculator or paper_calculator(
        process, mode=mode, load=load, correction=correction,
        characterize_kwargs=characterize_kwargs,
    )
    correction_value = str(CorrectionPolicy(correction).value)
    journal_key = {
        **gate.cache_key(),
        "experiment": "table5_1",
        "n_configs": n_configs,
        "seed": seed,
        "direction": direction,
        "mode": mode,
        "correction": correction_value,
    }
    # A caller-supplied calculator has no content identity to key a
    # journal on; journaling is disabled rather than risking a replay
    # of another calculator's cases.
    journal_dir = None if calculator is not None else default_cache().directory
    results, _failures = resilient_map(
        _evaluate_case,
        [(calc, gate, thresholds, direction, config)
         for config in random_cases(n_configs, seed)],
        journal_kind="exp-table5_1", journal_key=journal_key,
        directory=journal_dir,
        workers=workers, on_error="raise",
        encode=ValidationCase.to_payload,
        decode=ValidationCase.from_payload,
    )
    return Table51Result(
        cases=list(results), direction=direction, mode=mode,
        correction=correction_value,
    )
