"""E1/E2 -- paper Figure 1-2: delay and output transition time versus
input separation.

The paper's motivating observation: on a 3-input NAND with ``c`` stable
at Vdd, sweep the separation between a slow transition on ``a``
(tau = 500 ps) and a fast one on ``b`` (tau = 100 ps).

* (a)/(b): both inputs *fall* -- the output rises; as the separation
  shrinks, the second pull-up path conducts during the transition and
  both delay and rise time drop.
* (c)/(d): both inputs *rise* -- the output falls through the series
  stack; delay and fall time are decreasing functions of separation
  (the later the second input, the longer the stack waits to conduct).

Delay here is measured from input ``a`` (the fixed reference of the
figure), directly off transient simulations -- this experiment
demonstrates the phenomenon; the model enters in Figure 3-3 / Table 5-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import traced
from ..tech import Process
from ..units import parse_quantity
from ..waveform import Edge, FALL
from ..charlib.simulate import multi_input_response
from .common import paper_gate, paper_thresholds
from .report import format_table, series_plot

__all__ = ["Fig12Result", "run"]


@dataclass
class Fig12Result:
    """Sweep curves for one input direction."""

    direction: str
    tau_a: float
    tau_b: float
    separations: List[float]
    delays: List[float]
    ttimes: List[float]

    def rows(self) -> List[Dict[str, object]]:
        return [
            {
                "sep_ps": s * 1e12,
                "delay_ps": d * 1e12,
                "ttime_ps": t * 1e12,
            }
            for s, d, t in zip(self.separations, self.delays, self.ttimes)
        ]

    def proximity_gain(self) -> float:
        """Relative delay reduction between the widest and closest
        separation -- the headline size of the proximity effect."""
        return (max(self.delays) - min(self.delays)) / max(self.delays)

    def summary(self) -> str:
        ttime_kind = "rise" if self.direction == FALL else "fall"
        in_kind = "falling" if self.direction == FALL else "rising"
        title = (
            f"Figure 1-2 ({'a,b' if self.direction == FALL else 'c,d'}): "
            f"{in_kind} inputs, tau_a={self.tau_a*1e12:.0f}ps, "
            f"tau_b={self.tau_b*1e12:.0f}ps; output {ttime_kind} time"
        )
        plot = series_plot(
            [s * 1e12 for s in self.separations],
            {
                "delay": [d * 1e12 for d in self.delays],
                "ttime": [t * 1e12 for t in self.ttimes],
            },
            x_label="separation s_ab (ps)", y_label="ps",
        )
        return f"{title}\n{format_table(self.rows())}\n{plot}"


@traced("experiment.fig1_2")
def run(process: Optional[Process] = None, *,
        direction: str = FALL,
        tau_a: float | str = 500e-12,
        tau_b: float | str = 100e-12,
        separations: Optional[Sequence[float]] = None,
        load: float = 100e-15) -> Fig12Result:
    """Sweep separation between edges on ``a`` and ``b`` (``c`` stable).

    Delay/transition time come straight from transient simulation.
    """
    gate = paper_gate(process, load=load)
    thresholds = paper_thresholds(process, load=load)
    tau_a_s = parse_quantity(tau_a, unit="s")
    tau_b_s = parse_quantity(tau_b, unit="s")
    if separations is None:
        separations = np.linspace(-200e-12, 700e-12, 13)

    delays: List[float] = []
    ttimes: List[float] = []
    seps: List[float] = []
    for sep in separations:
        edges = {
            "a": Edge(direction, 0.0, tau_a_s),
            "b": Edge(direction, float(sep), tau_b_s),
        }
        shot = multi_input_response(gate, edges, thresholds, reference="a")
        seps.append(float(sep))
        delays.append(shot.delay)
        ttimes.append(shot.out_ttime)
    return Fig12Result(
        direction=direction, tau_a=tau_a_s, tau_b=tau_b_s,
        separations=seps, delays=delays, ttimes=ttimes,
    )
