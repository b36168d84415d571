"""A small transistor-level circuit simulator (the HSPICE substitute).

The paper validates its proximity model against HSPICE transient
simulations of CMOS gates (Section 5) and extracts VTC families from DC
sweeps (Section 2).  This package provides the same two analyses on the
same class of circuits:

* :class:`Circuit` -- a netlist of Level-1 MOSFETs, linear resistors and
  capacitors, grounded voltage sources (DC or waveform-driven) and
  current sources.
* :func:`solve_dc` / :func:`dc_sweep` -- Newton-Raphson operating point
  with gmin and source stepping, and continuation-based sweeps.
* :func:`transient` -- adaptive-timestep trapezoidal/backward-Euler
  integration with source-breakpoint alignment, returning a
  :class:`TransientResult` of PWL node waveforms.

The simulator is deliberately restricted to what CMOS gate
characterization needs: all voltage sources are node-to-ground, which
keeps the formulation purely nodal (no MNA branch currents).  Gate
testbenches are tiny dense systems (a handful of unknowns, solved on a
generated kernel); flat netlists of up to ~10k unknowns
(:mod:`repro.spice.builders`) solve on the sparse SuperLU backend
(:mod:`repro.spice.sparse`).  Every analysis solves through one
:class:`~repro.spice.engine.SolveContext`, which picks the backend.
"""

from .netlist import Circuit
from .mosfet import mosfet_current, MosfetInstance
from .engine import NewtonOptions, NewtonStats
from .dc import solve_dc, dc_sweep, OperatingPoint
from .transient import transient, TransientOptions
from .batch import solve_dc_batch, transient_batch
from .results import SweepResult, TransientResult
from .export import to_spice, write_spice

__all__ = [
    "Circuit",
    "MosfetInstance",
    "mosfet_current",
    "NewtonOptions",
    "NewtonStats",
    "solve_dc",
    "dc_sweep",
    "OperatingPoint",
    "transient",
    "TransientOptions",
    "solve_dc_batch",
    "transient_batch",
    "SweepResult",
    "TransientResult",
    "to_spice",
    "write_spice",
]
