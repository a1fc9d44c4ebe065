"""Gate-level logic simulation and switching-activity capture.

Replaces the paper's Mentor ModelSim step: the event-driven simulator runs
vectors through flat netlists and records per-net toggle counts (the input
to dynamic power analysis, standing in for PrimeTime-PX's VCD flow).

* :mod:`repro.sim.logic` -- ternary cell evaluation (compiled truth tables).
* :mod:`repro.sim.event` -- the event-driven simulator core.
* :mod:`repro.sim.compiled` -- the levelized struct-of-arrays engine and
  the closed-loop co-simulation stepper.
* :mod:`repro.sim.testbench` -- clocked testbench harness.
* :mod:`repro.sim.activity` -- toggle recording, vector grouping (Fig. 7).
"""

from .logic import X, compile_cell
from .event import Simulator
from .testbench import ClockedTestbench, drive_bus, read_bus
from .activity import ActivityTrace, GroupActivity, group_activity

__all__ = [
    "X",
    "compile_cell",
    "Simulator",
    "ClockedTestbench",
    "drive_bus",
    "read_bus",
    "ActivityTrace",
    "GroupActivity",
    "group_activity",
]
