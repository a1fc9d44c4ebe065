"""Implementation flows (the paper's Fig. 5).

The SCPG flow is a traditional power-gating flow with two extra steps:
splitting combinational from sequential logic, and merging in the custom
isolation circuitry.  This package models the rest of the flow far enough
to account its costs: synthesis fan-out repair, design planning (with the
paper's recommendation to centre the gated domain), clock-tree synthesis
(real buffer insertion -- the clock tree is always-on leakage under SCPG),
and a routing estimate.

* :func:`run_traditional_flow` -- baseline implementation of a design.
* :mod:`repro.flows.scpg_flow` -- the Fig. 5 flow, reached through
  ``repro.techniques.technique("scpg").implement``; reports the area
  overhead the paper quotes (+3.9% multiplier, +6.6% Cortex-M0).
"""

from .base import FlowResult, StepReport
from .synthesis import synthesize
from .floorplan import plan_design, Floorplan
from .cts import synthesize_clock_tree, CtsReport
from .route import estimate_routing, RoutingEstimate
from .traditional import run_traditional_flow
from .scpg_flow import ScpgFlowResult

__all__ = [
    "FlowResult",
    "StepReport",
    "synthesize",
    "plan_design",
    "Floorplan",
    "synthesize_clock_tree",
    "CtsReport",
    "estimate_routing",
    "RoutingEstimate",
    "run_traditional_flow",
    "ScpgFlowResult",
]
