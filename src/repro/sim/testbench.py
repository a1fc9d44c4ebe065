"""Clocked testbench harness over the event-driven simulator.

Drives a standard cycle protocol: inputs change while the clock is low, a
rising edge captures flip-flops, the high phase completes, then the clock
falls.  Vector streams and bus helpers make running workloads one-liners::

    tb = ClockedTestbench(module, clock="clk")
    tb.force_flops()
    tb.cycle({"a_0": 1, "a_1": 0})
    product = tb.output_bus("p", 32).read()

:class:`ClockedTestbench` speaks the stepping protocol of the compiled
:class:`~repro.sim.compiled.ClosedLoopStepper` (same method names, bus
views and accessors), so :class:`repro.isa.trace.GateLevelCpu` and
:class:`~repro.sim.activity.GroupRecorder` are written once for both.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .event import Simulator
from .logic import X, to_ternary


def drive_bus(sim_or_tb, name, width, value):
    """Drive the bit-blasted bus ``name_0..name_{width-1}`` with ``value``."""
    sim = sim_or_tb.sim if isinstance(sim_or_tb, ClockedTestbench) \
        else sim_or_tb
    _PinBus(sim, name, width, writable=True).drive(value)


def bus_values(name, width, value):
    """Dict of pin assignments for a bus (to merge into a vector)."""
    return {"{}_{}".format(name, i): (value >> i) & 1 for i in range(width)}


def read_bus(sim, name, width):
    """Read a bus as an int; returns ``None`` if any bit is X."""
    return _PinBus(sim, name, width, writable=False).read()


class _PinBus:
    """Bus ``name_0 .. name_{width-1}`` on an event simulator, names and
    net indices resolved once (the :class:`~repro.sim.compiled.BusView`
    of :class:`ClockedTestbench`)."""

    __slots__ = ("_sim", "name", "_keys", "_idx", "_writable")

    def __init__(self, sim, name, width, writable):
        module = sim.module
        self._sim = sim
        self.name = name
        self._writable = writable
        self._keys = tuple("{}_{}".format(name, i) for i in range(width))
        for key in self._keys:
            if not (key in sim._input_index if writable
                    else module.has_net(key)):
                raise SimulationError("module {} has no {} {}".format(
                    module.name, "input port" if writable else "net", key))
        self._idx = tuple(sim._net_index[id(module.net(key))]
                          for key in self._keys)

    def read(self):
        """The bus as an int, or ``None`` when any bit is X."""
        values = self._sim.values
        out = 0
        for i, idx in enumerate(self._idx):
            v = values[idx]
            if v == X:
                return None
            out |= v << i
        return out

    def drive(self, value):
        """Apply ``value``'s bits as one simultaneous input change."""
        if not self._writable:
            raise SimulationError("bus {} is read-only".format(self.name))
        self._sim.set_inputs(
            {key: (value >> i) & 1 for i, key in enumerate(self._keys)})


class ClockedTestbench:
    """Cycle-level driver for a flat module with a single clock input
    (driven low at construction)."""

    def __init__(self, module, clock="clk", record_toggles=True):
        self.sim = Simulator(module, record_toggles=record_toggles)
        self.clock = clock
        if clock not in [p.name for p in module.input_ports()]:
            raise SimulationError(
                "module {} has no clock input {}".format(module.name, clock)
            )
        self.cycles = 0
        self.net_names = self.sim.net_names
        self.non_const_nets = self.sim.non_const_nets
        self.sim.set_input(clock, 0)

    # -- protocol --------------------------------------------------------------

    def force_flops(self, value=0):
        """Force all flip-flops to a known state (posedge-free init)."""
        self.sim.force_flop_state(value)

    def apply(self, inputs):
        """Change inputs during the low phase (no clock edge).

        The clock may be named only at its current level; edges go
        through :meth:`posedge` / :meth:`negedge`.
        """
        if self.clock in inputs and \
                to_ternary(inputs[self.clock]) != self.sim.value(self.clock):
            raise SimulationError(
                "drive the clock via posedge()/negedge()/cycle(), "
                "not apply()")
        self.sim.set_inputs(inputs)

    def posedge(self):
        """Raise the clock (captures flip-flops)."""
        self.sim.set_input(self.clock, 1)

    def negedge(self):
        """Lower the clock."""
        self.sim.set_input(self.clock, 0)

    def cycle(self, inputs=None):
        """One full clock cycle: apply ``inputs``, rising edge, falling edge."""
        if inputs:
            self.apply(inputs)
        self.posedge()
        self.negedge()
        self.cycles += 1

    def run(self, vectors):
        """Run a sequence of input dicts, one per cycle."""
        for vec in vectors:
            self.cycle(vec)

    # -- accessors -------------------------------------------------------------

    def input_bus(self, name, width):
        """A drivable view over input ports ``name_0 .. name_{width-1}``."""
        return _PinBus(self.sim, name, width, writable=True)

    def output_bus(self, name, width):
        """A read-only view over nets ``name_0 .. name_{width-1}``."""
        return _PinBus(self.sim, name, width, writable=False)

    def value(self, net_name):
        """Current settled value of one net (0/1/X)."""
        return self.sim.value(net_name)

    def flop_q(self, inst_name):
        """Current Q of a flop by instance name."""
        return self.sim.flop_q(inst_name)

    def state_row(self):
        """The settled ``(n_nets,)`` ``int8`` value row, ``module.nets()``
        order."""
        return np.asarray(self.sim.values, dtype=np.int8)

    @property
    def toggle_counts(self):
        """Per-net toggle counts, ``int64``, ``module.nets()`` order."""
        return self.sim.toggle_counts

    def reset_toggles(self):
        self.sim.reset_toggles()

    def toggles_per_cycle(self):
        """Average net toggles per executed cycle (activity metric)."""
        if self.cycles == 0:
            return 0.0
        return self.sim.total_toggles() / self.cycles
