"""Lock-step co-simulation of the gate-level M0-lite against the ISS.

:class:`GateLevelCpu` wraps the flat core netlist with the external memory
protocol it expects (combinational instruction/data memories, stores
committed at the clock edge) and exposes per-cycle stepping plus
switching-activity grouping.  :func:`cosimulate` runs a program on both the
ISS and the netlist and verifies architectural equivalence, which is the
evidence that the substituted processor is a faithful workload vehicle for
the power study.

Two engines sit behind the same protocol, and :class:`GateLevelCpu` is
written once against it: the constructor picks the driver, nothing after
it asks which.  The default ``engine="auto"`` drives a
:class:`~repro.sim.compiled.ClosedLoopStepper` (settled single-row phases
over the SoA arrays, integer-indexed :class:`~repro.sim.compiled.BusView`
memory feeds) whenever the module is
:meth:`~repro.sim.compiled.CompiledSchedule.vector_ready` and carries the
full M0-lite memory interface (the SCPG-transformed core included);
otherwise a :class:`~repro.sim.testbench.ClockedTestbench` over the event
:class:`~repro.sim.event.Simulator`.  One
:class:`~repro.sim.activity.GroupRecorder` groups either driver's toggles.
Cycle counts, architectural state, and the grouped toggle trace are
bit-identical across both engines (asserted by the differential tests in
``tests/integration/test_cosim_random.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IsaError, SimulationError
from ..sim.activity import GroupRecorder
from ..sim.logic import X
from ..sim.testbench import ClockedTestbench
from .cpu import M0LiteCpu
from .encoding import MASK32


class GateLevelCpu:
    """Drive a flat M0-lite netlist with instruction and data memories.

    Parameters
    ----------
    module:
        Flat module from :func:`repro.circuits.m0lite.build_m0lite` (or an
        SCPG-transformed flat equivalent with the same ports).
    program:
        16-bit instruction words (word 0 at address 0).
    memory:
        Initial data memory dict (byte address -> 32-bit word).
    group_size:
        Activity vector-group size (10 in the paper).
    engine:
        ``"auto"`` (compiled stepping when eligible, event otherwise),
        ``"compiled"`` (raise when ineligible) or ``"event"``.  The
        chosen engine is exposed as :attr:`engine`.
    record_states:
        Keep a per-cycle snapshot of every settled net value; see
        :meth:`state_trace` (feeds
        :func:`repro.power.leakage.state_leakage_trace`).
    """

    def __init__(self, module, program, memory=None, group_size=10,
                 record_toggles=True, engine="auto", record_states=False):
        if engine not in ("auto", "event", "compiled"):
            raise ValueError(
                "engine must be 'auto', 'event' or 'compiled', "
                "got {!r}".format(engine))
        self.module = module
        self.program = list(program)
        self.memory = dict(memory or {})
        self.cycles = 0
        self.group_size = group_size
        self._record_states = record_states
        self._states = []

        driver = None
        if engine != "event":
            from ..sim.compiled import schedule_for

            schedule = schedule_for(module)
            ok, why = self._compiled_ready(schedule)
            if ok:
                driver = schedule.stepper(
                    "clk", record_toggles=record_toggles)
            elif engine == "compiled":
                raise SimulationError(
                    "compiled co-sim unavailable for {}: {}".format(
                        module.name, why))
        if driver is None:
            driver = ClockedTestbench(module, record_toggles=record_toggles)
            self.engine = "event"
        else:
            self.engine = "compiled"
        self._driver = driver
        self._iaddr = driver.output_bus("iaddr", 32)
        self._daddr = driver.output_bus("daddr", 32)
        self._dwdata = driver.output_bus("dwdata", 32)
        self._idata = driver.input_bus("idata", 16)
        self._drdata = driver.input_bus("drdata", 32)
        self._reset()
        self._recorder = GroupRecorder(driver, group_size)

    #: Memory-data input pins, formatted once.
    _idata_keys = tuple("idata_{}".format(i) for i in range(16))
    _drdata_keys = tuple("drdata_{}".format(i) for i in range(32))

    @staticmethod
    def _compiled_ready(schedule):
        """``(ok, reason)``: can the compiled stepper host the M0-lite
        memory protocol?  Beyond ``vector_ready`` this needs the full
        interface -- address/store nets readable, memory-data input
        ports drivable, and the architectural register flops present."""
        ok, why = schedule.vector_ready("clk")
        if not ok:
            return False, why
        soa = schedule.soa
        for name in ("rstn",) + GateLevelCpu._idata_keys \
                + GateLevelCpu._drdata_keys:
            if name not in soa.input_ports:
                return False, "no input port {}".format(name)
        for name in ["{}_{}".format(bus, i) for bus in ("iaddr", "daddr",
                     "dwdata") for i in range(32)] + ["dwrite", "halted"]:
            if name not in soa.net_index:
                return False, "no net {}".format(name)
        seq = {n: r for r, n in enumerate(soa.seq_names)}
        for r in range(16):
            for b in range(32):
                row = seq.get("rf{}_{}".format(r, b))
                if row is None or soa.seq_q[row] < 0:
                    return False, "no register flop rf{}_{}".format(r, b)
        return True, ""

    #: Extra input pins held at fixed values from reset on (e.g. an
    #: SCPG ``override_n``); subclasses override.  Applied identically
    #: on both engines.
    _extra_reset_inputs = {}

    def _reset(self):
        d = self._driver
        d.force_flops(0)
        d.apply({"clk": 0, "rstn": 0, **self._extra_reset_inputs})
        self._feed_memories()
        # One reset cycle.
        d.posedge()
        d.negedge()
        d.apply({"rstn": 1})
        self._feed_memories()
        d.reset_toggles()

    def _feed_memories(self):
        iaddr = self._iaddr.read()
        word = 0x7000  # NOP on X/out-of-range address
        if iaddr is not None and iaddr < len(self.program):
            word = self.program[iaddr]
        self._idata.drive(word)
        daddr = self._daddr.read()
        data = 0
        if daddr is not None:
            data = self.memory.get(daddr & ~3 & MASK32, 0)
        self._drdata.drive(data)

    def step(self):
        """Advance one clock cycle: commit stores, clock edge, then feed
        the memories during the *low* phase.

        Feeding after the falling edge matters for SCPG-transformed cores:
        their memory-interface outputs route through the power-gated
        domain, so right after the rising edge the isolation clamps hold
        them low -- sampling ``iaddr``/``daddr`` there would read zeros.
        After the falling edge the clamps are released and the interface
        carries the true values (for the untransformed core the two
        sampling points are identical, since no combinational path depends
        on the clock level).
        """
        d = self._driver
        if d.value("dwrite") == 1:
            addr = self._daddr.read()
            data = self._dwdata.read()
            if addr is None or data is None:
                raise SimulationError("store with X address or data")
            if addr % 4:
                raise IsaError(
                    "unaligned gate-level store at {:#x}".format(addr))
            self.memory[addr] = data
        d.posedge()
        d.negedge()
        self._feed_memories()
        self.cycles += 1
        self._recorder.after_cycle()
        if self._record_states:
            self._states.append(d.state_row())

    def run(self, max_cycles=100_000):
        """Step until ``halted`` rises; returns cycles taken."""
        start = self.cycles
        while not self.halted:
            if self.cycles - start >= max_cycles:
                raise SimulationError(
                    "core did not halt in {} cycles".format(max_cycles))
            self.step()
        self._recorder.flush()
        return self.cycles - start

    @property
    def halted(self):
        """True when the core has executed HALT."""
        return self._driver.value("halted") == 1

    def register(self, index):
        """Architectural register value from the netlist flip-flops."""
        value = 0
        for bit in range(32):
            v = self._driver.flop_q("rf{}_{}".format(index, bit))
            if v == X:
                return None
            value |= v << bit
        return value

    def registers(self):
        """All 16 register values."""
        return [self.register(i) for i in range(16)]

    def activity_trace(self):
        """Grouped switching activity recorded so far."""
        self._recorder.flush()
        return self._recorder.trace

    def toggle_snapshot(self):
        """Per-net toggle counts as dict name -> count (both engines
        return the same dict for the same program)."""
        return dict(zip(self._driver.net_names,
                        self._driver.toggle_counts.tolist()))

    def value(self, net_name):
        """Current settled 0/1/X value of one net."""
        return self._driver.value(net_name)

    @property
    def state_net_names(self):
        """Net-name order of :meth:`state_trace` columns."""
        return list(self._driver.net_names)

    def state_trace(self):
        """Per-cycle settled net values, ``(cycles, n_nets)`` ``int8``.

        Rows are captured at the end of each :meth:`step` (clock low,
        memories fed) -- the operating points
        :func:`repro.power.leakage.state_leakage_trace` consumes.
        Requires ``record_states=True``.
        """
        if not self._record_states:
            raise SimulationError(
                "construct GateLevelCpu(record_states=True) to record "
                "a state trace")
        if not self._states:
            n = len(self.state_net_names)
            return np.zeros((0, n), dtype=np.int8)
        return np.asarray(self._states, dtype=np.int8)


@dataclass
class CosimResult:
    """Outcome of :func:`cosimulate`."""

    instructions: int
    cycles: int
    cpi: float
    registers_match: bool
    memory_match: bool
    mismatches: list = field(default_factory=list)
    trace: object = None

    @property
    def ok(self):
        """True when the netlist matched the ISS architecturally."""
        return self.registers_match and self.memory_match


def cosimulate(module, program, memory=None, max_cycles=200_000,
               group_size=10, engine="auto"):
    """Run ``program`` to HALT on both the ISS and the gate-level core and
    compare final architectural state.  Returns :class:`CosimResult`.

    ``engine`` selects the gate-level engine (see :class:`GateLevelCpu`);
    the result is identical either way.
    """
    iss = M0LiteCpu(program, memory)
    instructions = iss.run(max_steps=max_cycles)

    gate = GateLevelCpu(module, program, memory, group_size=group_size,
                        engine=engine)
    cycles = gate.run(max_cycles=max_cycles)

    mismatches = []
    for r in range(16):
        expected = iss.state.regs[r]
        actual = gate.register(r)
        if actual != expected:
            mismatches.append(
                "r{}: iss={:#x} gate={}".format(
                    r, expected,
                    "X" if actual is None else "{:#x}".format(actual))
            )
    registers_match = not mismatches

    mem_mismatches = []
    keys = set(iss.memory) | set(gate.memory)
    for addr in sorted(keys):
        ev = iss.memory.get(addr, 0)
        av = gate.memory.get(addr, 0)
        if ev != av:
            mem_mismatches.append(
                "mem[{:#x}]: iss={:#x} gate={:#x}".format(addr, ev, av))
    memory_match = not mem_mismatches

    return CosimResult(
        instructions=instructions,
        cycles=cycles,
        cpi=cycles / max(1, instructions),
        registers_match=registers_match,
        memory_match=memory_match,
        mismatches=mismatches + mem_mismatches,
        trace=gate.activity_trace(),
    )
