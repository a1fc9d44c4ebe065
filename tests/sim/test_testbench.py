"""Clocked testbench harness."""

import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.testbench import (
    ClockedTestbench,
    bus_values,
    drive_bus,
    read_bus,
)


class TestHelpers:
    def test_bus_values(self):
        assert bus_values("a", 4, 0b1010) == {
            "a_0": 0, "a_1": 1, "a_2": 0, "a_3": 1}

    def test_drive_and_read(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        drive_bus(tb, "a", 16, 1234)
        drive_bus(tb.sim, "b", 16, 2)
        tb.cycle()
        tb.cycle()
        assert read_bus(tb.sim, "p", 32) == 2468

    def test_read_bus_returns_none_on_x(self, mult_module):
        tb = ClockedTestbench(mult_module)  # flops uninitialised
        assert read_bus(tb.sim, "p", 32) is None


class TestTestbench:
    def test_requires_clock_port(self, lib):
        from repro.circuits.multiplier import build_mult16

        comb = build_mult16(lib, registered=False)
        with pytest.raises(SimulationError):
            ClockedTestbench(comb)

    def test_cycle_counting(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        tb.run([{}, {}, {}])
        assert tb.cycles == 3

    def test_apply_rejects_clock(self, mult_module):
        tb = ClockedTestbench(mult_module)
        with pytest.raises(SimulationError):
            tb.apply({"clk": 1})

    def test_toggles_per_cycle(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        rng = random.Random(0)
        for _ in range(10):
            tb.cycle({**bus_values("a", 16, rng.getrandbits(16)),
                      **bus_values("b", 16, rng.getrandbits(16))})
        assert tb.toggles_per_cycle() > 100  # busy datapath

    def test_zero_cycles(self, mult_module):
        tb = ClockedTestbench(mult_module)
        assert tb.toggles_per_cycle() == 0.0


def _operands(seed, n):
    rng = random.Random(seed)
    return [{**bus_values("a", 16, rng.getrandbits(16)),
             **bus_values("b", 16, rng.getrandbits(16))}
            for _ in range(n)]


class TestSteppingProtocol:
    """The accessors :class:`ClockedTestbench` shares with the compiled
    :class:`~repro.sim.compiled.ClosedLoopStepper`."""

    def test_bus_drive_read_round_trip(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        a, b = tb.input_bus("a", 16), tb.input_bus("b", 16)
        a.drive(0x1234)
        b.drive(3)
        assert (a.read(), b.read()) == (0x1234, 3)
        tb.cycle()
        tb.cycle()
        assert tb.output_bus("p", 32).read() == 0x1234 * 3
        assert tb.output_bus("p", 32).read() == read_bus(tb.sim, "p", 32)

    def test_bus_errors(self, mult_module):
        tb = ClockedTestbench(mult_module)
        assert tb.output_bus("p", 32).read() is None  # flops still X
        with pytest.raises(SimulationError, match="read-only"):
            tb.output_bus("p", 32).drive(1)
        with pytest.raises(SimulationError, match="a_16"):
            tb.input_bus("a", 17)

    def test_state_row_and_toggles_match_simulator(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        tb.run(_operands(7, 5))
        names = [n.name for n in mult_module.nets()]
        assert list(tb.net_names) == names
        state = tb.sim.state_snapshot()
        row = tb.state_row()
        assert row.dtype == np.int8
        assert row.tolist() == [state[n] for n in names]
        counts = tb.toggle_counts
        assert counts.dtype == np.int64
        toggles = tb.sim.toggle_snapshot()
        assert counts.tolist() == [toggles[n] for n in names]
        assert counts.sum() > 0
        tb.reset_toggles()
        assert not tb.toggle_counts.any()

    def test_clock_named_only_at_its_level(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.apply({"clk": 0, "a_0": 1})  # holds the clock: allowed
        assert tb.value("a_0") == 1
        tb.posedge()
        with pytest.raises(SimulationError):
            tb.apply({"clk": 0})

    def test_same_answers_as_compiled_stepper(self, mult_module):
        from repro.sim.compiled import schedule_for

        rng = random.Random(11)
        ops = [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(6)]
        stepper = schedule_for(mult_module).stepper("clk")
        tb = ClockedTestbench(mult_module)
        for d in (stepper, tb):
            d.force_flops(0)
            d.apply({"clk": 0})
            d.reset_toggles()
            for a, b in ops:
                d.input_bus("a", 16).drive(a)
                d.apply(bus_values("b", 16, b))
                d.posedge()
                d.negedge()
        assert stepper.state_row().tolist() == tb.state_row().tolist()
        assert stepper.toggle_counts.tolist() == tb.toggle_counts.tolist()
        assert list(stepper.net_names) == list(tb.net_names)
        assert stepper.non_const_nets == tb.non_const_nets
        assert stepper.flop_q("rp_5") == tb.flop_q("rp_5")
        assert stepper.output_bus("p", 32).read() == \
            tb.output_bus("p", 32).read()


class TestGroupRecorderOverTestbench:
    def test_matches_group_activity(self, mult_module):
        """25 cycles in groups of 10: two full groups and a short one,
        identical to the batched Fig. 7 pipeline."""
        from repro.sim.activity import GroupRecorder, group_activity

        vectors = _operands(3, 25)
        expected = group_activity(mult_module, vectors, group_size=10)
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        rec = GroupRecorder(tb, group_size=10)
        for vec in vectors:
            tb.cycle(vec)
            rec.after_cycle()
        rec.flush()
        got = rec.trace.groups
        assert [g.cycles for g in got] == [10, 10, 5]
        assert [(g.index, g.cycles, g.total_toggles, g.nets, g.toggles)
                for g in got] == \
            [(g.index, g.cycles, g.total_toggles, g.nets, g.toggles)
             for g in expected.groups]
