"""The 16-bit array multiplier (case study 1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.multiplier import build_mult16
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module
from repro.sim.event import Simulator
from repro.sim.testbench import ClockedTestbench, bus_values, read_bus


class TestStructure:
    def test_valid(self, mult_module):
        assert validate_module(mult_module).ok

    def test_ports(self, mult_module):
        names = {p.name for p in mult_module.ports}
        assert "clk" in names
        assert "a_0" in names and "a_15" in names
        assert "p_0" in names and "p_31" in names

    def test_register_counts(self, mult_module):
        stats = module_stats(mult_module)
        assert stats.seq_cells == 64  # 2x16 operand + 32 product

    def test_mostly_arithmetic_cells(self, mult_module):
        stats = module_stats(mult_module)
        assert stats.by_cell["AND2_X1"] == 256  # partial products
        assert stats.by_cell["FA_X1"] > 150


class TestRegisteredBehaviour:
    def test_two_cycle_latency(self, lib):
        m = build_mult16(lib)
        tb = ClockedTestbench(m)
        tb.force_flops()
        tb.cycle({**bus_values("a", 16, 7), **bus_values("b", 16, 9)})
        # One more edge moves the product through the output register.
        tb.cycle({**bus_values("a", 16, 0), **bus_values("b", 16, 0)})
        assert read_bus(tb.sim, "p", 32) == 63

    def test_pipeline_stream(self, lib):
        m = build_mult16(lib)
        tb = ClockedTestbench(m)
        tb.force_flops()
        rng = random.Random(42)
        prev = None
        for _ in range(60):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            tb.cycle({**bus_values("a", 16, a), **bus_values("b", 16, b)})
            p = read_bus(tb.sim, "p", 32)
            if prev is not None:
                assert p == prev[0] * prev[1]
            prev = (a, b)


class TestCombinationalCore:
    @pytest.fixture(scope="class")
    def sim(self, lib):
        return Simulator(build_mult16(lib, registered=False))

    @pytest.mark.parametrize("a,b", [
        (0, 0), (1, 1), (0xFFFF, 0xFFFF), (0x8000, 2), (3, 0x5555),
        (65535, 1), (256, 256), (12345, 54321),
    ])
    def test_corner_products(self, sim, a, b):
        sim.set_inputs({**bus_values("a", 16, a), **bus_values("b", 16, b)})
        assert read_bus(sim, "p", 32) == a * b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_matches_python(self, sim, a, b):
        sim.set_inputs({**bus_values("a", 16, a), **bus_values("b", 16, b)})
        assert read_bus(sim, "p", 32) == a * b


class TestParametricWidths:
    @pytest.mark.parametrize("width", [2, 3, 4, 8])
    def test_exhaustive_small_widths(self, lib, width):
        m = build_mult16(lib, width=width, registered=False)
        sim = Simulator(m)
        step = 1 if width <= 4 else 37
        for a in range(0, 1 << width, step):
            for b in range(0, 1 << width, step):
                sim.set_inputs({
                    **bus_values("a", width, a),
                    **bus_values("b", width, b),
                })
                assert read_bus(sim, "p", 2 * width) == a * b, (a, b)

    def test_width_one(self, lib):
        m = build_mult16(lib, width=1, registered=False)
        sim = Simulator(m)
        for a in (0, 1):
            for b in (0, 1):
                sim.set_inputs({"a_0": a, "b_0": b})
                assert read_bus(sim, "p", 2) == a * b
