"""Individual flow steps: synthesis, floorplan, CTS, routing."""

import pytest

from repro.circuits.builder import new_module
from repro.errors import FlowError
from repro.flows.cts import synthesize_clock_tree
from repro.flows.floorplan import plan_design
from repro.flows.route import estimate_routing
from repro.flows.synthesis import synthesize
from repro.netlist.stats import module_stats
from repro.netlist.validate import validate_module
from repro.sim.event import Simulator


def _high_fanout_module(lib, fanout=60):
    module, b = new_module("hf", lib)
    a = module.add_input("a")
    src = b.inv(a)
    for i in range(fanout):
        b.inv(src, y=module.add_output("y{}".format(i)))
    return module


class TestSynthesize:
    def test_fanout_repair(self, lib):
        module = _high_fanout_module(lib)
        report = synthesize(module, lib)
        assert report.metrics["buffers_added"] >= 2
        assert validate_module(module).ok
        # No data net above the limit afterwards.
        from repro.flows.synthesis import MAX_FANOUT, _is_clock_net

        for net in module.nets():
            loads = [l for l in net.loads if isinstance(l, tuple)]
            if not _is_clock_net(net):
                assert len(loads) <= MAX_FANOUT

    def test_function_preserved(self, lib):
        module = _high_fanout_module(lib, fanout=30)
        synthesize(module, lib)
        sim = Simulator(module)
        sim.set_input("a", 0)
        assert sim.value("y0") == 0  # double inversion
        sim.set_input("a", 1)
        assert sim.value("y17") == 1

    def test_clock_nets_left_alone(self, lib):
        module, b = new_module("clky", lib)
        clk = module.add_input("clk")
        d = module.add_input("d")
        for i in range(40):
            b.dff(d, clk, name="ff{}".format(i))
        synthesize(module, lib)
        # Clock still drives all 40 flops directly (CTS's job, not ours).
        assert len(module.net("clk").loads) == 40


class TestFloorplan:
    def test_basic_plan(self, mult_module, lib):
        plan, report = plan_design(mult_module, lib)
        assert plan.die_area > module_stats(mult_module).area
        assert plan.utilization == pytest.approx(0.7)

    def test_centred_vs_corner_congestion(self, mult_module, lib):
        from repro.circuits.multiplier import build_mult16

        comb = build_mult16(lib, registered=False)
        centre, _ = plan_design(mult_module, lib, comb_module=comb,
                                boundary_nets=100, centred=True)
        corner, _ = plan_design(mult_module, lib, comb_module=comb,
                                boundary_nets=100, centred=False)
        assert corner.congestion == pytest.approx(2 * centre.congestion)

    def test_congestion_warning(self, mult_module, lib):
        from repro.circuits.multiplier import build_mult16

        comb = build_mult16(lib, registered=False)
        plan, report = plan_design(mult_module, lib, comb_module=comb,
                                   boundary_nets=100000, centred=False)
        assert plan.messages  # warned


class TestCts:
    def test_tree_limits_fanout(self, lib, fresh_mult):
        from repro.flows.cts import MAX_CLOCK_FANOUT

        cts, _report = synthesize_clock_tree(fresh_mult, lib)
        assert cts.sinks == 64
        assert cts.buffers >= 4
        clk = fresh_mult.net("clk")
        assert len(clk.loads) <= MAX_CLOCK_FANOUT
        assert validate_module(fresh_mult).ok

    def test_small_design_needs_no_tree(self, toy_design, lib):
        cts, _ = synthesize_clock_tree(toy_design.top, lib)
        assert cts.buffers == 0

    def test_missing_clock_rejected(self, lib):
        from repro.circuits.multiplier import build_mult16

        comb = build_mult16(lib, registered=False)
        with pytest.raises(FlowError):
            synthesize_clock_tree(comb, lib)

    def test_flops_still_clocked(self, lib, fresh_mult):
        import random

        from repro.sim.testbench import (
            ClockedTestbench, bus_values, read_bus)

        synthesize_clock_tree(fresh_mult, lib)
        tb = ClockedTestbench(fresh_mult)
        tb.force_flops()
        tb.cycle({**bus_values("a", 16, 111), **bus_values("b", 16, 222)})
        tb.cycle({})
        assert read_bus(tb.sim, "p", 32) == 111 * 222


class TestRouting:
    def test_estimate(self, mult_module, lib):
        estimate, report = estimate_routing(mult_module, lib)
        assert estimate.total_wirelength > 0
        assert estimate.connections > estimate.nets
        assert estimate.avg_fanout > 1.0
