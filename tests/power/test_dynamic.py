"""Dynamic power from toggle counts."""

import random

import pytest

from repro.errors import PowerError
from repro.power.dynamic import dynamic_power
from repro.sim.testbench import ClockedTestbench, bus_values


def _run_mult(mult_module, cycles=40, seed=0, magnitude=0xFFFF):
    tb = ClockedTestbench(mult_module)
    tb.force_flops()
    rng = random.Random(seed)
    for _ in range(cycles):
        tb.cycle({
            **bus_values("a", 16, rng.getrandbits(16) & magnitude),
            **bus_values("b", 16, rng.getrandbits(16) & magnitude),
        })
    return tb


class TestDynamicPower:
    def test_energy_positive_and_power_linear_in_f(self, mult_module, lib):
        tb = _run_mult(mult_module)
        toggles = tb.sim.toggle_snapshot()
        r1 = dynamic_power(mult_module, lib, toggles, tb.cycles,
                           freq_hz=1e6)
        r2 = dynamic_power(mult_module, lib, toggles, tb.cycles,
                           freq_hz=2e6)
        assert r1.energy_per_cycle > 0
        assert r2.power == pytest.approx(2 * r1.power)
        assert r2.energy_per_cycle == pytest.approx(r1.energy_per_cycle)

    def test_quadratic_in_vdd(self, mult_module, lib):
        tb = _run_mult(mult_module)
        toggles = tb.sim.toggle_snapshot()
        nom = dynamic_power(mult_module, lib, toggles, tb.cycles)
        low = dynamic_power(mult_module, lib, toggles, tb.cycles, vdd=0.3)
        assert low.energy_per_cycle == pytest.approx(
            nom.energy_per_cycle * 0.25, rel=1e-6)

    def test_glitch_factor_multiplies(self, mult_module, lib):
        tb = _run_mult(mult_module)
        toggles = tb.sim.toggle_snapshot()
        g1 = dynamic_power(mult_module, lib, toggles, tb.cycles,
                           glitch_factor=1.0)
        g2 = dynamic_power(mult_module, lib, toggles, tb.cycles,
                           glitch_factor=2.3)
        assert g2.energy_per_cycle == pytest.approx(
            2.3 * g1.energy_per_cycle)

    def test_quiet_operands_use_less(self, mult_module, lib):
        busy = _run_mult(mult_module, seed=1, magnitude=0xFFFF)
        quiet = _run_mult(mult_module, seed=1, magnitude=0x0007)
        rb = dynamic_power(mult_module, lib, busy.sim.toggle_snapshot(),
                           busy.cycles)
        rq = dynamic_power(mult_module, lib, quiet.sim.toggle_snapshot(),
                           quiet.cycles)
        assert rb.energy_per_cycle > 3 * rq.energy_per_cycle

    def test_top_nets_ranked(self, mult_module, lib):
        tb = _run_mult(mult_module)
        report = dynamic_power(mult_module, lib, tb.sim.toggle_snapshot(),
                               tb.cycles)
        top = report.top_nets(5)
        assert len(top) == 5
        energies = [e for _name, e in top]
        assert energies == sorted(energies, reverse=True)

    def test_zero_cycles_rejected(self, mult_module, lib):
        with pytest.raises(PowerError):
            dynamic_power(mult_module, lib, {}, 0)

    def test_calibration_anchor(self, mult_module, lib):
        """Random-operand multiplier E/cycle must sit near the Table I
        slope (2.34 pJ) -- this is the key dynamic calibration, at the
        multiplier's calibrated glitch factor."""
        from repro.power.dynamic import MULT16_GLITCH_FACTOR

        tb = _run_mult(mult_module, cycles=120)
        report = dynamic_power(mult_module, lib, tb.sim.toggle_snapshot(),
                               tb.cycles,
                               glitch_factor=MULT16_GLITCH_FACTOR)
        assert 1.6e-12 < report.energy_per_cycle < 3.2e-12
