"""Energy-harvester scenario: the paper's wireless-sensor-node use case.

"One target application envisaged for the proposed technique is designs
with tight power budgets, e.g., a wireless sensor node powered by an
energy harvester."  Given a harvester budget, this example finds the best
operating point of each configuration and reports the frequency and
energy-efficiency gains SCPG delivers (paper: ~50x clock / ~45x energy at
30 uW for the multiplier).

Run:  python examples/wireless_sensor_node.py [budget_uW]
"""

import sys

from repro import Mode, Session
from repro.scpg.budget import compare_at_budget
from repro.units import fmt_energy, fmt_freq, fmt_power


def main(budget_uw=30.0):
    budget = budget_uw * 1e-6
    print("Harvester budget: {}".format(fmt_power(budget)))
    print("Building the multiplier case study (flows + simulation)...")
    study = Session().study("mult16")

    comparison = compare_at_budget(study.model, budget)
    print("\nBest operating point per configuration:")
    for mode in (Mode.NO_PG, Mode.SCPG, Mode.SCPG_MAX):
        s = comparison[mode]
        print("  {:>9}: {:>10} at {:>9}  ({} per operation)".format(
            mode.value, fmt_freq(s.freq_hz), fmt_power(s.power),
            fmt_energy(s.energy_per_op)))

    nopg = comparison[Mode.NO_PG]
    best = comparison[Mode.SCPG_MAX]
    print("\nSCPG-Max vs no power gating within the same budget:")
    print("  clock frequency : {:.1f}x higher".format(
        best.speedup_vs(nopg)))
    print("  energy/operation: {:.1f}x better".format(
        best.efficiency_vs(nopg)))
    print("\n(paper, 30 uW: 100 kHz -> ~5 MHz, 294.4 pJ -> 6.56 pJ;")
    print(" ~50x clock and ~45x energy efficiency)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 30.0)
