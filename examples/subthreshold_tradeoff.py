"""Section IV: sub-clock power gating versus sub-threshold operation.

Sweeps the multiplier's supply voltage to find the minimum-energy point
(Fig. 9), sets that point's power as the budget, and asks what SCPG
achieves within it -- then shows how the gap narrows as the budget grows
and why the override's performance range matters.

Run:  python examples/subthreshold_tradeoff.py
"""

from repro import Mode, Session
from repro.analysis.ascii_plot import ascii_chart
from repro.analysis.figures import subvt_series
from repro.subvt.compare import compare_with_scpg
from repro.subvt.energy import minimum_energy_point
from repro.units import fmt_energy, fmt_freq, fmt_power


def main():
    print("Building the multiplier case study...")
    study = Session().study("mult16")

    print("\nEnergy per operation vs supply voltage (Fig. 9):")
    print(ascii_chart([subvt_series(study.subvt, 0.15, 0.9, steps=50)],
                      width=70, height=14,
                      xlabel="Supply Voltage (V)",
                      ylabel="Energy per Operation (J)"))

    mep = minimum_energy_point(study.subvt)
    print("Minimum-energy point: {:.0f} mV, {} per op, Fmax {} "
          "(paper: 310 mV, 1.7 pJ)".format(
              mep.vdd * 1e3, fmt_energy(mep.energy), fmt_freq(mep.fmax_hz)))

    result = compare_with_scpg(study.subvt, study.model)
    print("\nAt the sub-threshold budget ({}):".format(
        fmt_power(result.budget)))
    print("  sub-threshold:", fmt_energy(result.subvt_point.energy),
          "per op at", fmt_freq(result.subvt_point.fmax_hz))
    print("  SCPG         :", fmt_energy(result.scpg_scenario.energy_per_op),
          "per op at", fmt_freq(result.scpg_scenario.freq_hz))
    print("  energy gap   : {:.1f}x (paper: ~5x)".format(
        result.energy_ratio))

    wider = compare_with_scpg(study.subvt, study.model,
                              budget=result.budget * 2)
    print("\nWith a 2x budget the gap narrows to {:.1f}x "
          "(paper: 2.9x at 40 uW).".format(wider.energy_ratio))

    peak = study.model.feasible_fmax(Mode.NO_PG)
    print("\nAnd unlike sub-threshold, the SCPG design can override the "
          "gating\nand peak to {} -- the MSP430-style dual-clock "
          "trade-off.".format(fmt_freq(peak)))


if __name__ == "__main__":
    main()
