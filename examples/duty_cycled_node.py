"""Combining SCPG with traditional idle-mode power gating.

A sensor node computes in bursts: active at 2 MHz for a fraction of the
time, idle otherwise.  Traditional power gating [5] only helps while
idle; SCPG only helps while active.  This example sweeps the activity
fraction and shows the crossover -- and that the combination (SCPG during
bursts, header parked off between them, no retention registers needed)
dominates both.

Run:  python examples/duty_cycled_node.py
"""

from repro import Session
from repro.analysis.ascii_plot import ascii_chart
from repro.analysis.figures import FigureSeries
from repro.scpg.idle_mode import (
    GatingScheme,
    WorkloadProfile,
    crossover_activity,
    idle_mode_study,
)
from repro.units import fmt_power

FREQ = 2e6


def main():
    print("Building the multiplier case study...")
    study = Session().study("mult16")
    model = study.model

    fractions = [k / 40 for k in range(1, 40)]
    series = {scheme: [] for scheme in GatingScheme}
    for fraction in fractions:
        result = idle_mode_study(model, WorkloadProfile(fraction, FREQ))
        for scheme in GatingScheme:
            series[scheme].append(result[scheme].average)

    print("\nAverage power vs activity fraction (2 MHz bursts):")
    print(ascii_chart(
        [FigureSeries(s.value, x=fractions, y=series[s])
         for s in GatingScheme],
        width=70, height=16,
        xlabel="active fraction", ylabel="avg power (W)"))

    table = idle_mode_study(model, WorkloadProfile(0.25, FREQ))
    print("\nAt 25% activity:")
    for scheme, result in table.items():
        print("  {:>11}: {:>10}  (active {}, idle {})".format(
            scheme.value, fmt_power(result.average),
            fmt_power(result.active_power), fmt_power(result.idle_power)))

    cross = crossover_activity(model, FREQ)
    print("\nSCPG alone beats traditional PG above {:.0%} activity; the "
          "combined\nscheme wins everywhere above a few percent -- and "
          "needs no retention\nregisters, because SCPG's registers were "
          "never power-gated.".format(cross))


if __name__ == "__main__":
    main()
