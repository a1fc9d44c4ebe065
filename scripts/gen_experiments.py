"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs both case studies at full fidelity and formats the comparison tables.

Usage::

    PYTHONPATH=src python scripts/gen_experiments.py > EXPERIMENTS.md
    PYTHONPATH=src python scripts/gen_experiments.py --check    # CI gate

``--check`` regenerates the page in memory and exits 1, with a diff
summary, when the committed ``EXPERIMENTS.md`` no longer matches it --
so a change that moves a table or figure number cannot land without the
regenerated page.
"""

import argparse
import difflib
import io
import os
import sys

from repro.analysis.sweep import find_convergence
from repro.analysis.tables import (
    TABLE_I_FREQS,
    TABLE_II_FREQS,
    build_table,
)
from repro import Session
from repro.scpg.budget import (
    HARVESTER_BUDGET_LARGE,
    HARVESTER_BUDGET_SMALL,
    compare_at_budget,
)
from repro.scpg.power_model import Mode
from repro.subvt.compare import compare_with_scpg
from repro.subvt.energy import minimum_energy_point


def _fmt(x, scale=1.0, digits=2, suffix=""):
    if x is None:
        return "--"
    return "{:.{d}f}".format(x * scale, d=digits) + suffix


def table_block(out, rows, paper_rows):
    out.write("| f (MHz) | P no-PG uW (paper) | P SCPG uW (paper) | "
              "SCPG saving % (paper) | P SCPG-Max uW (paper) | "
              "SCPG-Max saving % (paper) |\n")
    out.write("|---|---|---|---|---|---|\n")
    for row, ref in zip(rows, paper_rows):
        out.write(
            "| {:.2f} | {} ({:.2f}) | {} ({:.2f}) | {} ({:.1f}) | {} "
            "({:.2f}) | {} ({:.1f}) |\n".format(
                row.freq_hz / 1e6,
                _fmt(row.power_nopg, 1e6), ref.power_nopg * 1e6,
                _fmt(row.power_scpg, 1e6), ref.power_scpg * 1e6,
                _fmt(row.saving_scpg_pct, 1.0, 1),
                ref.saving_scpg_pct,
                _fmt(row.power_scpgmax, 1e6), ref.power_scpgmax * 1e6,
                _fmt(row.saving_scpgmax_pct, 1.0, 1),
                ref.saving_scpgmax_pct,
            ))


def render():
    """The full EXPERIMENTS.md text."""
    out = io.StringIO()
    session = Session(cache=None)
    sys.stderr.write("building multiplier study...\n")
    mult = session.study("mult16")
    sys.stderr.write("building cortex-m0 study (full Dhrystone-lite)...\n")
    m0 = session.study("m0lite")

    w = out.write
    w("# EXPERIMENTS — paper vs measured\n\n")
    w("Generated by `scripts/gen_experiments.py` from the shipped scl90\n")
    w("calibration. Absolute agreement is not the claim (the substrate is\n")
    w("an analytical simulator, not the authors' HSpice testbed); the\n")
    w("shape — orderings, crossover frequencies, saving magnitudes at the\n")
    w("anchor rows — is. Deviations are discussed at the bottom.\n\n")

    w("## Setup reproduced\n\n")
    w("| quantity | multiplier (paper) | M0-lite (paper) |\n|---|---|---|\n")
    from repro.netlist.stats import module_stats

    ms = module_stats(mult.base.top)
    m0s = module_stats(m0.base.top)
    w("| combinational gates | {} (556) | {} (6747) |\n".format(
        ms.comb_gates, m0s.comb_gates))
    w("| registers | {} (n/a) | {} (n/a) |\n".format(
        ms.seq_cells, m0s.seq_cells))
    w("| best header size | X{} (X2) | X{} (X4) |\n".format(
        mult.scpg.headers.cell.drive_strength,
        m0.scpg.headers.cell.drive_strength))
    w("| area overhead | {:.1f}% (3.9%) | {:.1f}% (6.6%) |\n".format(
        mult.flow.area_overhead_pct, m0.flow.area_overhead_pct))
    w("| E/cycle | {:.2f} pJ (2.34 pJ slope) | {:.2f} pJ (10.4 pJ slope) "
      "|\n".format(mult.e_cycle * 1e12, m0.e_cycle * 1e12))
    w("| workload | 300 random vectors | Dhrystone-lite, {} cycles "
      "(3700) |\n\n".format(m0.workload_cycles))

    w("## Table I — multiplier, VDD = 0.6 V (T1)\n\n")
    table_block(out, build_table(mult.model, TABLE_I_FREQS),
                mult.anchors.rows)

    w("\n## Table II — Cortex-M0, VDD = 0.6 V (T2)\n\n")
    table_block(out, build_table(m0.model, TABLE_II_FREQS),
                m0.anchors.rows)

    w("\n## Figures\n\n")
    fc_mult = find_convergence(mult.model, Mode.SCPG)
    fc_m0 = find_convergence(m0.model, Mode.SCPG)
    w("| artefact | paper | measured |\n|---|---|---|\n")
    w("| Fig 6(a) convergence (multiplier) | ~15 MHz | {} |\n".format(
        "{:.1f} MHz".format(fc_mult / 1e6) if fc_mult
        else "> SCPG Fmax (saving persists)"))
    w("| Fig 8(a) convergence (M0) | ~5 MHz | {:.1f} MHz |\n".format(
        fc_m0 / 1e6))
    series = m0.activity_trace.series
    w("| Fig 7 switching probability range | ~0.05–0.65, 370 groups | "
      "{:.2f}–{:.2f}, {} groups |\n".format(
          min(series), max(series), len(series)))
    mep_mult = minimum_energy_point(mult.subvt)
    mep_m0 = minimum_energy_point(m0.subvt)
    w("| Fig 9 min-energy point (multiplier) | 310 mV, 1.7 pJ, ~10 MHz | "
      "{:.0f} mV, {:.2f} pJ, {:.1f} MHz |\n".format(
          mep_mult.vdd * 1e3, mep_mult.energy * 1e12,
          mep_mult.fmax_hz / 1e6))
    w("| Fig 10 min-energy point (M0) | 450 mV, 12.01 pJ, 24 MHz | "
      "{:.0f} mV, {:.2f} pJ, {:.1f} MHz |\n".format(
          mep_m0.vdd * 1e3, mep_m0.energy * 1e12, mep_m0.fmax_hz / 1e6))

    w("\n## Scenario studies\n\n")
    cmp_small = compare_at_budget(mult.model, HARVESTER_BUDGET_SMALL)
    nopg, best = cmp_small[Mode.NO_PG], cmp_small[Mode.SCPG_MAX]
    w("| scenario | paper | measured |\n|---|---|---|\n")
    w("| mult @ 30 uW: no-PG | 100 kHz / 294.4 pJ | {:.0f} kHz / {:.1f} pJ "
      "|\n".format(nopg.freq_hz / 1e3, nopg.energy_per_op * 1e12))
    w("| mult @ 30 uW: SCPG-Max | ~5 MHz / 6.56 pJ | {:.2f} MHz / "
      "{:.2f} pJ |\n".format(best.freq_hz / 1e6,
                             best.energy_per_op * 1e12))
    w("| mult @ 30 uW: gains | ~50x clock / ~45x energy | {:.0f}x / "
      "{:.0f}x |\n".format(best.speedup_vs(nopg),
                           best.efficiency_vs(nopg)))
    cmp_large = compare_at_budget(m0.model, HARVESTER_BUDGET_LARGE)
    n2, b2 = cmp_large[Mode.NO_PG], cmp_large[Mode.SCPG_MAX]
    w("| M0 @ 250 uW: gains | >2x clock / >2.5x energy | {:.1f}x / "
      "{:.1f}x |\n".format(b2.speedup_vs(n2), b2.efficiency_vs(n2)))
    sv_mult = compare_with_scpg(mult.subvt, mult.model)
    sv_m0 = compare_with_scpg(m0.subvt, m0.model)
    w("| §IV mult: sub-vt energy gap | ~5x (narrows to 2.9x at 40 uW) | "
      "{:.1f}x (at 2x budget: {:.1f}x) |\n".format(
          sv_mult.energy_ratio,
          compare_with_scpg(mult.subvt, mult.model,
                            budget=sv_mult.budget * 2).energy_ratio))
    w("| §IV M0: sub-vt energy gap | ~4.8x | {:.1f}x |\n".format(
        sv_m0.energy_ratio))

    w("\n## Known deviations\n\n")
    w("* **Mid-frequency SCPG savings are optimistic by up to ~2x**\n")
    w("  (e.g. multiplier 5 MHz: model ~19% vs paper 9.1%). Our virtual\n")
    w("  rail is a single-time-constant RC; HSpice's rail decays in\n")
    w("  multiple phases, leaving more residual leakage mid-cycle. The\n")
    w("  anchor rows (10 kHz) and the convergence points still match.\n")
    w("* **SCPG-Max mid-range savings exceed the paper's** for the same\n")
    w("  reason plus a continuously optimised duty cycle; the paper's\n")
    w("  clock generator granularity is unknown.\n")
    w("* **M0 area overhead is ~half the paper's** (see S-AREA): M0-lite\n")
    w("  shares one 32-bit write-back bus across the register file, so\n")
    w("  ~310 isolation cells suffice where ARM's netlist needed more.\n")
    w("* **Sub-threshold minimum-energy voltages sit ~40-75 mV from the\n")
    w("  paper's** (multiplier: ~385 mV vs 310 mV; M0: ~430 mV vs\n")
    w("  450 mV) and the M0's minimum-energy frequency is ~2x low: the\n")
    w("  paper's 14.3 MHz @ 0.6 V and 10 MHz @ 0.31 V are hard to satisfy\n")
    w("  simultaneously with one continuous delay model, so the\n")
    w("  calibration favours the energy/voltage of the minimum.\n")
    w("* **The 30 uW no-PG frequency is ~3x the paper's** (its energy/op\n")
    w("  correspondingly lower): with a ~29 uW leakage floor, the solved\n")
    w("  frequency is proportional to the remaining sub-uW headroom, so a\n")
    w("  1-2% leakage mismatch moves it by integer factors.  The headline\n")
    w("  gains (tens-of-x clock and energy within the budget) survive.\n")

    return out.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when EXPERIMENTS.md is stale instead "
                        "of printing the page")
    args = parser.parse_args(argv)

    text = render()
    if not args.check:
        sys.stdout.write(text)
        return 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "EXPERIMENTS.md")
    committed = open(path).read() if os.path.exists(path) else ""
    if committed == text:
        print("EXPERIMENTS.md is up to date")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(), text.splitlines(),
        "EXPERIMENTS.md (committed)", "EXPERIMENTS.md (generated)",
        lineterm="")
    sys.stdout.write("\n".join(list(diff)[:60]) + "\n")
    print("EXPERIMENTS.md is stale: regenerate with "
          "PYTHONPATH=src python scripts/gen_experiments.py > EXPERIMENTS.md")
    return 1


if __name__ == "__main__":
    sys.exit(main())
