"""Power report writer."""

import pytest

from repro.power.dynamic import dynamic_power
from repro.power.leakage import leakage_power
from repro.power.report import PowerReport, write_power_report


@pytest.fixture()
def report(mult_study):
    from repro.scpg.power_model import Mode

    lib = mult_study.library
    leak = leakage_power(mult_study.scpg.flat.top, lib)
    breakdown = mult_study.model.power(1e6, Mode.SCPG)
    return PowerReport(
        design="mult16_scpg",
        vdd=0.6,
        freq_hz=1e6,
        leakage=leak,
        scpg=breakdown,
    )


class TestPowerReport:
    def test_total_uses_scpg_when_present(self, report):
        assert report.total == pytest.approx(report.scpg.total)

    def test_render_sections(self, report):
        text = report.render()
        assert "Power Report -- mult16_scpg" in text
        assert "Leakage by cell group" in text
        assert "SCPG decomposition" in text
        assert "energy/operation" in text
        assert "Total average power" in text
        assert "header" in text  # header group present in SCPG netlist

    def test_leakage_only_report(self, mult_module, lib):
        leak = leakage_power(mult_module, lib)
        report = PowerReport(design="mult16", vdd=0.6, freq_hz=1e6,
                             leakage=leak)
        assert report.total == pytest.approx(leak.total)
        assert "SCPG decomposition" not in report.render()

    def test_with_dynamic(self, mult_module, lib):
        import random

        from repro.sim.testbench import ClockedTestbench, bus_values

        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        rng = random.Random(0)
        for _ in range(20):
            tb.cycle({**bus_values("a", 16, rng.getrandbits(16)),
                      **bus_values("b", 16, rng.getrandbits(16))})
        dyn = dynamic_power(mult_module, lib, tb.sim.toggle_snapshot(),
                            tb.cycles, freq_hz=1e6)
        leak = leakage_power(mult_module, lib)
        report = PowerReport(design="mult16", vdd=0.6, freq_hz=1e6,
                             leakage=leak, dynamic=dyn)
        text = report.render(top_nets=3)
        assert "Dynamic (switching)" in text
        assert "hottest nets" in text
        assert report.total == pytest.approx(leak.total + dyn.power)

    def test_write_file(self, report, tmp_path):
        path = tmp_path / "power.rpt"
        write_power_report(report, path)
        assert "Power Report" in path.read_text()


class TestTimingReportWriter:
    def test_render(self, mult_study):
        from repro.sta.report import render_timing_report

        text = render_timing_report(
            mult_study.sta, design="mult16",
            scpg_timing=mult_study.model.timing)
        assert "Critical path" in text
        assert "T_eval" in text
        assert "SCPG window (Fig. 4)" in text
        assert "duty <=" in text

    def test_write(self, mult_study, tmp_path):
        from repro.sta.report import write_timing_report

        path = tmp_path / "timing.rpt"
        write_timing_report(mult_study.sta, path, design="mult16")
        assert "Timing Report" in path.read_text()
