"""End-to-end case-study pipeline: the studies drive every table/figure
benchmark, so their invariants are checked here once (fast mode)."""

import pytest

from repro.scpg.power_model import Mode


class TestMultiplierStudy:
    def test_components_present(self, mult_study):
        assert mult_study.name == "mult16"
        assert mult_study.model is not None
        assert mult_study.subvt is not None
        assert mult_study.scpg.upf
        assert mult_study.e_cycle > 0

    def test_energy_per_cycle_near_anchor(self, mult_study):
        anchor = mult_study.anchors.energy_per_cycle
        assert 0.5 * anchor < mult_study.e_cycle < 1.6 * anchor

    def test_header_choice_matches_paper(self, mult_study):
        assert mult_study.scpg.headers.cell.drive_strength == \
            mult_study.anchors.best_header

    def test_leakage_floor_near_anchor(self, mult_study):
        nopg = mult_study.model.power(1e4, Mode.NO_PG).total
        assert nopg == pytest.approx(mult_study.anchors.leakage_total,
                                     rel=0.25)

    def test_study_is_memoised(self, study_session, mult_study, lib):
        """Memoised per session: the same session hands back the same
        object; another session builds its own, with equal Table I."""
        from repro.analysis.tables import TABLE_I_FREQS, build_table
        from repro.session import Session

        assert study_session.study("mult16", fast=True) is mult_study
        other = Session(library=lib, cache=None)
        try:
            rebuilt = other.study("mult16", fast=True)
            assert rebuilt is not mult_study
            assert other.study("mult16", fast=True) is rebuilt
            assert build_table(rebuilt.model, TABLE_I_FREQS) \
                == build_table(mult_study.model, TABLE_I_FREQS)
        finally:
            other.close()


class TestCortexM0Study:
    def test_components_present(self, m0_study):
        assert m0_study.name == "cortex_m0"
        assert m0_study.activity_trace is not None
        assert m0_study.workload_cycles > 100

    def test_header_choice_matches_paper(self, m0_study):
        assert m0_study.scpg.headers.cell.drive_strength == \
            m0_study.anchors.best_header

    def test_activity_groups_vary(self, m0_study):
        """Fig. 7's premise: workload phases differ in activity."""
        series = m0_study.activity_trace.series
        assert max(series) > 2 * min(series)

    def test_m0_glitch_factor_documented(self, m0_study):
        from repro.power.dynamic import M0LITE_GLITCH_FACTOR

        assert m0_study.glitch_factor == M0LITE_GLITCH_FACTOR


class TestDhrystoneEngine:
    """The Table II Dhrystone runs are pinned to the compiled stepper:
    an ineligible core must raise, not quietly replay on the event
    simulator."""

    def test_sizing_pass_core_runs_compiled(self, lib):
        from repro.circuits import registry
        from repro.paper import _run_dhrystone

        gate, e_cycle = _run_dhrystone(registry.build("m0lite", lib), lib,
                                       iterations=1)
        assert gate.engine == "compiled"
        assert gate.halted and e_cycle > 0

    def test_implemented_core_runs_compiled(self, lib, m0_study):
        from repro.paper import _run_dhrystone

        gate, _ = _run_dhrystone(m0_study.base.top, lib, iterations=1)
        assert gate.engine == "compiled"

    def test_ineligible_core_raises(self, lib, m0_module, monkeypatch):
        from repro.errors import SimulationError
        from repro.isa.trace import GateLevelCpu
        from repro.paper import _run_dhrystone

        monkeypatch.setattr(
            GateLevelCpu, "_compiled_ready",
            staticmethod(lambda schedule: (False, "forced by test")))
        with pytest.raises(SimulationError, match="forced by test"):
            _run_dhrystone(m0_module, lib, iterations=1)


class TestCrossDesign:
    def test_m0_bigger_in_every_dimension(self, mult_study, m0_study):
        assert m0_study.e_cycle > 2 * mult_study.e_cycle
        assert m0_study.model.leak_comb > 3 * mult_study.model.leak_comb
        assert m0_study.scpg.rail.c_rail > 3 * mult_study.scpg.rail.c_rail

    def test_m0_lower_savings_at_same_frequency(self, mult_study,
                                                m0_study):
        """Paper: 28.1% vs 39.9% at 10 kHz -- the larger design saves a
        smaller fraction."""
        def saving(study):
            nopg = study.model.power(1e4, Mode.NO_PG)
            scpg = study.model.power(1e4, Mode.SCPG)
            return scpg.saving_vs(nopg)

        assert saving(m0_study) < saving(mult_study)
