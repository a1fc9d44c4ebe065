"""Differential tests: the levelized SoA engine vs the event simulator.

The compiled engine's contract is *bit-identical* results, not close
ones: every toggle count, activity group, and final net value must equal
what the event-driven :class:`~repro.sim.event.Simulator` produces for
the same workload.  These tests assert exact equality on the paper's two
case-study circuits (mult16 random operands, M0-lite running every
program in ``repro.isa.programs``) and on hypothesis-generated random
DAG netlists, plus the eligibility / fallback / pickling edges of
:class:`~repro.sim.compiled.CompiledSchedule`.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationError
from repro.isa.programs import (
    crc32_program,
    dhrystone_memory,
    dhrystone_program,
    fir_program,
)
from repro.isa.trace import GateLevelCpu
from repro.netlist.core import Module
from repro.runner import compile_kernel, kernel_for
from repro.sim.compiled import (
    CompiledSchedule,
    GateSimKernel,
    compile_schedule,
    peek_schedule,
    schedule_for,
)
from repro.sim.event import Simulator
from repro.sim.logic import X
from repro.sim.testbench import bus_values

from ..netlist.test_random_properties import build_random_circuit


def assert_runs_identical(levelized, event):
    """Bit-for-bit equality of two :class:`CompiledRun` results."""
    assert levelized.cycles == event.cycles
    assert levelized.toggle_snapshot() == event.toggle_snapshot()
    assert levelized.final_values == event.final_values
    if event.trace is None:
        assert levelized.trace is None
        return
    lg, eg = levelized.trace.groups, event.trace.groups
    assert len(lg) == len(eg)
    for a, b in zip(lg, eg):
        assert (a.index, a.cycles, a.total_toggles, a.nets) \
            == (b.index, b.cycles, b.total_toggles, b.nets)
        assert a.toggles == b.toggles


def differential(module, vectors, group_size=10, reset=0):
    """Run ``vectors`` through both engines and assert exact equality."""
    schedule = schedule_for(module)
    ok, why = schedule.vector_ready()
    assert ok, why
    fast = schedule.run_vectors(vectors, group_size=group_size,
                                reset=reset)
    assert fast.engine == "levelized"
    slow = schedule._run_event(vectors, clock="clk", reset=reset,
                               group_size=group_size)
    assert_runs_identical(fast, slow)
    return fast


def mult_vectors(count, seed=2011):
    rng = random.Random(seed)
    return [{
        **bus_values("a", 16, rng.getrandbits(16)),
        **bus_values("b", 16, rng.getrandbits(16)),
    } for _ in range(count)]


class TestMult16Differential:
    def test_random_operands_bit_identical(self, mult_module):
        run = differential(mult_module, mult_vectors(40))
        assert run.total_toggles() > 0
        assert len(run.trace.groups) == 4

    def test_partial_vectors_carry_forward(self, mult_module):
        """Unspecified ports hold their previous value, as in apply()."""
        rng = random.Random(7)
        vectors = []
        for i in range(20):
            vec = {}
            if i % 3 != 2:
                vec.update(bus_values("a", 16, rng.getrandbits(16)))
            if i % 2 == 0:
                vec.update(bus_values("b", 16, rng.getrandbits(16)))
            vectors.append(vec)
        vectors[5] = None  # idle cycle
        differential(mult_module, vectors, group_size=6)

    def test_toggle_matrix_matches_counts(self, mult_module):
        run = schedule_for(mult_module).run_vectors(mult_vectors(15))
        soa = schedule_for(mult_module).soa
        per_net = run.toggle_matrix.sum(axis=0)
        assert run.toggle_matrix.shape == (15, soa.n_nets)
        for i, name in enumerate(soa.net_names):
            assert run.toggles[name] == int(per_net[i])

    def test_driving_clock_in_vector_rejected(self, mult_module):
        with pytest.raises(SimulationError, match="clock"):
            schedule_for(mult_module).run_vectors([{"clk": 1}])

    def test_unknown_port_rejected(self, mult_module):
        with pytest.raises(SimulationError, match="no input port"):
            schedule_for(mult_module).run_vectors([{"nope": 1}])


def capture_cpu_vectors(module, program, memory=None, max_cycles=200):
    """Per-cycle input vectors from a closed-loop GateLevelCpu run.

    The captured open-loop stimulus (every non-clock input, sampled just
    before each rising edge) replays the same workload on any engine.
    """
    cpu = GateLevelCpu(module, program, memory)
    ports = [p.name for p in module.input_ports() if p.name != "clk"]
    vectors = []
    while not cpu.halted and cpu.cycles < max_cycles:
        vectors.append({p: cpu.value(p) for p in ports})
        cpu.step()
    return vectors


class TestM0LitePrograms:
    """Every program in ``repro.isa.programs`` drives the differential."""

    @pytest.mark.parametrize("name,program,memory", [
        ("dhrystone", dhrystone_program(2), dhrystone_memory()),
        ("crc32", crc32_program(1), dhrystone_memory()),
        ("fir", fir_program(3), None),
    ], ids=["dhrystone", "crc32", "fir"])
    def test_activity_trace_bit_identical(self, m0_module, name,
                                          program, memory):
        vectors = capture_cpu_vectors(m0_module, program, memory)
        assert len(vectors) >= 20, name
        run = differential(m0_module, vectors)
        assert run.total_toggles() > 0
        assert run.trace.representative_groups()["max"].total_toggles > 0


COMMON = dict(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


def random_vectors(module, seed, count=12):
    rng = random.Random(seed ^ 0xA5A5)
    ports = [p.name for p in module.input_ports() if p.name != "clk"]
    return [{p: rng.getrandbits(1) for p in ports} for _ in range(count)]


class TestRandomCircuits:
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_clocked_dag_bit_identical(self, lib, seed):
        module = build_random_circuit(lib, seed, clocked=True)
        differential(module, random_vectors(module, seed), group_size=5)

    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_comb_evaluate_matches_event_sim(self, lib, seed):
        module = build_random_circuit(lib, seed, n_gates=15)
        schedule = schedule_for(module)
        soa = schedule.soa
        assert soa is not None and soa.n_seq == 0
        rng = random.Random(seed)
        points = np.asarray(
            [[rng.getrandbits(1) for _ in soa.input_ports]
             for _ in range(10)], dtype=np.int8)
        got = schedule.evaluate(points)
        sim = Simulator(module)
        names = list(soa.input_ports)
        for row, out in zip(points, got):
            sim.set_inputs(dict(zip(names, (int(v) for v in row))))
            expected = [sim.value(name) for name in soa.output_ports]
            assert list(out) == expected, seed


def build_latch(lib):
    """Cross-coupled NAND latch: combinational feedback, unlowerable."""
    m = Module("latch")
    m.add_input("clk")
    s = m.add_input("s")
    r = m.add_input("r")
    q = m.add_net("q")
    qb = m.add_net("qb")
    m.add_instance("n1", "NAND2_X1", {"A": s, "B": qb, "Y": q},
                   library=lib)
    m.add_instance("n2", "NAND2_X1", {"A": r, "B": q, "Y": qb},
                   library=lib)
    out = m.add_output("o")
    m.add_instance("ob", "BUF_X1", {"A": q, "Y": out}, library=lib)
    return m


def build_gated_clock(lib):
    """A flop clocked through logic: levelized replay cannot batch it."""
    m = Module("gated")
    clk = m.add_input("clk")
    en = m.add_input("en")
    d = m.add_input("d")
    gck = m.add_net("gck")
    m.add_instance("g", "AND2_X1", {"A": clk, "B": en, "Y": gck},
                   library=lib)
    q = m.add_output("q")
    m.add_instance("ff", "DFF_X1", {"D": d, "CK": gck, "Q": q},
                   library=lib)
    return m


class TestEligibilityAndFallback:
    def test_feedback_reports_reason(self, lib):
        schedule = compile_schedule(build_latch(lib))
        assert schedule.soa is None and schedule.why
        ok, why = schedule.vector_ready()
        assert not ok and why

    def test_feedback_falls_back_to_event(self, lib):
        module = build_latch(lib)
        run = compile_schedule(module).run_vectors(
            [{"s": 1, "r": 0}, {"s": 1, "r": 1}, {"s": 0, "r": 1}],
            group_size=2)
        assert run.engine == "event"
        assert run.value("o") == 1  # s is active-low: last vector sets
        assert run.trace is not None and run.trace.groups

    def test_gated_clock_reason_names_cone(self, lib):
        schedule = compile_schedule(build_gated_clock(lib))
        assert schedule.soa is not None  # lowers fine...
        ok, why = schedule.vector_ready()
        assert not ok and "clock cone" in why  # ...but cannot batch

    def test_gated_clock_event_run_matches_direct_testbench(self, lib):
        module = build_gated_clock(lib)
        vectors = [{"en": 1, "d": 1}, {"en": 0, "d": 0},
                   {"en": 1, "d": 0}]
        run = compile_schedule(module).run_vectors(vectors)
        assert run.engine == "event"
        from repro.sim.testbench import ClockedTestbench

        tb = ClockedTestbench(module)
        tb.force_flops(0)
        tb.run(vectors)
        assert run.toggle_snapshot() == tb.sim.toggle_snapshot()
        assert run.value("q") == tb.sim.value("q") == 0

    def test_missing_clock_port(self, lib):
        module = build_random_circuit(lib, 3)  # combinational
        ok, why = schedule_for(module).vector_ready()
        assert not ok and "clk" in why

    def test_evaluate_rejects_sequential(self, mult_module):
        with pytest.raises(SimulationError, match="combinational-only"):
            schedule_for(mult_module).evaluate([[0]])

    def test_evaluate_rejects_wrong_width(self, lib):
        module = build_random_circuit(lib, 4)
        with pytest.raises(SimulationError, match="input columns"):
            schedule_for(module).evaluate(np.zeros((2, 99), dtype=np.int8))

    def test_evaluate_refused_without_schedule(self, lib):
        with pytest.raises(SimulationError, match="no levelized"):
            compile_schedule(build_latch(lib)).evaluate([[0, 0, 0]])


class TestMemoisationAndPickle:
    def test_schedule_for_memoises(self, mult_module):
        assert schedule_for(mult_module) is schedule_for(mult_module)
        assert peek_schedule(mult_module) is schedule_for(mult_module)

    def test_peek_never_compiles(self, lib):
        module = build_random_circuit(lib, 11)
        assert peek_schedule(module) is None

    def test_library_upgrade_recompiles_with_caps(self, lib):
        module = build_random_circuit(lib, 12)
        bare = schedule_for(module)
        assert bare.soa.net_cap is None
        priced = schedule_for(module, lib)
        assert priced.soa.net_cap is not None
        assert schedule_for(module, lib) is priced

    def test_pickle_drops_module_keeps_levelized_path(self, mult_module):
        schedule = schedule_for(mult_module)
        restored = pickle.loads(pickle.dumps(schedule))
        assert restored.module is None
        vectors = mult_vectors(8, seed=5)
        fast = restored.run_vectors(vectors)
        assert fast.engine == "levelized"
        assert_runs_identical(fast, schedule.run_vectors(vectors))

    def test_stepper_run_leaves_pickle_bytes_unchanged(self, m0_module):
        """Fused row programs, cone caches and eligibility memos are all
        rebuilt on demand, so none of them reach the pickle."""
        schedule = compile_schedule(m0_module)
        before = pickle.dumps(schedule)

        def drive(sched):
            stepper = sched.stepper("clk")
            stepper.force_flops(0)
            stepper.apply({"rstn": 0})
            stepper.cycle()
            stepper.input_bus("drdata", 32).drive(0x1234)
            stepper.cycle({"rstn": 1})
            return stepper

        stepper = drive(schedule)
        schedule.soa.eval_row(stepper.state_row())
        schedule.run_vectors([{"rstn": 1}])
        assert pickle.dumps(schedule) == before
        again = drive(pickle.loads(before))
        assert np.array_equal(again.state_row(), stepper.state_row())
        assert np.array_equal(again.toggle_counts, stepper.toggle_counts)

    def test_unpickled_fallback_needs_bind_module(self, lib):
        module = build_latch(lib)
        restored = pickle.loads(pickle.dumps(compile_schedule(module)))
        with pytest.raises(SimulationError, match="without its module"):
            restored.run_vectors([{"s": 1, "r": 1}])
        restored.bind_module(module)
        assert restored.run_vectors([{"s": 1, "r": 1}]).engine == "event"


class TestGateSimKernel:
    def test_registered_for_comb_modules(self, lib):
        module = build_random_circuit(lib, 21)
        kernel = kernel_for(module)
        assert kernel is not None and kernel.name == "gate-sim"

    def test_not_offered_for_sequential_modules(self, mult_module):
        assert kernel_for(mult_module) is None

    def test_compiled_kernel_matches_event_sim(self, lib):
        module = build_random_circuit(lib, 22)
        kernel = compile_kernel(module, lib)
        soa = kernel.context.soa
        rng = random.Random(22)
        points = np.asarray(
            [[rng.getrandbits(1) for _ in soa.input_ports]
             for _ in range(6)], dtype=np.int8)
        got = kernel(points)
        sim = Simulator(module)
        names = list(soa.input_ports)
        for row, out in zip(points, got):
            sim.set_inputs(dict(zip(names, (int(v) for v in row))))
            assert list(out) == [sim.value(n) for n in soa.output_ports]

    def test_compiled_kernel_pickles_without_module(self, lib):
        module = build_random_circuit(lib, 23)
        kernel = compile_kernel(module, lib)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.context.module is None
        points = np.zeros((3, len(kernel.context.soa.input_ports)),
                          dtype=np.int8)
        assert np.array_equal(clone(points), kernel(points))

    def test_compile_rejects_sequential(self, mult_module):
        with pytest.raises(SimulationError, match="flops"):
            GateSimKernel().compile(mult_module)

    def test_compile_rejects_feedback(self, lib):
        with pytest.raises(SimulationError, match="gate-sim kernel"):
            GateSimKernel().compile(build_latch(lib))


class TestXPropagation:
    def test_x_inputs_do_not_count_toggles(self, lib):
        """known -> X and X -> known transitions are not toggles, in both
        engines alike."""
        module = build_random_circuit(lib, 31, clocked=True)
        vectors = random_vectors(module, 31, count=6)
        vectors[2] = {name: X for name in vectors[2]}
        differential(module, vectors, group_size=3)
