"""Fused-LUT row programs (``SoaNetlist.pack_levels`` / ``eval_row``).

A fused op keys each of its outputs on the nets settled before the op,
so a row program must settle *any* value row -- settled or not, X-laden
or clean -- to exactly what the level-by-level :meth:`eval_comb` oracle
produces for the same cone.  Every comparison is ``np.array_equal``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist.core import Module
from repro.netlist.soa import FUSE_LEAVES
from repro.sim.compiled import schedule_for
from repro.tech.library import Cell, CellKind, Pin, PinDirection

SETTINGS = dict(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def build_toy(lib):
    """Constants, tie cells, duplicate operands, a two-output adder, a
    6-input cell (wider than one fused table allows) and a flop."""
    wide = Cell(
        name="WIDE6", kind=CellKind.COMBINATIONAL, area=1.0,
        pins=[Pin(p, PinDirection.INPUT) for p in "ABCDEF"]
        + [Pin("Y", PinDirection.OUTPUT,
               function="(A & B & C) | (D & !E) | F")])
    m = Module("fused_toy")
    clk = m.add_input("clk")
    a, b, c, d, e = (m.add_input(p) for p in "abcde")
    y = m.add_output("y")
    net = m.add_net

    def gate(name, cell, **pins):
        m.add_instance(name, cell, pins, library=lib)

    gate("tie", "TIEHI_X1", Y=net("t1"))
    gate("inv", "INV_X1", A=a, Y=net("n1"))
    gate("nk", "NAND2_X1", A=a, B=m.const(1), Y=net("n2"))
    gate("dup", "NAND2_X1", A="n1", B="n1", Y=net("n3"))
    gate("fa", "FA_X1", A="n2", B="n3", CI=b, S=net("s"), CO=net("co"))
    gate("aoi", "AOI21_X1", A="s", B="co", C="t1", Y=net("n4"))
    m.add_instance("w", wide, {"A": a, "B": b, "C": c, "D": d, "E": e,
                               "F": "n4", "Y": net("w")})
    gate("x", "XOR2_X1", A="w", B=net("q"), Y=net("n5"))
    gate("ff", "DFF_X1", D="n5", CK=clk, Q="q")
    prev = "n5"
    for i in range(6):   # a deep narrow tail that fuses
        gate("c{}".format(i), "NOR2_X1", A=prev, B=m.const(0) if i % 2
             else "q", Y=net("c{}".format(i)))
        prev = "c{}".format(i)
    gate("mux", "MUX2_X1", A=prev, B="w", S="s", Y=y)
    return m


@pytest.fixture(scope="session")
def cores(lib, m0_module, m0_study, mult_module):
    return {
        "m0lite": m0_module,
        "m0lite_cts": m0_study.base.top,
        "m0lite_scpg": m0_study.scpg.flat.top,
        "mult16": mult_module,
        "toy": build_toy(lib),
    }


def apply_ports(soa, design):
    """The port indices a closed-loop apply phase drives."""
    if design.startswith("m0lite"):
        prefix = "drdata_"
    elif design == "mult16":
        prefix = "a_"
    else:
        prefix = "a"
    return tuple(idx for name, idx in soa.input_ports.items()
                 if name.startswith(prefix))


def cone(schedule, design, which):
    """``(levels, stepper program)`` of one closed-loop cone."""
    soa = schedule.soa
    if which == "full":
        return soa.levels, soa.row_program()
    if which == "state":
        return schedule._state_levels(), schedule._row_state_prog()
    idxs = (soa.input_ports["clk"],) if which == "clock" \
        else apply_ports(soa, design)
    return soa.subschedule(list(idxs)), schedule._row_apply_prog(idxs)[0]


CASES = [(design, which)
         for design in ("m0lite", "m0lite_cts", "m0lite_scpg", "mult16",
                        "toy")
         for which in ("full", "state", "clock", "apply")]


@pytest.mark.parametrize("design,which", CASES)
@settings(**SETTINGS)
@given(seed=st.integers(0, 2 ** 32 - 1),
       x_rate=st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_fused_program_matches_eval_comb(cores, design, which, seed,
                                         x_rate):
    schedule = schedule_for(cores[design])
    soa = schedule.soa
    levels, prog = cone(schedule, design, which)
    rng = np.random.default_rng(seed)
    row = rng.integers(0, 2, soa.n_nets).astype(np.int8)
    row[rng.random(soa.n_nets) < x_rate] = 2
    expected = row[None, :].copy()
    soa.eval_comb(expected, levels)
    soa.eval_row(row, prog)
    assert np.array_equal(row, expected[0])


class TestProgramShape:
    def test_state_cone_fuses_levels(self, cores):
        schedule = schedule_for(cores["m0lite_cts"])
        levels = schedule._state_levels()
        prog = schedule._row_state_prog()
        assert len(prog) < 0.7 * len(levels)
        outs = np.concatenate([op.out for op in prog])
        gates = np.concatenate([grp.out_idx for level in levels
                                for grp in level])
        assert sorted(outs.tolist()) == sorted(gates.tolist())

    def test_tables_bounded_by_leaf_limit(self, cores):
        for design in ("m0lite", "mult16"):
            for op in schedule_for(cores[design]).soa.row_program():
                width = len(op.weights)
                assert 1 <= width <= FUSE_LEAVES
                assert op.cols.shape == (width, len(op.out))
                assert len(op.table) == 3 ** width * len(op.out)

    def test_wide_cell_keeps_its_own_op(self, cores):
        soa = schedule_for(cores["toy"]).soa
        widths = [len(op.weights) for op in soa.row_program()]
        assert max(widths) == 6

    def test_empty_cone_is_empty_program(self, cores):
        soa = schedule_for(cores["toy"]).soa
        assert soa.pack_levels([]) == []
        row = soa.initial_values()
        before = row.copy()
        soa.eval_row(row, [])
        assert np.array_equal(row, before)
