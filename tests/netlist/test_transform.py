"""Comb/seq split (SCPG flow step 1) and buffer insertion."""

import random

import pytest

from repro.errors import NetlistError
from repro.netlist.core import Design
from repro.netlist.stats import module_stats
from repro.netlist.transform import insert_buffer, split_combinational
from repro.netlist.validate import validate_module
from repro.sim.testbench import ClockedTestbench, bus_values, read_bus
from repro.tech.library import CellKind


class TestSplit:
    def test_toy_partition(self, toy_design):
        split = split_combinational(toy_design)
        comb_kinds = {i.cell.kind for i in split.comb.cell_instances()}
        assert CellKind.SEQUENTIAL not in comb_kinds
        top_kinds = {i.cell.kind for i in split.top.cell_instances()}
        assert top_kinds == {CellKind.SEQUENTIAL}

    def test_boundary_sets(self, toy_design):
        split = split_combinational(toy_design)
        assert set(split.boundary_inputs) == {"a", "b", "q"}
        assert set(split.boundary_outputs) == {"n1", "y"}

    def test_ports_preserved(self, toy_design):
        split = split_combinational(toy_design)
        assert [p.name for p in split.top.ports] == \
            [p.name for p in toy_design.top.ports]

    def test_flatten_is_valid(self, toy_design):
        split = split_combinational(toy_design)
        flat = split.design.flatten()
        assert validate_module(flat.top).ok

    def test_cell_population_preserved(self, mult_module, lib):
        design = Design(mult_module, lib)
        split = split_combinational(design)
        flat = split.design.flatten()
        assert module_stats(flat.top).by_cell == \
            module_stats(mult_module).by_cell

    def test_split_multiplier_still_multiplies(self, mult_module, lib):
        design = Design(mult_module, lib)
        split = split_combinational(design)
        flat = split.design.flatten()
        tb = ClockedTestbench(flat.top)
        tb.force_flops()
        rng = random.Random(5)
        prev = None
        for _ in range(20):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            tb.cycle({**bus_values("a", 16, a), **bus_values("b", 16, b)})
            p = read_bus(tb.sim, "p", 32)
            if prev is not None:
                assert p == (prev[0] * prev[1]) & 0xFFFFFFFF
            prev = (a, b)

    def test_requires_flat_input(self, toy_design):
        split = split_combinational(toy_design)
        with pytest.raises(NetlistError, match="flat"):
            split_combinational(split.design)

    def test_ties_move_to_comb_domain(self, lib, toy_design):
        top = toy_design.top
        tie_net = top.add_net("hi")
        top.add_instance("tie", "TIEHI_X1", {"Y": tie_net}, library=lib)
        top.add_instance("g3", "AND2_X1",
                         {"A": tie_net, "B": top.net("q"),
                          "Y": top.add_net("w")}, library=lib)
        split = split_combinational(toy_design)
        assert any(i.cell.kind is CellKind.TIE
                   for i in split.comb.cell_instances())


class TestInsertBuffer:
    def test_moves_instance_loads(self, toy_design, lib):
        top = toy_design.top
        n1 = top.net("n1")
        new = insert_buffer(top, n1, lib.cell("BUF_X2"))
        ff = top.instance("ff")
        assert ff.connections["D"] is new
        buf = top.instance("buf_n1")
        assert buf.connections["A"] is n1
        assert validate_module(top).ok

    def test_rejects_const(self, toy_design, lib):
        with pytest.raises(NetlistError):
            insert_buffer(toy_design.top, toy_design.top.const(1),
                          lib.cell("BUF_X1"))

    def test_rejects_undriven(self, lib, toy_design):
        ghost = toy_design.top.add_net("ghost")
        with pytest.raises(NetlistError):
            insert_buffer(toy_design.top, ghost, lib.cell("BUF_X1"))
