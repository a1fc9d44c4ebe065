"""Property-based netlist invariants over randomly generated circuits.

A generator builds random gate DAGs (optionally with registers); the
properties assert that every netlist-rewriting path in the library is
behaviour-preserving:

* structural-Verilog round-trips;
* comb/seq split + flatten;
* the fan-out repair pass.

Equivalence is certified by :func:`repro.netlist.equivalence
.check_equivalence` (exhaustive for the small input counts used here).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.flows.synthesis import synthesize
from repro.netlist.core import Design, Module
from repro.netlist.equivalence import check_equivalence
from repro.netlist.stats import module_stats
from repro.netlist.transform import split_combinational
from repro.netlist.validate import validate_module
from repro.netlist.verilog import dumps_verilog, parse_verilog

_GATES = [
    ("INV_X1", ["A"]),
    ("BUF_X1", ["A"]),
    ("NAND2_X1", ["A", "B"]),
    ("NOR2_X1", ["A", "B"]),
    ("AND2_X1", ["A", "B"]),
    ("OR2_X1", ["A", "B"]),
    ("XOR2_X1", ["A", "B"]),
    ("AOI21_X1", ["A", "B", "C"]),
    ("MUX2_X1", ["A", "B", "S"]),
]


def build_random_circuit(lib, seed, n_inputs=5, n_gates=25,
                         clocked=False):
    """A random DAG of gates; deterministic in ``seed``."""
    rng = random.Random(seed)
    module = Module("rand{}".format(seed))
    nets = []
    clk = module.add_input("clk") if clocked else None
    for i in range(n_inputs):
        nets.append(module.add_input("i{}".format(i)))
    if rng.random() < 0.3:
        nets.append(module.const(rng.getrandbits(1)))
    for g in range(n_gates):
        cell_name, pins = rng.choice(_GATES)
        out = module.add_net("g{}".format(g))
        conns = {"Y": out}
        for pin in pins:
            conns[pin] = rng.choice(nets)
        module.add_instance("u{}".format(g), cell_name, conns,
                            library=lib)
        if clocked and rng.random() < 0.2:
            q = module.add_net("q{}".format(g))
            module.add_instance(
                "ff{}".format(g), "DFF_X1",
                {"D": out, "CK": clk, "Q": q}, library=lib)
            nets.append(q)
        nets.append(out)
    # Expose a handful of recent nets as outputs.
    for k, net in enumerate(nets[-4:]):
        if net.is_const:
            continue
        out_port = module.add_output("o{}".format(k))
        module.add_instance(
            "ob{}".format(k), "BUF_X1", {"A": net, "Y": out_port},
            library=lib)
    return module


COMMON = dict(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestGeneratorSanity:
    def test_valid_and_deterministic(self, lib):
        a = build_random_circuit(lib, 7)
        b = build_random_circuit(lib, 7)
        assert validate_module(a).ok
        assert module_stats(a).by_cell == module_stats(b).by_cell


class TestRoundTripProperty:
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_verilog_roundtrip_preserves_function(self, lib, seed):
        golden = build_random_circuit(lib, seed)
        text = dumps_verilog(golden)
        revised = parse_verilog(text, lib).top
        assert check_equivalence(golden, revised), seed

    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_split_flatten_preserves_function(self, lib, seed):
        golden = build_random_circuit(lib, seed, clocked=True)
        split = split_combinational(Design(
            build_random_circuit(lib, seed, clocked=True), lib))
        flat = split.design.flatten()
        # Flattened instance names change; compare behaviour only.
        report = check_equivalence(golden, flat.top, vectors=24,
                                   clock="clk")
        assert report.equivalent, (seed, str(report))


class TestRewriteProperties:
    @settings(**COMMON)
    @given(st.integers(0, 10_000))
    def test_fanout_repair_preserves_function(self, lib, seed):
        golden = build_random_circuit(lib, seed)
        revised = build_random_circuit(lib, seed)
        synthesize(revised, lib, max_fanout=3)  # force lots of buffering
        assert check_equivalence(golden, revised), seed
