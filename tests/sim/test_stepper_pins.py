"""Stepper-vs-event lockstep over every flop pin kind.

The case-study cores sample through enable (``DFFE_X1``) and async-reset
(``DFFR_X1``) flops, and a post-CTS clock reaches flops through
inverters.  Here one toy holds all of them; the closed-loop stepper and
the batched replay must match the event simulator exactly, phase by
phase, with X driven on EN and RN and from an unforced (all-X) start.
"""

import random

import numpy as np

from repro.netlist.core import Module
from repro.sim.compiled import schedule_for
from repro.sim.logic import X

from .test_compiled import differential
from .test_stepper import event_state_row, lockstep


def build_pin_kinds(lib):
    """``ffe`` (EN), ``ffr`` (RN) and ``ffp`` (plain) on ``clk``;
    ``ffn`` on ``clk`` through an inverter (a falling-edge flop)."""
    m = Module("pinkinds")
    clk = m.add_input("clk")
    d = m.add_input("d")
    en = m.add_input("en")
    rn = m.add_input("rn")
    ckb = m.add_net("ckb")
    qe, qr, qn, qp, nx = (m.add_net(n) for n in ("qe", "qr", "qn", "qp",
                                                 "nx"))
    y = m.add_output("y")
    m.add_instance("gck", "INV_X1", {"A": clk, "Y": ckb}, library=lib)
    m.add_instance("ffe", "DFFE_X1", {"D": d, "EN": en, "CK": clk,
                                      "Q": qe}, library=lib)
    m.add_instance("ffr", "DFFR_X1", {"D": qe, "RN": rn, "CK": clk,
                                      "Q": qr}, library=lib)
    m.add_instance("gx", "XOR2_X1", {"A": qe, "B": qr, "Y": nx},
                   library=lib)
    m.add_instance("ffn", "DFF_X1", {"D": nx, "CK": ckb, "Q": qn},
                   library=lib)
    m.add_instance("ffp", "DFF_X1", {"D": qn, "CK": clk, "Q": qp},
                   library=lib)
    m.add_instance("gy", "NAND2_X1", {"A": qn, "B": qp, "Y": y},
                   library=lib)
    return m


def scripted_frames():
    """Known values, then X on EN, X on RN, reset, release."""
    return [
        {"d": 1, "en": 1, "rn": 1},
        {"d": 0, "en": 1, "rn": 1},
        {"d": 1, "en": 0, "rn": 1},   # EN low holds
        {"d": 1, "en": X, "rn": 1},   # EN X corrupts the sample
        {"d": 0, "en": 1, "rn": 1},
        {"d": 1, "en": 1, "rn": X},   # RN X dominates
        {"d": 1, "en": 1, "rn": 1},
        {"d": 1, "en": 1, "rn": 0},   # async reset
        {"d": 0, "en": 1, "rn": 0},
        {"d": 1, "en": 1, "rn": 1},
        {"d": 0, "en": X, "rn": X},
        {"d": 1, "en": 1, "rn": 1},
        {"d": 0, "en": 1, "rn": 1},
    ]


def random_frames(seed, count):
    rng = random.Random(seed)
    return [{"d": rng.choice((0, 1, X)), "en": rng.choice((0, 1, 1, X)),
             "rn": rng.choice((0, 1, 1, 1, X))} for _ in range(count)]


class TestPinKinds:
    def test_vector_ready(self, lib):
        """The inverted clock is a pure clock cone, so both compiled
        paths accept the toy."""
        assert schedule_for(build_pin_kinds(lib)).vector_ready() == (True, "")

    def test_lockstep_unforced_start(self, lib):
        lockstep(build_pin_kinds(lib), scripted_frames(), force=False)

    def test_lockstep_forced_start(self, lib):
        lockstep(build_pin_kinds(lib), scripted_frames(), force=True)

    def test_lockstep_random_ternary(self, lib):
        module = build_pin_kinds(lib)
        for seed in range(4):
            lockstep(module, random_frames(seed, 40), force=seed % 2 == 0)

    def test_clock_to_x(self, lib):
        """A clock driven to X (and back) X-es every flop identically on
        both engines."""
        module = build_pin_kinds(lib)
        stepper, sim = lockstep(module, scripted_frames()[:2])
        stepper.apply({"clk": X})
        sim.set_input("clk", X)
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, module))
        assert stepper.flop_q("ffn") == X and stepper.flop_q("ffe") == X
        stepper.apply({"clk": 0})
        sim.set_input("clk", 0)
        assert np.array_equal(stepper.state_row(),
                              event_state_row(sim, module))
        assert stepper.toggle_snapshot() == sim.toggle_snapshot()

    def test_batched_replay(self, lib):
        """The batched fixed-point replay shares the flop lookup."""
        module = build_pin_kinds(lib)
        differential(module, scripted_frames() + random_frames(9, 30),
                     group_size=4)
