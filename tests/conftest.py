"""Shared fixtures for the test suite.

Heavy artefacts (the library, generated circuits, case studies) are
session-scoped; tests that need to *mutate* a netlist build their own via
the factory fixtures.
"""

import pytest
from hypothesis import settings

from repro.circuits.m0lite import build_m0lite

# Gate-level simulation makes single examples legitimately slow, and the
# sandbox shares one CPU core -- wall-clock deadlines would only add
# flakiness, so disable them for every property test.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
from repro.circuits.multiplier import build_mult16
from repro.netlist.core import Design, Module
from repro.tech.scl90 import build_scl90


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden files under tests/golden/data/ from "
        "the current outputs instead of comparing against them")


@pytest.fixture(scope="session")
def lib():
    """The scl90 library (read-only)."""
    return build_scl90()


@pytest.fixture(scope="session")
def mult_module(lib):
    """A generated 16-bit multiplier (treat as read-only)."""
    return build_mult16(lib)


@pytest.fixture(scope="session")
def m0_module(lib):
    """A generated M0-lite core (treat as read-only)."""
    return build_m0lite(lib)


@pytest.fixture()
def fresh_mult(lib):
    """A private multiplier instance tests may mutate."""
    return build_mult16(lib)


def _toy(lib, registered=True):
    """clk -> [NAND2 -> DFF -> INV] toy design."""
    m = Module("toy")
    clk = m.add_input("clk")
    a = m.add_input("a")
    b = m.add_input("b")
    y = m.add_output("y")
    n1 = m.add_net("n1")
    q = m.add_net("q")
    m.add_instance("g1", "NAND2_X1", {"A": a, "B": b, "Y": n1}, library=lib)
    if registered:
        m.add_instance("ff", "DFF_X1", {"D": n1, "CK": clk, "Q": q},
                       library=lib)
        m.add_instance("g2", "INV_X1", {"A": q, "Y": y}, library=lib)
    else:
        m.add_instance("g2", "INV_X1", {"A": n1, "Y": y}, library=lib)
    return Design(m, lib)


@pytest.fixture()
def toy_design(lib):
    """A tiny registered design tests may mutate."""
    return _toy(lib)


@pytest.fixture(scope="session")
def study_session(lib):
    """The hermetic session that owns the shared case studies."""
    from repro.session import Session

    s = Session(library=lib, cache=None)
    yield s
    s.close()


@pytest.fixture(scope="session")
def mult_study(study_session):
    """The full multiplier case study (fast mode, shared)."""
    return study_session.study("mult16", fast=True)


@pytest.fixture(scope="session")
def m0_study(study_session):
    """The full M0-lite case study (fast mode, shared)."""
    return study_session.study("m0lite", fast=True)
