"""Repo-wide API lint: one front door, and no second spellings.

* The deprecated spellings are gone, not just unused: the Kernel API
  (``repro.runner.kernel``) replaced ``ScpgPowerModel.power_axis`` /
  ``power_points``, ``SubvtModel.points_axis`` and the ``batch_fn=``
  keyword; the technique registry (``repro.techniques``) replaced
  ``apply_scpg`` and ``run_scpg_flow``; ``Session.study`` replaced the
  top-level ``multiplier_study`` / ``cortex_m0_study``.  The test-only
  subsystems ``repro.flows.optimize``, ``repro.sim.saif`` and
  ``repro.sim.vcd`` are gone too.
* The case studies have one front door: only ``repro.session`` imports
  ``repro.paper`` (tests may, for its private helpers).
* Product code reaches circuits through the design database.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: ``(module[:class], attribute)`` pairs that must no longer exist.
REMOVED_ATTRIBUTES = (
    ("repro.scpg.power_model:ScpgPowerModel", "power_axis"),
    ("repro.scpg.power_model:ScpgPowerModel", "power_points"),
    ("repro.subvt.energy:SubvtModel", "points_axis"),
    ("repro.scpg.transform", "apply_scpg"),
    ("repro.scpg", "apply_scpg"),
    ("repro", "apply_scpg"),
    ("repro.flows.scpg_flow", "run_scpg_flow"),
    ("repro.flows", "run_scpg_flow"),
    ("repro", "multiplier_study"),
    ("repro", "cortex_m0_study"),
    ("repro.cli", "_resolve_design"),
    ("repro.sim.testbench:ClockedTestbench", "reset_flops"),
)

REMOVED_MODULES = ("repro.flows.optimize", "repro.sim.saif",
                   "repro.sim.vcd")


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _short(owner, attr):
    return "{}.{}".format(owner.rpartition(":")[2], attr)


class TestRemovedNamesAreGone:
    @pytest.mark.parametrize(
        "owner, attr", REMOVED_ATTRIBUTES,
        ids=[_short(owner, attr) for owner, attr in REMOVED_ATTRIBUTES])
    def test_gone(self, owner, attr):
        assert not hasattr(_resolve(owner), attr)

    @pytest.mark.parametrize("name", ("evaluate_grid", "Runner.run"))
    def test_no_batch_fn_parameter(self, name):
        fn = importlib.import_module("repro.runner.core")
        for part in name.split("."):
            fn = getattr(fn, part)
        params = inspect.signature(fn).parameters
        assert "kernel" in params
        assert "batch_fn" not in params

    @pytest.mark.parametrize("name", REMOVED_MODULES)
    def test_module_gone(self, name):
        with pytest.raises(ImportError):
            importlib.import_module(name)


#: Any import of ``repro.paper``: absolute, relative, or as a submodule.
PAPER_IMPORT = re.compile(
    r"^\s*(?:from\s+(?:repro\.|\.+)paper\b"
    r"|from\s+(?:repro|\.+)\s+import\s+[^#\n]*\bpaper\b"
    r"|import\s+repro\.paper\b)", re.M)
PAPER_SCAN_DIRS = ("src", "benchmarks", "scripts", "examples")
PAPER_ALLOWED = "src/repro/session.py"


class TestStudiesBehindTheSession:
    def _sources(self):
        for top in PAPER_SCAN_DIRS:
            yield from sorted((REPO / top).rglob("*.py"))

    def test_scan_finds_the_sources(self):
        files = list(self._sources())
        assert len(files) > 50  # the scan really walked the tree
        session = (REPO / PAPER_ALLOWED).read_text()
        assert PAPER_IMPORT.search(session)  # the pattern really matches

    def test_only_the_session_imports_paper(self):
        offenders = [
            path.relative_to(REPO).as_posix()
            for path in self._sources()
            if path.relative_to(REPO).as_posix() != PAPER_ALLOWED
            and PAPER_IMPORT.search(path.read_text())]
        assert not offenders, (
            "reach the case studies through Session.study, not "
            "repro.paper: {}".format(", ".join(offenders)))


#: The pre-database circuit constructors.  Product code goes through the
#: design database (``repro.circuits.registry`` / ``generators``) so
#: elaborations stay keyed, validated and memoised; only the circuits
#: package itself (the implementations and the family adapters) may call
#: the builders directly.  Tests are exempt -- unit-testing a builder is
#: legitimate.
LEGACY_BUILDERS = ("build_mult16", "build_m0lite", "build_counter",
                   "build_lfsr")
LEGACY_PATTERN = re.compile(
    r"(\bimport\s+[^\n]*\b(?:{0})\b|\b(?:{0})\s*\()".format(
        "|".join(LEGACY_BUILDERS)))
LEGACY_SCAN_DIRS = ("src", "benchmarks", "scripts")
LEGACY_ALLOWED_PREFIX = "src/repro/circuits/"


class TestBuildersOnlyInsideDatabase:
    def test_no_direct_builder_use(self):
        offenders = []
        for top in LEGACY_SCAN_DIRS:
            root = REPO / top
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*.py")):
                rel = path.relative_to(REPO).as_posix()
                if rel.startswith(LEGACY_ALLOWED_PREFIX):
                    continue
                for lineno, line in enumerate(
                        path.read_text().splitlines(), 1):
                    if LEGACY_PATTERN.search(line):
                        offenders.append("{}:{}: {}".format(
                            rel, lineno, line.strip()))
        assert not offenders, (
            "legacy circuit builders must be reached through the design "
            "database (registry.build / generators.elaborate):\n"
            + "\n".join(offenders))


class TestGeneratorsDocstrings:
    """Every public symbol of the database module documents itself."""

    def _public_symbols(self):
        import inspect

        import repro.circuits.generators as mod

        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield name, obj
            if inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    # Docstrings attach to callables and properties;
                    # plain class-level data attributes carry theirs in
                    # the class docstring.
                    if not (callable(member)
                            or isinstance(member, (property, classmethod,
                                                   staticmethod))):
                        continue
                    yield "{}.{}".format(name, attr), member

    def test_the_scan_sees_the_api(self):
        names = [name for name, _ in self._public_symbols()]
        for expected in ("DesignKey", "GeneratorFamily", "Param",
                         "register_family", "elaborate",
                         "expand_family"):
            assert expected in names

    def test_every_public_symbol_has_a_docstring(self):
        undocumented = []
        for name, obj in self._public_symbols():
            doc = getattr(obj, "__doc__", None)
            if isinstance(obj, property):
                doc = obj.fget.__doc__
            elif isinstance(obj, (classmethod, staticmethod)):
                doc = obj.__func__.__doc__
            if not (doc or "").strip():
                undocumented.append(name)
        assert not undocumented, (
            "public symbols of repro.circuits.generators without "
            "docstrings: {}".format(", ".join(undocumented)))
