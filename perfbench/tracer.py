"""Traced launcher: run one ``repro`` command with its layer boundaries timed.

    python perfbench/tracer.py OUT.json SPAWN_EPOCH repro-args...

Installs an import hook before ``repro`` loads.  As each ``repro.*``
module finishes executing, the boundary functions it defines (the table
below) are replaced by a timing wrapper, and every loaded ``repro.*``
module that bound the original object by name (``from x import f``) is
rebound to the wrapper too, so private entry points such as
``flows.scpg_flow._run_scpg_flow`` are caught at each call site.  Hot
inner calls (``Module.add_instance``, ``eval_row``) are deliberately not
wrapped.  The command then runs through ``repro.cli.main`` and, when it
returns, the aggregates are written to ``OUT.json``:

* ``import_s``: ``SPAWN_EPOCH`` (the parent's clock just before it
  spawned this process) to the call of ``repro.cli.main``;
* ``layers``: self time per layer -- a boundary call's duration minus the
  durations of the boundary calls nested inside it;
* ``spans``: per boundary, its call count and inclusive seconds (nested
  re-entry of the same boundary is counted once);
* ``counters``: work counts read from arguments and results.

Nothing is printed; the command's own stdout and exit code pass through.
"""

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import threading
import time

#: (layer, module, qualified name) of every wrapped boundary function.
BOUNDARIES = (
    ("flows", "repro.flows.scpg_flow", "_run_scpg_flow"),
    ("flows", "repro.flows.traditional", "run_traditional_flow"),
    ("flows", "repro.flows.synthesis", "synthesize"),
    ("flows", "repro.flows.floorplan", "plan_design"),
    ("flows", "repro.flows.cts", "synthesize_clock_tree"),
    ("flows", "repro.flows.route", "estimate_routing"),
    ("techniques", "repro.scpg.transform", "_apply_scpg"),
    ("techniques", "repro.techniques.cbtstc", "CbtstcTechnique.transform"),
    ("techniques", "repro.techniques.lector", "LectorTechnique.transform"),
    ("techniques", "repro.techniques.scpg", "ScpgTechnique.sweep_model"),
    ("techniques", "repro.techniques.cbtstc",
     "CbtstcTechnique.sweep_model"),
    ("techniques", "repro.techniques.lector", "LectorTechnique.sweep_model"),
    ("techniques", "repro.techniques.compare", "run_comparison"),
    ("netlist", "repro.netlist.traverse", "topological_instances"),
    ("netlist", "repro.netlist.validate", "validate_module"),
    ("netlist", "repro.netlist.soa", "lower_soa"),
    ("netlist", "repro.netlist.soa", "lower_leakage"),
    ("netlist", "repro.netlist.core", "Design.flatten"),
    ("isa", "repro.isa.trace", "GateLevelCpu.run"),
    ("sim", "repro.sim.compiled", "compile_schedule"),
    ("sim", "repro.sim.compiled", "CompiledSchedule.run_vectors"),
    ("sim", "repro.sim.compiled", "ClosedLoopStepper.apply"),
    ("sim", "repro.sim.compiled", "ClosedLoopStepper.posedge"),
    ("sim", "repro.sim.compiled", "ClosedLoopStepper.negedge"),
    ("power", "repro.power.probabilistic", "vectorless_switching"),
    ("power", "repro.power.leakage", "leakage_power"),
    ("power", "repro.power.dynamic", "dynamic_power"),
    ("sta", "repro.sta.analysis", "TimingAnalysis.run"),
    ("runner", "repro.runner.core", "evaluate_grid"),
    ("runner", "repro.runner.artifacts", "CircuitArtifacts.build"),
    ("analysis", "repro.analysis.tables", "build_table"),
    ("analysis", "repro.analysis.tables", "format_table"),
    ("analysis", "repro.analysis.sweep", "sweep"),
)


def _after_cpu_run(trace, token, args, kwargs, result):
    trace.count("isa.cosim_cycles", result)


def _after_run_vectors(trace, token, args, kwargs, result):
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    trace.count("sim.vectors", len(vectors))


def _before_grid(args, kwargs):
    stats = kwargs.get("stats")
    if stats is None:
        return None
    return stats, stats.cache_hits, stats.cache_misses


def _after_grid(trace, token, args, kwargs, result):
    trace.count("runner.points", len(result))
    if token is not None:
        stats, hits, misses = token
        trace.count("runner.cache_hits", stats.cache_hits - hits)
        trace.count("runner.cache_misses", stats.cache_misses - misses)


#: Extra counters per boundary: (before(args, kwargs) -> token,
#: after(trace, token, args, kwargs, result)).
_HOOKS = {
    "isa.trace:GateLevelCpu.run": (None, _after_cpu_run),
    "sim.compiled:CompiledSchedule.run_vectors": (None, _after_run_vectors),
    "runner.core:evaluate_grid": (_before_grid, _after_grid),
}


class Trace:
    """Aggregates of one traced process, filled by the wrappers.

    The server runs jobs on a worker thread, so each thread keeps its own
    stack of open boundary calls and the totals are updated under a lock.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.layers = {}
        self.spans = {}
        self.counters = {}
        self.elaborated = set()
        self.originals = {}      # id(original) -> (original, wrapper)

    def count(self, name, n=1):
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _record(self, key, layer, elapsed, self_s, outermost):
        with self.lock:
            self.layers[layer] = self.layers.get(layer, 0.0) + self_s
            span = self.spans.setdefault(key, {"calls": 0, "total_s": 0.0})
            span["calls"] += 1
            if outermost:
                span["total_s"] += elapsed

    def wrap(self, fn, key, layer):
        """``fn`` timed as boundary ``key`` of ``layer``."""
        before, after = _HOOKS.get(key, (None, None))
        clock = time.perf_counter
        local = self.local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            token = before(args, kwargs) if before is not None else None
            outermost = all(frame[0] != key for frame in stack)
            frame = [key, 0.0]        # [boundary, seconds in nested ones]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._record(key, layer, elapsed, elapsed - frame[1],
                             outermost)
            if after is not None:
                after(self, token, args, kwargs, result)
            return result

        return wrapper

    def wrap_builder(self, fam):
        """Time a generator family's builder: one call, one elaboration."""
        inner = self.wrap(fam.builder, "circuits.generators:" + fam.name,
                          "circuits")

        @functools.wraps(fam.builder)
        def builder(library, **params):
            self.count("circuits.elaborate_calls")
            with self.lock:
                self.elaborated.add((fam.name,
                                     tuple(sorted(params.items()))))
            return inner(library, **params)

        fam.builder = builder

    def install(self, module):
        """Wrap the boundaries ``module`` defines; True if any were."""
        wrapped = False
        for layer, modname, qualname in BOUNDARIES:
            if modname != module.__name__:
                continue
            owner = module
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name]
            kind = type(raw) \
                if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            key = "{}:{}".format(modname[len("repro."):], qualname)
            wrapper = self.wrap(fn, key, layer)
            setattr(owner, name, kind(wrapper) if kind else wrapper)
            self.originals[id(fn)] = (fn, wrapper)
            wrapped = True
        if module.__name__ == "repro.circuits.generators":
            for name in module.available_families():
                self.wrap_builder(module.family(name))
        return wrapped

    def rebind(self, modules):
        """Point every by-name binding of an original at its wrapper."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self.originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def on_import(self, module):
        if self.install(module):
            self.rebind([m for name, m in list(sys.modules.items())
                         if m is not None and _is_repro(name)])
        else:
            self.rebind([module])

    def dump(self, path, import_s, wall_s):
        with self.lock:
            data = {
                "import_s": import_s,
                "wall_s": wall_s,
                "layers": dict(self.layers),
                "spans": {k: dict(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "distinct_designs": len(self.elaborated),
            }
        with open(path, "w") as f:
            json.dump(data, f, sort_keys=True)


def _is_repro(name):
    return name == "repro" or name.startswith("repro.")


class _Finder(importlib.abc.MetaPathFinder):
    """Finds ``repro.*`` like the path finder, then hooks execution."""

    def __init__(self, trace):
        self.trace = trace

    def find_spec(self, name, path, target=None):
        if not _is_repro(name):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        loader = getattr(spec, "loader", None)
        if loader is not None and hasattr(loader, "exec_module"):
            run = loader.exec_module

            def exec_module(module):
                run(module)
                self.trace.on_import(module)

            loader.exec_module = exec_module
        return spec


def main():
    out, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    trace = Trace()
    sys.meta_path.insert(0, _Finder(trace))
    from repro.cli import main as repro_main

    entered = time.time()
    try:
        return repro_main(argv)
    finally:
        trace.dump(out, entered - spawned, time.time() - spawned)


if __name__ == "__main__":
    sys.exit(main())
