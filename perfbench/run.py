"""End-to-end benchmark of record for the SCPG reproduction.

    python3 perfbench/run.py --workload {tables,compare,serve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; ``repro`` is run from ``src/`` there.
Workloads, metrics and the layer map are described in
``perfbench/README.md``.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off);
with ``--trace 1`` the per-layer ones from a separate traced run.  Any
failed or wrong operation makes ``correct`` false and the exit code 1.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")

sys.path.insert(0, SRC)

import checks      # noqa: E402
import serveload   # noqa: E402

#: Set-up repetitions; ``setup_s`` is their median.  A CLI set-up takes
#: about 0.3 s, a serve set-up about 1.7 s.
CLI_SETUP_REPS = 5
SERVE_SETUP_REPS = 3
#: Seconds one command may take before it is killed and counted failed.
COMMAND_TIMEOUT = 150.0
#: Jobs per connection in a traced ``serve`` run (a fixed count, so its
#: work counters repeat exactly).
TRACE_SERVE_JOBS = 150
#: Completed jobs per ``serve`` block; ``wall_s`` is a block's duration.
SERVE_BLOCK = 20
#: The timed ``serve`` window is cut into this many segments, with a speed
#: sample between them (the load pauses for it).
SERVE_SEGMENTS = 6

#: Per-layer metric names and units (``--trace 1``), in report order.
LAYER_METRICS = (
    ("import.self_s", "s"),
    ("circuits.self_s", "s"), ("circuits.elaborate_calls", "count"),
    ("circuits.unique_ratio", "1"),
    ("flows.self_s", "s"), ("flows.step_calls", "count"),
    ("techniques.scpg.transform_s", "s"),
    ("techniques.cbtstc.transform_s", "s"),
    ("techniques.lector.transform_s", "s"),
    ("techniques.sweep_model_s", "s"),
    ("techniques.transform_calls", "count"),
    ("netlist.self_s", "s"), ("netlist.topo_sorts", "count"),
    ("netlist.validations", "count"), ("netlist.lowerings", "count"),
    ("netlist.lower_s", "s"),
    ("isa.cosim_s", "s"), ("isa.self_s", "s"),
    ("isa.cosim_cycles", "count"), ("isa.cycles_per_s", "1/s"),
    ("sim.self_s", "s"), ("sim.stepper_phases", "count"),
    ("sim.run_vectors_s", "s"), ("sim.vectors", "count"),
    ("power.switching_s", "s"), ("power.switching_calls", "count"),
    ("power.leakage_s", "s"), ("power.leakage_calls", "count"),
    ("power.dynamic_s", "s"), ("power.dynamic_calls", "count"),
    ("sta.self_s", "s"), ("sta.runs", "count"),
    ("runner.grids", "count"), ("runner.points", "count"),
    ("runner.cache_hits", "count"), ("runner.cache_misses", "count"),
    ("runner.hit_ratio", "1"), ("runner.artifact_builds", "count"),
    ("runner.artifact_build_s", "s"),
    ("analysis.self_s", "s"),
    ("serve.queue_wait_s.p50", "s"), ("serve.service_s.p50", "s"),
    ("serve.service_s.p90", "s"), ("serve.transport_s.p50", "s"),
    ("serve.store_hit_ratio", "1"),
    ("trace.overhead_pct", "%"),
)
LAYER_UNITS = dict(LAYER_METRICS)
#: Per-layer metrics only a served workload has (0 on the CLI ones).
SERVE_LAYER_METRICS = tuple(n for n, _ in LAYER_METRICS
                            if n.startswith("serve."))

#: Per-layer metrics that are exact work counts: they must repeat
#: between traced passes of one run.
EXACT = tuple(name for name, unit in LAYER_METRICS if unit == "count")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
    "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}


#: The machine-speed reference: seconds one ``ref_loop`` takes on a quiet
#: 2-core x86-64 Linux VM under CPython 3.11.
REF_S = 0.12
#: Objects ``ref_loop`` files in its dict (about 5 MB, more than the L2).
REF_NODES = 40_000


class _Node:
    __slots__ = ("index", "name", "fanout")

    def __init__(self, index):
        self.index = index
        self.name = "n{}".format(index)
        self.fanout = []


def ref_loop(order):
    """Seconds of a fixed pure-Python workload, the median of 3 tries.

    Half of it is integer arithmetic; half builds a dict of small objects
    and looks them up in the shuffled ``order`` (twice ``REF_NODES``
    indices), the allocation- and cache-bound work most of ``repro``
    does.  When the host slows, the first part slows less than ``repro``
    and the second part more, so the sum tracks it best.  The collector
    is off meanwhile: its passes would walk this process's own heap,
    which grows with the jobs a ``serve`` run has recorded.
    """
    gc.disable()
    try:
        return statistics.median(_ref_try(order) for _ in range(3))
    finally:
        gc.enable()


def _ref_try(order):
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    nodes = {}
    for i in order[:REF_NODES]:
        node = _Node(i)
        nodes[node.name] = node
    for i in order:
        node = nodes.get("n{}".format(i))
        if node is not None:
            node.fanout.append(i)
    return time.perf_counter() - start


class Speed:
    """Scales timings to the reference machine speed.

    A VM that shares its cores with other tenants (the 2-core box this
    benchmark was built on is one) changes speed by up to 1.7x from one
    minute to the next, though not every program by the same amount.
    So each measured span is bracketed by two ``ref_loop`` samples, and
    its seconds are multiplied by ``REF_S`` over their mean: a change to
    ``repro`` still moves the scaled figure in full, a slow minute of the
    host much less.  The raw figures are printed as well.
    """

    def __init__(self):
        self.order = list(range(2 * REF_NODES))
        random.Random(0).shuffle(self.order)
        self.samples = [ref_loop(self.order)]

    def factor(self):
        """Factor for the span since the previous call (or creation)."""
        self.samples.append(ref_loop(self.order))
        return REF_S / statistics.mean(self.samples[-2:])


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(num, den):
    return num / den if den else 0.0


class Bench:
    """State of one benchmark run: temp area, child env, op tallies."""

    def __init__(self, seed):
        self.seed = seed
        os.environ.pop("REPRO_CACHE_DIR", None)
        base = os.path.join(ROOT, ".perfbench-tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("REPRO_CACHE_DIR", "PYTHONPATH")}
        self.env.update(PYTHONPATH=SRC, TMPDIR=self.tmp)
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._serial = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def path(self, name):
        """A fresh path under this run's temp area."""
        self._serial += 1
        return os.path.join(self.tmp, "{:04d}-{}".format(self._serial,
                                                          name))

    def tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED: " + what)

    def spawn(self, args, trace_out=None):
        """Run one ``repro`` command in a fresh process.

        Returns ``(seconds, exit code, stdout, peak RSS in KB)``.  With
        ``trace_out`` the command runs under the traced launcher, which
        writes its layer aggregates there.
        """
        out_path = self.path("stdout")
        with open(out_path, "wb") as out, \
                open(self.path("stderr"), "wb") as err:
            spawned = time.time()
            start = time.perf_counter()
            proc = subprocess.Popen(
                launcher(trace_out, spawned) + args, env=self.env,
                cwd=ROOT, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            stdout = f.read()
        return seconds, proc.returncode, stdout, usage.ru_maxrss


def launcher(trace_out=None, spawned=None):
    """argv prefix running the ``repro`` CLI, traced or not."""
    if trace_out is None:
        return [sys.executable, "-m", "repro"]
    return [sys.executable, TRACER, trace_out, repr(spawned)]


def warm_imports(bench):
    """Set-up for the CLI workloads: byte-compile ``src`` (a no-op once
    the ``.pyc`` files exist) and start one interpreter that imports the
    CLI, so the first timed command finds warm caches.  Returns seconds."""
    start = time.perf_counter()
    for argv in ([sys.executable, "-m", "compileall", "-q", SRC],
                 [sys.executable, "-c", "import repro.cli"]):
        subprocess.run(argv, env=bench.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# -- CLI workloads -------------------------------------------------------------

class CliWorkload:
    """A fixed list of ``repro`` commands, each in a fresh process.

    One pass over the list regenerates the workload's artefacts once and
    is one job; every command's output is checked.
    """

    def __init__(self, bench, expected):
        self.bench = bench
        self.expected = expected
        self.tables = {}          # Table I/II rows of the latest pass

    def commands(self):
        raise NotImplementedError

    def run_pass(self, traced=False):
        """Returns ``(seconds, peak RSS KB, [trace dict per command])``."""
        total = 0.0
        peak = 0
        traces = []
        for args, check, what in self.commands():
            trace_out = self.bench.path("trace.json") if traced else None
            seconds, code, stdout, rss = self.bench.spawn(args, trace_out)
            total += seconds
            peak = max(peak, rss)
            ok = code == 0 and check(stdout)
            self.bench.tally(ok, "{} (exit {})".format(what, code))
            if traced and ok:
                with open(trace_out) as f:
                    traces.append(json.load(f))
        return total, peak, traces


class TablesWorkload(CliWorkload):
    def commands(self):
        return [(["table", str(w)], self._checker(w), "table {}".format(w))
                for w in (1, 2)]

    def _checker(self, which):
        def check(stdout):
            self.tables[which] = checks.table_rows(stdout)
            return self.expected.table_ok(which, stdout)
        return check

    def paper_error_pct(self):
        return checks.paper_error_pct(self.tables)


class CompareWorkload(CliWorkload):
    def commands(self):
        out = []
        for design in ("mult16", "m0lite"):
            path = self.bench.path("compare_{}.json".format(design))
            out.append((["compare", design, "--json", path],
                        self._checker(design, path),
                        "compare {}".format(design)))
        return out

    def _checker(self, design, path):
        return lambda stdout: self.expected.compare_ok(design, path)


CLI_WORKLOADS = {"tables": TablesWorkload, "compare": CompareWorkload}


def cli_timed(bench, name, seconds):
    speed = Speed()
    setup, raw = [], []
    for _ in range(CLI_SETUP_REPS):
        raw.append(warm_imports(bench))
        setup.append(raw[-1] * speed.factor())
    workload = CLI_WORKLOADS[name](bench, checks.Expected(ROOT))
    passes = []
    peak = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, rss, _ = workload.run_pass()
        raw.append(wall)
        passes.append(wall * speed.factor())
        peak = max(peak, rss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "job_s.p50": statistics.median(passes),
        "job_s.p90": p90(passes),
        "jobs_per_s": len(passes) / sum(passes),
        "peak_rss_mb": peak / 1024.0,
    }
    extra = {"samples": len(passes), "raw_setup_s": raw[:CLI_SETUP_REPS],
             "raw_pass_s": raw[CLI_SETUP_REPS:], "ref_s": speed.samples}
    if name == "tables" and bench.failed == 0:
        extra["paper_err_pct"] = workload.paper_error_pct()
        if extra["paper_err_pct"] != workload.expected.paper_error_pct:
            bench.tally(False, "paper_err_pct differs from EXPERIMENTS.md")
    return metrics, extra


def cli_traced(bench, name, seconds):
    """Alternate untraced and traced passes; per-layer numbers are the
    median over traced passes, exact counts must agree between them."""
    warm_imports(bench)
    workload = CLI_WORKLOADS[name](bench, checks.Expected(ROOT))
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(workload.run_pass()[0])
        wall, _, traces = workload.run_pass(traced=True)
        traced.append(wall)
        layer_runs.append(layer_metrics(traces))
    metrics = combine_layer_runs(bench, layer_runs)
    metrics.update({name: 0.0 for name in SERVE_LAYER_METRICS})
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    return metrics, {"samples": len(traced)}


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(traces):
    """Per-layer metrics of one pass from the tracer's per-process dumps."""
    layers, spans, counters = {}, {}, {}
    distinct = 0
    import_s = 0.0
    for trace in traces:
        import_s += trace["import_s"]
        distinct += trace["distinct_designs"]
        for k, v in trace["layers"].items():
            layers[k] = layers.get(k, 0.0) + v
        for k, v in trace["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in trace["spans"].items():
            span = spans.setdefault(k, {"calls": 0, "total_s": 0.0})
            span["calls"] += v["calls"]
            span["total_s"] += v["total_s"]

    def calls(*keys):
        return sum(spans.get(k, {}).get("calls", 0) for k in keys)

    def total(*keys):
        return sum(spans.get(k, {}).get("total_s", 0.0) for k in keys)

    def self_s(layer):
        return layers.get(layer, 0.0)

    elaborations = counters.get("circuits.elaborate_calls", 0)
    cycles = counters.get("isa.cosim_cycles", 0)
    cosim = total("isa.trace:GateLevelCpu.run")
    hits = counters.get("runner.cache_hits", 0)
    misses = counters.get("runner.cache_misses", 0)
    transforms = ("scpg.transform:_apply_scpg",
                  "techniques.cbtstc:CbtstcTechnique.transform",
                  "techniques.lector:LectorTechnique.transform")
    phases = ("sim.compiled:ClosedLoopStepper." + p
              for p in ("apply", "posedge", "negedge"))
    return {
        "import.self_s": import_s,
        "circuits.self_s": self_s("circuits"),
        "circuits.elaborate_calls": elaborations,
        "circuits.unique_ratio": ratio(distinct, elaborations),
        "flows.self_s": self_s("flows"),
        "flows.step_calls": calls(
            "flows.synthesis:synthesize", "flows.floorplan:plan_design",
            "flows.cts:synthesize_clock_tree",
            "flows.route:estimate_routing"),
        "techniques.scpg.transform_s": total(transforms[0]),
        "techniques.cbtstc.transform_s": total(transforms[1]),
        "techniques.lector.transform_s": total(transforms[2]),
        "techniques.sweep_model_s": total(
            "techniques.scpg:ScpgTechnique.sweep_model",
            "techniques.cbtstc:CbtstcTechnique.sweep_model",
            "techniques.lector:LectorTechnique.sweep_model"),
        "techniques.transform_calls": calls(*transforms),
        "netlist.self_s": self_s("netlist"),
        "netlist.topo_sorts": calls("netlist.traverse:topological_instances"),
        "netlist.validations": calls("netlist.validate:validate_module"),
        "netlist.lowerings": calls("netlist.soa:lower_soa"),
        "netlist.lower_s": total("netlist.soa:lower_soa"),
        "isa.cosim_s": cosim,
        "isa.self_s": self_s("isa"),
        "isa.cosim_cycles": cycles,
        "isa.cycles_per_s": ratio(cycles, cosim),
        "sim.self_s": self_s("sim"),
        "sim.stepper_phases": calls(*phases),
        "sim.run_vectors_s": total(
            "sim.compiled:CompiledSchedule.run_vectors"),
        "sim.vectors": counters.get("sim.vectors", 0),
        "power.switching_s": total(
            "power.probabilistic:vectorless_switching"),
        "power.switching_calls": calls(
            "power.probabilistic:vectorless_switching"),
        "power.leakage_s": total("power.leakage:leakage_power"),
        "power.leakage_calls": calls("power.leakage:leakage_power"),
        "power.dynamic_s": total("power.dynamic:dynamic_power"),
        "power.dynamic_calls": calls("power.dynamic:dynamic_power"),
        "sta.self_s": self_s("sta"),
        "sta.runs": calls("sta.analysis:TimingAnalysis.run"),
        "runner.grids": calls("runner.core:evaluate_grid"),
        "runner.points": counters.get("runner.points", 0),
        "runner.cache_hits": hits,
        "runner.cache_misses": misses,
        "runner.hit_ratio": ratio(hits, hits + misses),
        "runner.artifact_builds": calls(
            "runner.artifacts:CircuitArtifacts.build"),
        "runner.artifact_build_s": total(
            "runner.artifacts:CircuitArtifacts.build"),
        "analysis.self_s": self_s("analysis"),
    }


def combine_layer_runs(bench, runs):
    """Median of each timed metric over traced passes; exact counts must
    be identical in every pass."""
    if not runs:
        return {}
    out = {}
    varied = []
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name in EXACT and len(set(values)) > 1:
            varied.append("{}={}".format(name, values))
        out[name] = statistics.median(values)
    bench.tally(not varied, "counts varied between traced passes: "
                + ", ".join(varied))
    return out


# -- serve workload --------------------------------------------------------------

def serve_setup(bench, traced=False):
    """Start a server on a fresh store and run the warm-up jobs.
    Returns ``(server, seconds, trace path)``."""
    trace_out = bench.path("trace.json") if traced else None
    start = time.perf_counter()
    server = serveload.Server(launcher(trace_out, time.time()), bench.env,
                              bench.path("serve"), ROOT)
    bench.tally(serveload.warm_up(server), "serve warm-up jobs")
    return server, time.perf_counter() - start, trace_out


def serve_finish(bench, server, records):
    """Stop the server and check the jobs; returns the server's job
    statuses for ``records``."""
    statuses = server.statuses()
    code = server.stop()
    bench.tally(code == 0, "repro serve exit {}".format(code))
    for record in records:
        bench.tally(record.result is not None,
                    "serve job {} {}".format(record.job_id, record.spec))
    golden = {"mult16": checks.golden_compare(ROOT, "mult16")}
    for record in serveload.check_compares(records, golden):
        bench.tally(False, "served compare {} differs".format(
            record.spec["design"]))
    wrong = serveload.check_sweeps(records, bench.seed)
    bench.tally(not wrong, "{} served sweeps differ from offline".format(
        len(wrong)))
    return [statuses[r.job_id] for r in records if r.job_id in statuses]


def serve_timed(bench, seconds):
    """Set up ``SERVE_SETUP_REPS`` servers, then drive the last one for
    ``seconds`` in ``SERVE_SEGMENTS`` segments, each bracketed by speed
    samples.  ``peak_rss_mb`` is the median over the set-up-only servers:
    the measured server's peak also grows with the jobs it retains, which
    depends on how fast the host ran (it is printed raw)."""
    speed = Speed()
    setup, raw_setup, setup_rss = [], [], []
    server = None
    for _ in range(SERVE_SETUP_REPS):
        if server is not None:
            code = server.stop()
            bench.tally(code == 0, "repro serve exit {}".format(code))
            setup_rss.append(server.maxrss_kb / 1024.0)
        server, elapsed, _ = serve_setup(bench)
        raw_setup.append(elapsed)
        setup.append(elapsed * speed.factor())
    load = serveload.Load(bench.seed)
    records, latencies, blocks = [], [], []
    window = raw_window = 0.0
    try:
        for _ in range(SERVE_SEGMENTS):
            segment, wall = load.drive(server, seconds / SERVE_SEGMENTS)
            factor = speed.factor()
            records += segment
            raw_window += wall
            window += wall * factor
            latencies += [r.seconds * factor for r in segment]
            done = sorted(r.done_at for r in segment)
            blocks += [(done[i + SERVE_BLOCK - 1] - done[i - 1]) * factor
                       for i in range(1, len(done) - SERVE_BLOCK + 1,
                                      SERVE_BLOCK)]
    finally:
        serve_finish(bench, server, records)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(blocks),
        "job_s.p50": statistics.median(latencies),
        "job_s.p90": p90(latencies),
        "jobs_per_s": len(records) / window,
        "peak_rss_mb": statistics.median(setup_rss),
    }
    raw = {"setup_s": raw_setup, "jobs_per_s": len(records) / raw_window,
           "job_s.p50": statistics.median(r.seconds for r in records),
           "measured_server_peak_rss_mb": server.maxrss_kb / 1024.0}
    return metrics, {"samples": len(records), "blocks": len(blocks),
                     "raw": raw, "ref_s": speed.samples}


def serve_traced(bench, seconds):
    """An untraced and a traced server, each driven through the same
    fixed job count; ``seconds`` is unused (the job count bounds it)."""
    walls = []
    for traced in (False, True):
        server, _, trace_out = serve_setup(bench, traced)
        records = []
        try:
            records, wall = serveload.Load(bench.seed).drive(
                server, jobs=TRACE_SERVE_JOBS)
        finally:
            statuses = serve_finish(bench, server, records)
        walls.append(wall)
    with open(trace_out) as f:
        metrics = layer_metrics([json.load(f)])
    by_id = {s["id"]: s for s in statuses}
    queue = [s["started"] - s["submitted"] for s in statuses]
    service = [s["finished"] - s["started"] for s in statuses]
    transport = [r.seconds - (by_id[r.job_id]["finished"]
                              - by_id[r.job_id]["submitted"])
                 for r in records if r.job_id in by_id]
    hits = sum(s["cache_hits"] for s in statuses)
    lookups = hits + sum(s["cache_misses"] for s in statuses)
    metrics.update({
        "serve.queue_wait_s.p50": statistics.median(queue),
        "serve.service_s.p50": statistics.median(service),
        "serve.service_s.p90": p90(service),
        "serve.transport_s.p50": statistics.median(transport),
        "serve.store_hit_ratio": ratio(hits, lookups),
        "trace.overhead_pct": 100.0 * (walls[1] / walls[0] - 1.0),
    })
    return metrics, {"samples": len(records)}


# -- driver ------------------------------------------------------------------------

def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def environment(seed):
    """What produced a result: source, interpreter, numpy, cores, seed."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    return {"commit": commit, "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "compare", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print("error: no repro sources under {}; run from the root of a "
              "checkout".format(SRC), file=sys.stderr)
        return 2

    bench = Bench(args.seed)
    try:
        if args.workload == "serve":
            run = serve_traced if args.trace else serve_timed
            metrics, extra = run(bench, args.seconds)
        else:
            run = cli_traced if args.trace else cli_timed
            metrics, extra = run(bench, args.workload, args.seconds)
    finally:
        bench.close()
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    extra["failed_ratio"] = ratio(bench.failed, bench.attempted)
    extra["env"] = environment(args.seed)
    for note in bench.notes:
        print(note)
    shown = [(name, value, units[name]) for name, value in metrics.items()]
    # Correctness figures: printed by name, kept out of the result object.
    shown += [(name, extra[name], unit) for name, unit in
              (("failed_ratio", "1"), ("paper_err_pct", "%")) if name in extra]
    for name, value, unit in shown:
        print("{:<32} {:>14.6g} {}".format(name, value, unit))
    print(json.dumps(extra, sort_keys=True))
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
