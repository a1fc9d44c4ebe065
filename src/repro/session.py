"""The high-level facade: ``Session(...).design("mult16").sweep(...)``.

A :class:`Session` owns the three things every analysis needs -- a cell
library, an execution :class:`~repro.runner.Runner` (workers + result
cache + stats), and the design registry -- and hands out
:class:`DesignHandle` objects that lazily build netlists, apply SCPG,
derive power models and run sweeps through the shared runner::

    from repro import Session

    session = Session(workers=4, cache="~/.cache/repro")
    handle = session.design("mult16")
    sweep = handle.sweep([1e4, 1e5, 1e6, 5e6])
    print(handle.minimum_energy_point().vdd)
    print(session.stats.render())

The CLI, the examples and the benchmark harness all run through this
facade; the lower-level modules (``repro.analysis``, ``repro.subvt``,
``repro.scpg``) remain importable directly and unchanged in behaviour.
"""

from __future__ import annotations

from .errors import ReproError
from .runner import DEFAULT_BACKOFF, DEFAULT_RETRIES, ResultCache, Runner, \
    WorkerPool, default_cache, module_fingerprint, open_store, \
    resolve_workers, stable_hash


class Session:
    """Shared state for a sequence of experiments.

    Parameters
    ----------
    library:
        A :class:`~repro.tech.library.Library`; defaults to the synthetic
        90nm kit (``build_scl90()``), built lazily.
    liberty:
        Path of a Liberty-lite file to load instead (exclusive with
        ``library``).
    workers:
        Worker processes for grid evaluation: ``None`` serial, ``0`` one
        per core, ``N`` at most N.
    cache:
        Result cache: a :class:`~repro.runner.ResultCache`, a directory
        path, ``None``/``False`` for no caching, or ``"auto"`` (default)
        to honour the ``REPRO_CACHE_DIR`` environment variable.
    store:
        Concurrency-safe persistent store used *instead of* ``cache``: a
        :class:`~repro.runner.SqliteStore` (or any ``ResultCache``-
        shaped object), or the path of an SQLite database file.  One
        WAL-mode file safely shared by many processes and sessions --
        the backend :mod:`repro.serve` runs on, and the way several
        tenants sweeping overlapping grids dedupe each other's work.
        Because ``artifacts=True`` (the default) stores artifact bundles
        through the session's result cache, the store serves both roles.
        Mutually exclusive with an explicit ``cache`` argument.
    journal:
        A :class:`~repro.runner.RunJournal` or a path; every grid the
        session runs appends its JSONL events there (default: none).
    retry_on / retries / backoff / timeout:
        Fault-tolerance policy forwarded to the session's
        :class:`~repro.runner.Runner` -- exception types retried with
        exponential backoff, and an optional per-point timeout.
    artifacts:
        Per-circuit artifact cache (precomputed STA / leakage /
        switching / SCPG tables shared by every analysis of one design):
        ``True`` (default) stores bundles in memory and, when the
        session has a result cache, on disk through it;
        ``False``/``None`` disables precomputation entirely (every
        analysis walks the netlist, the pre-artifact behaviour); a
        directory path or :class:`~repro.runner.ResultCache` stores
        bundles there instead of the result cache (so artifact reuse
        can be controlled separately from point-result reuse).  Results
        are bit-identical either way.
    trace:
        Tracing: ``None``/``False`` (default) leaves the free no-op
        tracer in place; ``True`` traces into an in-memory sink
        (``session.tracer.sinks[0].lines``); a path traces to that JSONL
        file (closed by :meth:`close`); a :class:`~repro.obs.trace.
        Tracer` is used as-is (caller owns its sinks).
    metrics:
        Metrics: ``True`` creates a fresh :class:`~repro.obs.metrics.
        MetricsRegistry`, or pass a registry to share one across
        sessions; default ``None`` records live histograms nowhere (the
        :meth:`metrics` snapshot still works on demand).
    pool:
        Warm worker pool policy for the chunked parallel batch path:
        ``"shared"`` (default) creates one
        :class:`~repro.runner.WorkerPool` lazily reused by every grid
        the session runs, so workers fork once -- after the first power
        model (and its artifact bundle) is built, which the forked
        workers then inherit copy-on-write; ``"fresh"``/``None`` forks
        an ephemeral pool per grid (the pre-pool behaviour); a
        :class:`~repro.runner.WorkerPool` is used as-is (caller owns
        and closes it).  Irrelevant unless ``workers`` enables
        parallelism.
    chunk_size:
        Points per chunk on the chunked parallel path (default: adaptive
        ``pending / (4 * workers)``, clamped).
    """

    def __init__(self, library=None, liberty=None, workers=None,
                 cache="auto", store=None, journal=None, retry_on=(),
                 retries=DEFAULT_RETRIES, backoff=DEFAULT_BACKOFF,
                 timeout=None, artifacts=True, trace=None, metrics=None,
                 pool="shared", chunk_size=None):
        if library is not None and liberty is not None:
            raise ValueError("pass either library or liberty, not both")
        self._library = library
        self._liberty = liberty
        if store is not None:
            if cache != "auto":
                raise ValueError(
                    "pass either store or cache, not both")
            cache = open_store(store)
        elif cache == "auto":
            cache = default_cache()
        elif cache is False:
            cache = None
        elif isinstance(cache, str):
            import os

            cache = ResultCache(os.path.expanduser(cache))
        tracer, self._owns_tracer = self._make_tracer(trace)
        self._registry = self._make_registry(metrics)
        self.pool, self._owns_pool = self._make_pool(pool, workers)
        self.runner = Runner(workers=workers, cache=cache,
                             retry_on=retry_on, retries=retries,
                             backoff=backoff, timeout=timeout,
                             journal=journal, tracer=tracer,
                             metrics=self._registry, pool=self.pool,
                             chunk_size=chunk_size)
        self.artifacts = self._artifact_store(artifacts)
        self._studies = {}

    @staticmethod
    def _make_tracer(trace):
        """``(tracer, owned)`` for the ``trace=`` constructor argument."""
        if trace is None or trace is False:
            return None, False
        from .obs.trace import JsonlSink, MemorySink, Tracer

        if isinstance(trace, Tracer):
            return trace, False
        if trace is True:
            return Tracer(MemorySink()), True
        return Tracer(JsonlSink(trace)), True

    @staticmethod
    def _make_pool(pool, workers):
        """``(WorkerPool or None, owned)`` for the ``pool=`` argument."""
        if pool is None or pool is False or pool == "fresh":
            return None, False
        if isinstance(pool, WorkerPool):
            return pool, False
        if pool is True or pool == "shared":
            if workers is None or resolve_workers(workers) <= 1:
                return None, False
            return WorkerPool(workers=workers), True
        raise ValueError(
            "pool must be 'shared', 'fresh', a WorkerPool or None")

    @staticmethod
    def _make_registry(metrics):
        if metrics is None or metrics is False:
            return None
        if metrics is True:
            from .obs.metrics import MetricsRegistry

            return MetricsRegistry()
        return metrics

    def _artifact_store(self, artifacts):
        if artifacts is False or artifacts is None:
            return None
        from .runner.artifacts import ArtifactStore

        if artifacts is True:
            cache = self.runner.cache
        elif isinstance(artifacts, ResultCache):
            cache = artifacts
        else:
            import os

            cache = ResultCache(os.path.expanduser(str(artifacts)))
        return ArtifactStore(cache=cache, stats=self.runner.stats,
                             journal=self.runner.journal,
                             tracer=self.runner.tracer)

    @property
    def library(self):
        """The session's cell library (built/loaded on first use)."""
        if self._library is None:
            if self._liberty is not None:
                from .tech.liberty import read_liberty

                self._library = read_liberty(self._liberty)
            else:
                from .tech.scl90 import build_scl90

                self._library = build_scl90()
        return self._library

    @property
    def stats(self):
        """Accumulated :class:`~repro.runner.RunStats` for this session."""
        return self.runner.stats

    @property
    def journal(self):
        """The session's :class:`~repro.runner.RunJournal` (or ``None``)."""
        return self.runner.journal

    @property
    def tracer(self):
        """The session's :class:`~repro.obs.trace.Tracer` (the shared
        no-op tracer unless ``trace=`` was given)."""
        return self.runner.tracer

    def metrics(self):
        """The session's :class:`~repro.obs.metrics.MetricsRegistry`,
        snapshotted from the current :attr:`stats` (and result cache) so
        every RunStats counter is up to date at the moment of the call.
        Creates a registry on the fly when the session runs without one
        (the live latency histograms are then simply empty)."""
        registry = self._registry
        if registry is None:
            from .obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        return registry.fill_from_stats(self.stats,
                                        cache=self.runner.cache)

    def close(self):
        """Close the journal, any session-owned trace sink and the
        session-owned warm pool (idempotent; the session stays usable --
        recording reopens the journal in append mode, and later parallel
        grids degrade to ephemeral per-grid pools with identical
        results)."""
        self.runner.close()
        if self._owns_tracer:
            self.runner.tracer.close()
        if self._owns_pool and self.pool is not None:
            self.pool.close()

    def designs(self):
        """Names the registry can build (see :meth:`design`)."""
        from .circuits import registry

        return registry.available_designs()

    def families(self):
        """Names of every generator family in the design database."""
        from .circuits.generators import available_families

        return available_families()

    def design(self, name, **params):
        """A :class:`DesignHandle` for a registry name, a
        :class:`~repro.circuits.generators.DesignKey`, a spec string like
        ``"multiplier(n=8)"`` or a Verilog path."""
        return DesignHandle(self, name, params)

    def expand_family(self, family, **axes):
        """Handles over a family's parameter grid.

        Each axis is a parameter name mapped to a value or an iterable of
        values; the cartesian product (declaration order, e.g.
        ``expand_family("multiplier", n=[4, 8, 16, 32])``) becomes one
        :class:`DesignHandle` per design key, ready for sweeps through
        this session's runner and artifact cache.
        """
        from .circuits.generators import expand_family

        return [self.design(key) for key in expand_family(family, **axes)]

    def study(self, name, *, fast=False):
        """A paper case study (:class:`~repro.paper.CaseStudy`) built on
        this session's library: ``"mult16"`` (Table I, Figs 6/9) or
        ``"m0lite"`` (Table II, Figs 7/8/10).

        Each ``(name, fast)`` is built once per session and memoised;
        ``fast=True`` trims the simulated workloads for unit tests.
        """
        key = (name, bool(fast))
        if key not in self._studies:
            from . import paper

            builders = {"mult16": paper.multiplier_study,
                        "m0lite": paper.cortex_m0_study}
            if name not in builders:
                raise ReproError(
                    "unknown case study {!r}; choose from: {}".format(
                        name, ", ".join(builders)))
            self._studies[key] = builders[name](self.library, fast=fast)
        return self._studies[key]

    def techniques(self):
        """Names of every registered power-gating technique."""
        from .techniques import available_techniques

        return available_techniques()

    def compare_techniques(self, design, freqs=None, techniques=None,
                           vdd=None, **params):
        """Cross-technique comparison of one design (see
        :func:`repro.techniques.compare.run_comparison`).

        ``design`` is a registry name, a Verilog path or an existing
        :class:`DesignHandle`; every technique model evaluates through
        this session's runner (workers, cache, journal) under
        ``compare:<design>:<technique>`` labels.
        """
        from .techniques import run_comparison

        handle = design if isinstance(design, DesignHandle) \
            else self.design(design, **params)
        return run_comparison(handle, freqs=freqs,
                              techniques=techniques, vdd=vdd)

    def __repr__(self):
        return "Session(library={!r}, runner={!r})".format(
            self._library if self._library is not None else "scl90(lazy)",
            self.runner)


class DesignHandle:
    """One design inside a session: lazily built, analysed on demand.

    Everything heavyweight -- the netlist, the SCPG transform, the STA
    run, the derived power models -- is computed at most once per handle;
    grid evaluations route through the session's runner (workers + cache).
    """

    def __init__(self, session, name, params):
        self.session = session
        # ``name`` may be a str (registry name, spec string, Verilog
        # path) or a DesignKey; the original spec is kept for resolution
        # while ``self.name`` stays a plain string for run labels.
        self._spec = name
        self.name = name if isinstance(name, str) else str(name)
        self.params = dict(params)
        self._design = None
        self._scpg = None
        self._sta = None
        self._switching = None
        self._power_model = None
        self._subvt_model = None
        self._artifacts = None

    # -- construction ---------------------------------------------------------

    @property
    def design(self):
        """The :class:`~repro.netlist.core.Design` (built on first use)."""
        if self._design is None:
            from .circuits import registry

            self._design = registry.resolve(
                self._spec, self.session.library, **self.params)
        return self._design

    @property
    def fingerprint(self):
        """Content digest of (netlist, library) for cache keys."""
        return stable_hash("design-v1",
                           module_fingerprint(self.design.top),
                           self.session.library)

    def netlist(self):
        """The design as structural Verilog text."""
        from .netlist.verilog import dumps_verilog

        return dumps_verilog(self.design)

    def scpg(self, **kwargs):
        """Apply sub-clock power gating (cached for default arguments)."""
        from .techniques import technique

        scpg = technique("scpg")
        if kwargs:
            return scpg.transform(self.design, **kwargs)
        if self._scpg is None:
            e_cycle, _ = self.switching()
            self._scpg = scpg.transform(self.design,
                                        energy_per_cycle=e_cycle)
        return self._scpg

    def artifacts(self):
        """This design's :class:`~repro.runner.artifacts.CircuitArtifacts`
        bundle (``None`` when the session runs with ``artifacts=False``).

        Served from the session's :class:`~repro.runner.artifacts.
        ArtifactStore` -- in-process memo first, then the on-disk cache,
        then a one-time build -- and memoised per handle.  Every
        analysis below evaluates against these tables when present, with
        bit-identical results to the netlist-walking path.
        """
        store = self.session.artifacts
        if store is None:
            return None
        if self._artifacts is None:
            from .runner.artifacts import CircuitArtifacts

            design = self.design
            fp = self.fingerprint
            self._artifacts = store.get(
                fp,
                lambda: CircuitArtifacts.build(
                    design, fingerprint=fp, name=design.top.name))
        return self._artifacts

    # -- analyses -------------------------------------------------------------

    def sta(self, vdd=None):
        """Timing analysis result (memoised at the nominal supply)."""
        art = self.artifacts()
        if art is not None:
            if vdd is not None:
                return art.timing.evaluate(self.session.library, vdd=vdd)
            if self._sta is None:
                self._sta = art.timing.evaluate(self.session.library)
            return self._sta
        from .sta.analysis import TimingAnalysis

        if vdd is not None:
            return TimingAnalysis(self.design.top,
                                  self.session.library).run(vdd=vdd)
        if self._sta is None:
            self._sta = TimingAnalysis(self.design.top,
                                       self.session.library).run()
        return self._sta

    def switching(self, vdd=None):
        """Vectorless ``(e_cycle, by_net)`` switching estimate."""
        art = self.artifacts()
        if art is not None:
            if vdd is not None:
                return art.switching.evaluate(self.session.library,
                                              vdd=vdd)
            if self._switching is None:
                self._switching = art.switching.evaluate(
                    self.session.library)
            return self._switching
        from .power.probabilistic import vectorless_switching

        if vdd is not None:
            return vectorless_switching(self.design.top,
                                        self.session.library, vdd)
        if self._switching is None:
            self._switching = vectorless_switching(
                self.design.top, self.session.library)
        return self._switching

    def leakage(self, vdd=None):
        """Leakage power report at ``vdd`` (default nominal)."""
        art = self.artifacts()
        if art is not None:
            return art.leakage.evaluate(self.session.library,
                                        vdd=vdd if vdd else None)
        from .power.leakage import leakage_power

        return leakage_power(self.design.top, self.session.library,
                             vdd=vdd if vdd else None)

    def leakage_axis(self, vdds, temp_c=None):
        """Leakage reports across a whole supply axis at once.

        ``vdds`` entries of ``None`` mean nominal.  Rides the artifact
        bundle's vectorized :meth:`~repro.runner.artifacts.LeakageTable.
        evaluate_axis` (one value matrix for the entire axis) when the
        session caches artifacts; the fallback evaluates point by point
        with identical results.
        """
        art = self.artifacts()
        if art is not None:
            return art.leakage.evaluate_axis(self.session.library, vdds,
                                             temp_c=temp_c)
        from .power.leakage import leakage_power

        return [leakage_power(self.design.top, self.session.library,
                              vdd=v, temp_c=temp_c) for v in vdds]

    def state_leakage_trace(self, states, vdd=None, temp_c=None):
        """Per-cycle state-dependent leakage across a co-sim trace
        (see :func:`repro.power.leakage.state_leakage_trace`).

        ``states`` is the ``(cycles, n_nets)`` matrix recorded by
        :meth:`cosim` / :class:`~repro.isa.trace.GateLevelCpu` with
        ``record_states=True``, or an iterable of net-value snapshots.
        """
        from .power.leakage import state_leakage_trace

        return state_leakage_trace(self.design.top, self.session.library,
                                   states, vdd=vdd, temp_c=temp_c)

    def cosim(self, program, memory=None, max_cycles=200_000,
              group_size=10, engine="auto"):
        """Closed-loop ISS-vs-netlist co-simulation of ``program`` (see
        :func:`repro.isa.trace.cosimulate`; the design must expose the
        M0-lite port interface).  ``engine`` picks the gate-level
        engine: the compiled :class:`~repro.sim.compiled.
        ClosedLoopStepper` when eligible under ``"auto"``, the event
        simulator otherwise -- bit-identical results either way.
        """
        from .isa.trace import cosimulate

        return cosimulate(self.design.top, program, memory,
                          max_cycles=max_cycles, group_size=group_size,
                          engine=engine)

    def power_model(self):
        """An :class:`~repro.scpg.power_model.ScpgPowerModel` with the
        vectorless energy estimate and measured base leakage."""
        if self._power_model is None:
            art = self.artifacts()
            if art is not None:
                lib = self.session.library
                e_cycle, _ = self.switching()
                model = art.scpg.build_model(lib, e_cycle)
                base = art.leakage.evaluate(lib)
            else:
                from .power.leakage import leakage_power
                from .scpg.power_model import ScpgPowerModel

                e_cycle, _ = self.switching()
                model = ScpgPowerModel.from_scpg_design(
                    self.scpg(), e_cycle)
                base = leakage_power(self.design.top,
                                     self.session.library)
            model.leak_comb_base = base.combinational
            model.leak_alwayson_base = base.always_on
            self._power_model = model
        return self._power_model

    def subvt_model(self):
        """A :class:`~repro.subvt.energy.SubvtModel` from the vectorless
        estimate, total leakage and the STA minimum period."""
        if self._subvt_model is None:
            from .subvt.energy import SubvtModel

            e_cycle, _ = self.switching()
            self._subvt_model = SubvtModel(
                self.session.library, e_cycle, self.leakage().total,
                self.sta().min_period)
        return self._subvt_model

    def gate_sim(self):
        """The design's compiled levelized simulation schedule
        (:class:`~repro.sim.compiled.CompiledSchedule`).

        Served from the artifact bundle when the session caches
        artifacts -- re-bound to the live module so the event-simulator
        fallback still works on a bundle loaded from disk -- otherwise
        compiled (and memoised) from the netlist directly.
        """
        art = self.artifacts()
        if art is not None and art.gate_sim.schedule is not None:
            return art.gate_sim.schedule.bind_module(self.design.top)
        from .sim.compiled import schedule_for

        return schedule_for(self.design.top, self.session.library)

    def activity(self, vectors, clock="clk", reset=0, group_size=None):
        """Simulate a clocked workload; returns a
        :class:`~repro.sim.compiled.CompiledRun` (toggle counts, final
        values, optional grouped :class:`~repro.sim.activity.
        ActivityTrace`).  Rides the levelized engine when the circuit
        qualifies, the event simulator otherwise -- bit-identical either
        way."""
        return self.gate_sim().run_vectors(
            vectors, clock=clock, reset=reset, group_size=group_size)

    # -- experiments (through the session runner) ------------------------------

    def sweep(self, freqs, modes=None, model=None):
        """Frequency sweep of the SCPG power model over ``freqs``."""
        from .analysis.sweep import sweep as run_sweep

        model = self.power_model() if model is None else model
        label = "sweep:{}".format(self.name)
        if modes is None:
            return run_sweep(model, freqs, runner=self.session.runner,
                             label=label)
        return run_sweep(model, freqs, modes=modes,
                         runner=self.session.runner, label=label)

    def table(self, freqs):
        """Table I/II-style rows for ``freqs`` (list of mode dicts)."""
        from .analysis.tables import build_table

        return build_table(self.power_model(), freqs,
                           runner=self.session.runner,
                           label="sweep:{}".format(self.name))

    def convergence(self, mode=None, **kwargs):
        """Frequency where gating stops paying (see ``find_convergence``)."""
        from .analysis.sweep import find_convergence
        from .scpg.power_model import Mode

        return find_convergence(
            self.power_model(), mode=Mode.SCPG if mode is None else mode,
            runner=self.session.runner, **kwargs)

    def energy_sweep(self, **kwargs):
        """Sub-threshold energy/voltage sweep through the runner."""
        from .subvt.energy import energy_sweep

        return energy_sweep(self.subvt_model(),
                            runner=self.session.runner, **kwargs)

    def minimum_energy_point(self, **kwargs):
        """Sub-threshold minimum-energy point through the runner."""
        from .subvt.energy import minimum_energy_point

        return minimum_energy_point(self.subvt_model(),
                                    runner=self.session.runner, **kwargs)

    def power_report(self, freq_hz, vdd=None):
        """A :class:`~repro.power.report.PowerReport` at one operating
        point (vectorless dynamic estimate)."""
        from .power.dynamic import DynamicReport
        from .power.report import PowerReport

        lib = self.session.library
        vdd = vdd or lib.vdd_nom
        e_cycle, by_net = self.switching(vdd=vdd)
        dyn = DynamicReport(vdd=vdd, freq_hz=freq_hz, cycles=1,
                            energy_per_cycle=e_cycle, glitch_factor=1.0,
                            by_net=by_net)
        return PowerReport(design=self.design.top.name, vdd=vdd,
                           freq_hz=freq_hz, leakage=self.leakage(vdd=vdd),
                           dynamic=dyn)

    def __repr__(self):
        return "DesignHandle({!r})".format(self.name)
