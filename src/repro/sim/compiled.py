"""Vector-parallel levelized gate simulation over the SoA netlist.

:func:`compile_schedule` lowers a flat module once
(:func:`repro.netlist.soa.lower_soa`) and wraps it in a
:class:`CompiledSchedule` -- the levelized evaluation schedule.  A whole
workload of input vectors then simulates as a handful of batched numpy
passes instead of per-event Python dispatch: each clock cycle is three
settled states (inputs applied with the clock low, the rising edge, the
falling edge), every state is one levelized sweep over a ``(cycles,
nets)`` value matrix, and flip-flops sample with the event simulator's
exact rules (pre-settle D/EN, async RN dominance, X edges) through one
fused lookup: :func:`_flop_table` tabulates the next Q over all 3**6
combinations of a flop's six pin values, once per pin kind, so a phase
samples every flop with a gather, a weighted sum and a table take.

Cross-cycle state is resolved by fixed-point iteration: the cycle-``k``
row starts from cycle ``k-1``'s settled end state, so each batched pass
finalises at least one more cycle and a ``d``-deep pipeline converges in
``d + 1`` passes.  Toggle counts are consecutive-snapshot differences
(both values known), which makes the result **bit-identical** to the
event simulator's functional (generational) toggle accounting -- the
differential tests in ``tests/sim/test_compiled.py`` assert equality,
not closeness.

Not every netlist is batchable: combinational feedback has no levelized
order, and clock/reset cones that pass through logic or state cannot be
replayed per-phase.  :meth:`CompiledSchedule.vector_ready` reports this,
and :meth:`CompiledSchedule.run_vectors` transparently falls back to the
event-driven :class:`~repro.sim.event.Simulator` (float-exact by
construction) for those designs.

Closed-loop workloads (a testbench that must *read* outputs each cycle
to decide the next inputs -- the ISA co-simulator's memory protocol)
cannot batch cycles at all, so :meth:`CompiledSchedule.stepper` exposes
the same settled-phase machinery one cycle at a time: a
:class:`ClosedLoopStepper` settles single value rows through fused-LUT
row programs (:meth:`repro.netlist.soa.SoaNetlist.pack_levels`: runs of
consecutive levels merged into one table lookup per output, keyed on at
most five nets settled before the run, tables composed from the per-gate
truth tables so the settle is exact), skips applies whose values did
not change, samples flops (the same table lookup, on single rows) only
on phases whose affected cone reaches a CK/RN pin, and accrues the
identical consecutive-snapshot toggle diffs (``a + b == 1`` on the
0/1/X=2 encoding) -- bit-identical state and toggle counts versus
driving the event simulator through the same protocol.  Fused programs
and the flop table are built lazily and never pickled.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..errors import NetlistError, SimulationError
from ..netlist.core import Module
from ..netlist.soa import lower_soa
from ..runner.kernel import CompiledKernel, Kernel, register_kernel
from .activity import ActivityTrace, GroupRecorder, group_from_delta
from .logic import X, to_ternary
from .testbench import ClockedTestbench


def _diff(a, b):
    """Functional-toggle mask between consecutive settled states.

    A toggle is a 0 <-> 1 change; with values in {0, 1, X=2} that is
    exactly ``a + b == 1`` (``(a != b) & (a != X) & (b != X)`` in two
    ops -- int8 sums top out at 4, so nothing overflows).
    """
    return (a + b) == 1


def _flop_rule(ck_old, ck_new, d_pre, en_pre, rn_now, held):
    """Next Q of a flip-flop from its six pin values, elementwise.

    Replicates the event simulator: RN (async, post-settle) dominates; a
    rising edge samples the *pre-settle* D/EN; a non-rising change to X
    drives Q to X; EN==0 holds, EN==X corrupts the sample.  Evaluated
    once per pin combination by :func:`_flop_table` -- the per-phase
    sampling is a lookup into that table.
    """
    changed = ck_new != ck_old
    rising = (ck_old == 0) & (ck_new == 1)
    q_next = np.where(changed & ~rising & (ck_new == X), X, held)
    d_eff = np.where(en_pre == X, X, d_pre)
    q_next = np.where(rising & (en_pre != 0), d_eff, q_next)
    q_next = np.where(rn_now == 0, 0, q_next)
    q_next = np.where(rn_now == X, X, q_next)
    return q_next.astype(np.int8)


#: Key weights of one flop-sampling lookup: digits 0-2 are CK, D and EN
#: read from the phase-start row, digits 3-5 CK, RN and Q from the
#: settled row (``key = base + _PRE_W @ pre3 + _NOW_W @ now3``).
_PRE_W = np.asarray([1, 3, 9], dtype=np.int64)
_NOW_W = np.asarray([27, 81, 243], dtype=np.int64)
_FLOP_KEYS = 3 ** 6


def _flop_table():
    """``(4 * 729,)`` int8 next-Q table, one 729-entry block per pin
    kind (``kind = has_en + 2 * has_rn``, block base ``kind * 729``).

    An absent EN/RN pin gathers a pad net and its block ignores that
    digit (reads it as 1, the pin's inactive level) -- the same pad
    trick :class:`~repro.netlist.soa.RowOp` uses for short leaf lists.
    """
    digits = np.arange(_FLOP_KEYS) // 3 ** np.arange(6)[:, None] % 3
    ck_old, d_pre, en_pre, ck_new, rn_now, held = digits
    return np.concatenate([
        _flop_rule(ck_old, ck_new, d_pre,
                   en_pre if kind & 1 else 1,
                   rn_now if kind & 2 else 1, held)
        for kind in range(4)])


@dataclass
class CompiledRun:
    """Result of one workload run (levelized or event fallback)."""

    cycles: int
    engine: str
    #: Per-net toggle counts (all nets, zeros included) -- same key set
    #: and values as ``Simulator.toggle_snapshot`` after the same run.
    toggles: dict = field(default_factory=dict)
    trace: ActivityTrace = None
    #: Net name -> final settled value (clock low).
    final_values: dict = field(default_factory=dict)
    #: Per-cycle per-net toggle matrix (levelized engine only).
    toggle_matrix: np.ndarray = None

    def toggle_snapshot(self):
        """Dict net name -> toggle count (``Simulator`` parity)."""
        return dict(self.toggles)

    def total_toggles(self):
        return sum(self.toggles.values())

    def value(self, net_name):
        """Final settled value of a net (0/1/X)."""
        return self.final_values[net_name]


class CompiledSchedule:
    """A module's levelized evaluation schedule plus eligibility facts.

    Instances pickle (for the artifact cache) without the source module;
    an unpickled schedule keeps the full vector-parallel path but cannot
    fall back to the event simulator.
    """

    def __init__(self, module=None, soa=None, why=""):
        self._module = module
        self.soa = soa
        self.why = why          # non-empty when lowering failed
        self._cones = {}
        if soa is not None:
            self._port_name = {idx: name
                               for name, idx in soa.input_ports.items()}
            self._init = self._build_init()

    #: Lazily built caches -- subschedules, flop columns with their
    #: next-Q table, and fused row programs -- rebuilt on demand, so
    #: never pickled.
    _LAZY = ("_fo_state", "_fo_clock", "_seq_cols", "_row_state",
             "_row_inputs")

    def __getstate__(self):
        """Drop the module and every lazy cache: a schedule pickles to
        the same bytes before and after it has been stepped."""
        state = dict(self.__dict__)
        state["_module"] = None
        state["_cones"] = {}
        for name in self._LAZY:
            state.pop(name, None)
        return state

    @property
    def module(self):
        return self._module

    def bind_module(self, module):
        """Re-attach the live module an unpickled schedule lost, restoring
        the event-simulator fallback.  Returns ``self``."""
        if self._module is None:
            self._module = module
        return self

    # -- eligibility ---------------------------------------------------------

    def _cone(self, idx):
        """``(source port names, depends-on-state)`` of one net's cone."""
        res = self._cones.get(idx)
        if res is not None:
            return res
        soa = self.soa
        if soa.driver_seq[idx] >= 0:
            res = (frozenset(), True)
        elif soa.driver_gate[idx] >= 0:
            self._cones[idx] = (frozenset(), False)  # placeholder (DAG)
            ports = set()
            seq = False
            for i in soa.gate_inputs[soa.driver_gate[idx]]:
                p, s = self._cone(i)
                ports |= p
                seq = seq or s
            res = (frozenset(ports), seq)
        else:
            name = self._port_name.get(idx)
            res = (frozenset([name]) if name else frozenset(), False)
        self._cones[idx] = res
        return res

    def vector_ready(self, clock="clk"):
        """``(ok, reason)``: can this schedule batch a clocked workload?

        Requires an acyclic combinational graph, every flop clocked from
        a pure clock cone (sources only the ``clock`` port / constants),
        and async resets free of state feedback -- the conditions under
        which the three-phase batched replay is exact.
        """
        if self.soa is None:
            return False, self.why or "combinational feedback"
        soa = self.soa
        if clock not in soa.input_ports:
            return False, "no input port {!r}".format(clock)
        for row in range(soa.n_seq):
            if soa.seq_ck[row] < 0:
                return False, "flop {} has no clock pin".format(
                    soa.seq_names[row])
            if soa.seq_q[row] >= 0 and soa.seq_d[row] < 0:
                return False, "flop {} has no data pin".format(
                    soa.seq_names[row])
        for idx in set(soa.seq_ck.tolist()):
            if idx < 0:
                continue
            ports, seq = self._cone(idx)
            if seq or not ports <= {clock}:
                return False, (
                    "clock cone of net {} mixes in {}".format(
                        soa.net_names[idx],
                        "state" if seq else ", ".join(sorted(ports - {
                            clock}))))
        for idx in set(soa.seq_rn.tolist()):
            if idx < 0:
                continue
            if self._cone(idx)[1]:
                return False, "reset cone of net {} depends on state".format(
                    soa.net_names[idx])
        return True, ""

    # -- batched engine ------------------------------------------------------

    def _build_init(self):
        """Settled pre-run state: all-X, constants applied, combinational
        nets evaluated (ties propagate)."""
        row = self.soa.initial_values()[np.newaxis, :].copy()
        self.soa.eval_comb(row)
        return row[0]

    def _sample_flops(self, pre, now):
        """Flip-flop sampling for one phase, as one fused table lookup.

        ``pre`` holds the phase-start (pre-settle) values, ``now`` the
        settled values -- single ``(n_nets,)`` rows or ``(B, n_nets)``
        batches; Q columns of ``now`` are updated in place.  Returns
        True when any Q changed.  Each flop gathers three pins from
        ``pre`` (CK, D, EN) and three from ``now`` (CK, RN, Q), and one
        weighted sum keys the :func:`_flop_table` block of its pin kind,
        so the event simulator's rules (:func:`_flop_rule`) cost a
        gather, a sum and a take however many flops there are.
        """
        qcol, pre_cols, now_cols, base, table = self._seq_columns()
        if not len(qcol):
            return False
        now3 = now.take(now_cols, axis=-1)
        keys = np.dot(_PRE_W, pre.take(pre_cols, axis=-1))
        keys += np.dot(_NOW_W, now3)
        keys += base
        q_next = table.take(keys)
        if q_next.tobytes() == now3[..., 2, :].tobytes():
            return False
        now[..., qcol] = q_next
        return True

    def _seq_columns(self):
        """Memoised ``(Q nets, (3, F) pre columns, (3, F) now columns,
        per-flop table base, next-Q table)`` for :meth:`_sample_flops`.
        Absent EN/RN pins pad with net 0 (see :func:`_flop_table`)."""
        cols = getattr(self, "_seq_cols", None)
        if cols is None:
            soa = self.soa
            rows = np.nonzero(soa.seq_q >= 0)[0]
            qcol = soa.seq_q[rows]
            en = soa.seq_en[rows]
            rn = soa.seq_rn[rows]
            ck = soa.seq_ck[rows]
            kind = (en >= 0) + 2 * (rn >= 0)
            cols = self._seq_cols = (
                qcol,
                np.stack([ck, soa.seq_d[rows], np.maximum(en, 0)]),
                np.stack([ck, np.maximum(rn, 0), qcol]),
                kind * _FLOP_KEYS,
                _flop_table())
        return cols

    def _phase(self, start, mutate, levels):
        """One settled phase: copy ``start``, apply ``mutate``, settle
        the perturbed cone (``levels``), sample flops against ``start``,
        re-settle the state cone if any flop moved.
        Returns ``(pre_sample_state, post_sample_state)``."""
        soa = self.soa
        pre = start.copy()
        mutate(pre)
        soa.eval_comb(pre, levels)
        post = pre.copy()
        if self._sample_flops(start, post):
            soa.eval_comb(post, self._state_levels())
        else:
            post = pre
        return pre, post

    def _state_levels(self):
        """Subschedule for the fanout of every flop output."""
        levels = getattr(self, "_fo_state", None)
        if levels is None:
            levels = self.soa.subschedule(self.soa.seq_q.tolist())
            self._fo_state = levels
        return levels

    def _clock_levels(self, clk_idx):
        """Subschedule for the clock fanout (memoised per clock net)."""
        cache = getattr(self, "_fo_clock", None)
        if cache is None:
            cache = self._fo_clock = {}
        levels = cache.get(clk_idx)
        if levels is None:
            levels = cache[clk_idx] = self.soa.subschedule([clk_idx])
        return levels

    def _row_state_prog(self):
        """Fused row program for the flop-output fanout (memoised)."""
        prog = getattr(self, "_row_state", None)
        if prog is None:
            prog = self._row_state = \
                self.soa.pack_levels(self._state_levels())
        return prog

    def _row_apply_prog(self, idxs):
        """``(fused cone program, needs-flop-sampling)`` for applying
        the given net indices, memoised per index set.

        Sampling is needed exactly when the apply can move a CK or RN
        pin net -- the only nets through which a settled clock-low apply
        can change flop state (the event simulator's per-flop event
        triggers reduce to the same condition).
        """
        cache = getattr(self, "_row_inputs", None)
        if cache is None:
            cache = self._row_inputs = {}
        key = tuple(idxs)
        entry = cache.get(key)
        if entry is None:
            soa = self.soa
            prog = soa.pack_levels(soa.subschedule(list(key)))
            affected = set(key)
            for op in prog:
                affected.update(op.out.tolist())
            sens = set(soa.seq_ck[soa.seq_ck >= 0].tolist())
            sens |= set(soa.seq_rn[soa.seq_rn >= 0].tolist())
            entry = cache[key] = (prog, bool(affected & sens))
        return entry

    def stepper(self, clock="clk", record_toggles=True):
        """A :class:`ClosedLoopStepper` over this schedule.

        Raises :class:`~repro.errors.SimulationError` unless
        :meth:`vector_ready` -- callers that need a fallback should
        check eligibility first (see :class:`repro.isa.trace.GateLevelCpu`).
        """
        return ClosedLoopStepper(self, clock=clock,
                                 record_toggles=record_toggles)

    def _run_levelized(self, vectors, clock, reset, group_size,
                       max_batch=1024):
        soa = self.soa
        n = soa.n_nets
        clk_idx = soa.input_ports[clock]

        # Pre-run settle sequence mirrors ClockedTestbench construction:
        # clock low, then all flops forced to the reset value.  All
        # transitions are X -> known, so no toggles accrue -- identical
        # to the event path's zero pre-run count.
        state = self._init[np.newaxis, :].copy()
        state[0, clk_idx] = 0
        soa.eval_comb(state)
        qcols = soa.seq_q[soa.seq_q >= 0]
        if len(qcols):
            state[0, qcols] = to_ternary(reset)
            soa.eval_comb(state)
        state = state[0]

        per_cycle = []
        final = state
        groups = None if group_size is None else []
        done = 0
        vectors = list(vectors)
        for at in range(0, len(vectors), max_batch):
            chunk = vectors[at:at + max_batch]
            tog, final = self._run_chunk(chunk, clock, clk_idx, state=final)
            per_cycle.append(tog)
            done += len(chunk)
        toggle_matrix = np.concatenate(per_cycle, axis=0) if per_cycle \
            else np.zeros((0, n), dtype=np.int64)
        counts = toggle_matrix.sum(axis=0)

        if group_size is not None:
            trace = ActivityTrace()
            names = np.asarray(soa.net_names, dtype=object)
            for start in range(0, len(vectors), group_size):
                block = toggle_matrix[start:start + group_size]
                trace.groups.append(group_from_delta(
                    len(trace.groups), block.shape[0], block.sum(axis=0),
                    names, soa.non_const_nets))
        else:
            trace = None

        return CompiledRun(
            cycles=len(vectors),
            engine="levelized",
            toggles={name: int(counts[i])
                     for i, name in enumerate(soa.net_names)},
            trace=trace,
            final_values={name: int(final[i])
                          for i, name in enumerate(soa.net_names)},
            toggle_matrix=toggle_matrix,
        )

    def _run_chunk(self, vectors, clock, clk_idx, state):
        """Fixed-point batched replay of one chunk of cycles.

        ``state`` is the settled clock-low state entering the chunk;
        returns ``(per-cycle toggle matrix, final state row)``.
        """
        soa = self.soa
        ncyc = len(vectors)
        n = soa.n_nets
        if ncyc == 0:
            return np.zeros((0, n), dtype=np.int64), state

        # Input stimulus with carry-forward for unspecified ports.
        stim_cols = []
        stim_idx = []
        prev = {name: int(state[idx])
                for name, idx in soa.input_ports.items() if name != clock}
        series = {name: [] for name in prev}
        for vec in vectors:
            vec = vec or {}
            if clock in vec:
                raise SimulationError(
                    "drive the clock via the cycle protocol, not vectors")
            for name in vec:
                if name not in prev:
                    raise SimulationError(
                        "module {} has no input port {}".format(
                            soa.module_name, name))
                prev[name] = to_ternary(vec[name])
            for name, col in series.items():
                col.append(prev[name])
        for name, col in series.items():
            stim_idx.append(soa.input_ports[name])
            stim_cols.append(col)
        stim_idx = np.asarray(stim_idx, dtype=np.int64)
        stim = np.asarray(stim_cols, dtype=np.int8).T \
            if stim_cols else np.zeros((ncyc, 0), dtype=np.int8)

        def apply_inputs(v):
            if len(stim_idx):
                v[:, stim_idx] = stim

        def clk_to(value):
            def mutate(v):
                v[:, clk_idx] = value
            return mutate

        fo_inputs = soa.subschedule(stim_idx.tolist())
        fo_clock = self._clock_levels(clk_idx)
        prev_c = np.repeat(state[np.newaxis, :], ncyc, axis=0)
        for _ in range(ncyc + 1):
            a_pre, a_post = self._phase(prev_c, apply_inputs, fo_inputs)
            b_pre, b_post = self._phase(a_post, clk_to(1), fo_clock)
            c_pre, c_post = self._phase(b_post, clk_to(0), fo_clock)
            rolled = np.vstack([state[np.newaxis, :], c_post[:-1]])
            if np.array_equal(rolled, prev_c):
                break
            prev_c = rolled
        else:  # pragma: no cover - ncyc+1 iterations always suffice
            raise SimulationError("batched replay failed to converge")

        tog = _diff(prev_c, a_pre).astype(np.int64)
        for before, after in ((a_pre, a_post), (a_post, b_pre),
                              (b_pre, b_post), (b_post, c_pre),
                              (c_pre, c_post)):
            tog += _diff(before, after)
        return tog, c_post[-1]

    # -- event-simulator fallback --------------------------------------------

    def _run_event(self, vectors, clock, reset, group_size):
        if self._module is None:
            raise SimulationError(
                "schedule for {} needs the event simulator ({}), but was "
                "restored without its module".format(
                    self.soa.module_name if self.soa else "?", self.why))
        tb = ClockedTestbench(self._module, clock=clock)
        tb.force_flops(reset)
        recorder = None if group_size is None \
            else GroupRecorder(tb, group_size)
        for vec in vectors:
            tb.cycle(vec)
            if recorder is not None:
                recorder.after_cycle()
        if recorder is not None:
            recorder.flush()
        return CompiledRun(
            cycles=tb.cycles,
            engine="event",
            toggles=tb.sim.toggle_snapshot(),
            trace=None if recorder is None else recorder.trace,
            final_values=dict(zip(tb.net_names, tb.sim.values)),
        )

    # -- public API ----------------------------------------------------------

    def run_vectors(self, vectors, clock="clk", reset=0, group_size=None):
        """Simulate a clocked workload; returns a :class:`CompiledRun`.

        One vector dict per cycle (standard apply / posedge / negedge
        protocol, flops pre-forced to ``reset``).  Batches through the
        levelized engine when :meth:`vector_ready`, otherwise replays
        through the event simulator -- either way the toggle counts and
        final values are bit-identical.
        """
        vectors = list(vectors)
        ok, _why = self.vector_ready(clock)
        if ok:
            return self._run_levelized(vectors, clock, reset, group_size)
        return self._run_event(vectors, clock, reset, group_size)

    def evaluate(self, points):
        """Batch-evaluate a purely combinational module.

        ``points`` is ``(batch, n_inputs)`` of 0/1/X values in
        ``input_ports`` declaration order; returns ``(batch,
        n_outputs)`` in ``output_ports`` order.  This is the gate-level
        :class:`~repro.runner.kernel.Kernel` callable shape.
        """
        if self.soa is None:
            raise SimulationError(
                "no levelized schedule: {}".format(self.why))
        soa = self.soa
        if soa.n_seq:
            raise SimulationError(
                "evaluate() is combinational-only; module {} has {} "
                "flops (use run_vectors)".format(
                    soa.module_name, soa.n_seq))
        points = np.asarray(points, dtype=np.int8)
        if points.ndim == 1:
            points = points[np.newaxis, :]
        in_idx = np.asarray(list(soa.input_ports.values()), dtype=np.int64)
        if points.shape[1] != len(in_idx):
            raise SimulationError(
                "expected {} input columns, got {}".format(
                    len(in_idx), points.shape[1]))
        values = np.repeat(self._init[np.newaxis, :], len(points), axis=0)
        values[:, in_idx] = points
        soa.eval_comb(values)
        out_idx = np.asarray(list(soa.output_ports.values()), dtype=np.int64)
        return values[:, out_idx]


class BusView:
    """Packed integer view over ``name_0 .. name_{width-1}`` bit nets.

    Output views gather the current settled values in one take;
    input views drive a whole integer through the stepper's memoised
    apply program -- no per-bit name formatting or dict traffic on the
    per-cycle path (compare :func:`repro.sim.testbench.read_bus`).
    """

    __slots__ = ("_stepper", "name", "width", "_idx", "_shifts", "_pow2",
                 "_prog", "_sample")

    def __init__(self, stepper, name, width, writable):
        soa = stepper.soa
        self._stepper = stepper
        self.name = name
        self.width = width
        space = soa.input_ports if writable else soa.net_index
        idx = []
        for i in range(width):
            bit = "{}_{}".format(name, i)
            at = space.get(bit)
            if at is None:
                raise SimulationError(
                    "module {} has no {} {}".format(
                        soa.module_name,
                        "input port" if writable else "net", bit))
            idx.append(at)
        self._idx = np.asarray(idx, dtype=np.int64)
        self._shifts = np.arange(width, dtype=np.int64)
        self._pow2 = np.int64(1) << self._shifts
        if writable:
            self._prog, self._sample = \
                stepper.schedule._row_apply_prog(tuple(idx))
        else:
            self._prog = self._sample = None

    def read(self):
        """The bus as an int, or ``None`` when any bit is X
        (:func:`~repro.sim.testbench.read_bus` parity)."""
        row = self._stepper._state[self._idx]
        if (row == X).any():
            return None
        return int(row.astype(np.int64) @ self._pow2)

    def drive(self, value):
        """Apply ``value``'s bits as one settled input phase."""
        if self._prog is None:
            raise SimulationError("bus {} is read-only".format(self.name))
        vals = ((np.int64(value) >> self._shifts) & 1).astype(np.int8)
        self._stepper._apply_indexed(self._idx, vals, self._prog,
                                     self._sample)


class ClosedLoopStepper:
    """Cycle-at-a-time reactive stepping over a compiled schedule.

    Mirrors driving an event :class:`~repro.sim.event.Simulator` through
    the standard protocol (settled apply phases with the clock low, then
    :meth:`posedge` / :meth:`negedge`), but every phase is a handful of
    fused gathers over a single ``(n_nets,)`` value row: the perturbed
    cone settles through a memoised fused-LUT row program, flop sampling
    runs only when the cone can reach a CK/RN pin, unchanged applies
    skip entirely, and toggle accounting accrues the same
    consecutive-snapshot diffs as the batched engine -- so state,
    toggles and flop values stay bit-identical to the event path.

    This is the engine under :class:`repro.isa.trace.GateLevelCpu`'s
    compiled mode; anything per-cycle-interactive can drive it directly
    via :meth:`apply` / :meth:`cycle` and the :class:`BusView` accessors.
    :class:`~repro.sim.testbench.ClockedTestbench` speaks the same
    protocol over the event simulator.
    """

    def __init__(self, schedule, clock="clk", record_toggles=True):
        ok, why = schedule.vector_ready(clock)
        if not ok:
            raise SimulationError(
                "cannot step {}: {}".format(
                    schedule.soa.module_name if schedule.soa else "?", why))
        self.schedule = schedule
        self.soa = schedule.soa
        self.clock = clock
        self.record_toggles = record_toggles
        soa = self.soa
        self._state = schedule._init.copy()
        self.toggle_counts = np.zeros(soa.n_nets, dtype=np.int64)
        self.cycles = 0
        self._state_prog = schedule._row_state_prog()
        self._programs = {}
        self._seq_rows = {name: row
                          for row, name in enumerate(soa.seq_names)}
        clk_idx = soa.input_ports[clock]
        self._clk_idx = np.asarray([clk_idx], dtype=np.int64)
        self._clk_prog, _ = schedule._row_apply_prog((clk_idx,))
        self._clk_vals = (np.asarray([0], dtype=np.int8),
                          np.asarray([1], dtype=np.int8))

    # -- phase engine --------------------------------------------------------

    def _apply_indexed(self, idx, vals, prog, sample):
        """One settled phase: set ``vals`` (int8, like the row) at
        ``idx``, settle the cone, sample flops when the cone warrants
        it.  No-op when every value is unchanged (the event simulator
        drops such events too)."""
        start = self._state
        if start.take(idx).tobytes() == vals.tobytes():
            return
        soa = self.soa
        pre = start.copy()
        pre[idx] = vals
        soa.eval_row(pre, prog)
        post = pre
        if sample:
            post = pre.copy()
            if self.schedule._sample_flops(start, post):
                soa.eval_row(post, self._state_prog)
            else:
                post = pre
        if self.record_toggles:
            self.toggle_counts += _diff(start, pre)
            if post is not pre:
                self.toggle_counts += _diff(pre, post)
        self._state = post

    def apply(self, values):
        """Settle a ``{port name: value}`` change (clock stays put)."""
        names = tuple(sorted(values))
        entry = self._programs.get(names)
        if entry is None:
            soa = self.soa
            idx = []
            for name in names:
                at = soa.input_ports.get(name)
                if at is None:
                    raise SimulationError(
                        "module {} has no input port {}".format(
                            soa.module_name, name))
                idx.append(at)
            prog, sample = self.schedule._row_apply_prog(tuple(idx))
            entry = self._programs[names] = (
                np.asarray(idx, dtype=np.int64), prog, sample)
        idx, prog, sample = entry
        vals = np.asarray([to_ternary(values[name]) for name in names],
                          dtype=np.int8)
        self._apply_indexed(idx, vals, prog, sample)

    def posedge(self):
        """Drive the clock high (flops sample against the pre-edge
        state, exactly like the event simulator's edge)."""
        self._apply_indexed(self._clk_idx, self._clk_vals[1],
                            self._clk_prog, True)

    def negedge(self):
        """Drive the clock low."""
        self._apply_indexed(self._clk_idx, self._clk_vals[0],
                            self._clk_prog, True)

    def cycle(self, inputs=None):
        """One full protocol cycle: apply ``inputs``, posedge, negedge."""
        if inputs:
            if self.clock in inputs:
                raise SimulationError(
                    "drive the clock via posedge/negedge, not apply")
            self.apply(inputs)
        self.posedge()
        self.negedge()
        self.cycles += 1

    def force_flops(self, value=0):
        """Force every flop output and re-settle the state cone
        (:meth:`~repro.sim.event.Simulator.force_flop_state` parity)."""
        soa = self.soa
        qcols = soa.seq_q[soa.seq_q >= 0]
        if not len(qcols):
            return
        start = self._state
        pre = start.copy()
        pre[qcols] = to_ternary(value)
        soa.eval_row(pre, self._state_prog)
        if self.record_toggles:
            self.toggle_counts += _diff(start, pre)
        self._state = pre

    # -- accessors -----------------------------------------------------------

    def input_bus(self, name, width):
        """A writable :class:`BusView` over input ports ``name_*``."""
        return BusView(self, name, width, writable=True)

    def output_bus(self, name, width):
        """A read-only :class:`BusView` over nets ``name_*``."""
        return BusView(self, name, width, writable=False)

    def value(self, net_name):
        """Current settled value of one net (0/1/X)."""
        return int(self._state[self.soa.net_index[net_name]])

    def flop_q(self, inst_name):
        """Current Q of a flop by instance name (X when output-less)."""
        row = self._seq_rows.get(inst_name)
        if row is None:
            raise SimulationError("unknown flop {}".format(inst_name))
        q = self.soa.seq_q[row]
        return X if q < 0 else int(self._state[q])

    def state_row(self):
        """A copy of the settled ``(n_nets,)`` value row (net order =
        ``soa.net_names`` = ``module.nets()`` order)."""
        return self._state.copy()

    @property
    def net_names(self):
        """Net names in :meth:`state_row` / :attr:`toggle_counts` order."""
        return self.soa.net_names

    @property
    def non_const_nets(self):
        return self.soa.non_const_nets

    def toggle_snapshot(self):
        """Dict net name -> toggle count (``Simulator`` parity)."""
        return {name: int(self.toggle_counts[i])
                for i, name in enumerate(self.soa.net_names)}

    def reset_toggles(self):
        self.toggle_counts[:] = 0


def compile_schedule(module, library=None):
    """Compile ``module`` into a :class:`CompiledSchedule`.

    Never raises for feedback: an un-lowerable module yields a schedule
    whose :meth:`~CompiledSchedule.vector_ready` is False and whose
    workload runs ride the event simulator.
    """
    try:
        soa = lower_soa(module, library)
    except NetlistError as exc:
        return CompiledSchedule(module=module, soa=None, why=str(exc))
    return CompiledSchedule(module=module, soa=soa)


_SCHEDULES = weakref.WeakKeyDictionary()


def peek_schedule(module):
    """The memoised schedule for ``module``, or ``None`` -- never
    compiles one (for callers that only want to reuse paid-for tables,
    e.g. :func:`repro.power.dynamic.dynamic_power`)."""
    return _SCHEDULES.get(module)


def schedule_for(module, library=None):
    """Per-module memoised :func:`compile_schedule` (keyed weakly, so
    dropping the module drops the schedule)."""
    entry = _SCHEDULES.get(module)
    if entry is None or (library is not None and entry.soa is not None
                         and entry.soa.net_cap is None):
        entry = compile_schedule(module, library)
        _SCHEDULES[module] = entry
    return entry


class GateSimKernel(Kernel):
    """The gate-level :class:`~repro.runner.kernel.Kernel`: a flat
    combinational :class:`~repro.netlist.core.Module` compiles once into
    its levelized schedule; the compiled callable batch-evaluates input
    matrices (see :meth:`CompiledSchedule.evaluate`)."""

    name = "gate-sim"

    def applies(self, module):
        schedule = schedule_for(module)
        return schedule.soa is not None and schedule.soa.n_seq == 0

    def evaluate(self, schedule, points, library=None):
        return schedule.evaluate(points)

    def compile(self, module, library=None):
        # Lower once here: the compiled kernel embeds the (picklable)
        # schedule, not the module, so worker processes replay the
        # levelized tables without re-lowering the netlist.
        if not self.applies(module):
            schedule = schedule_for(module)
            raise SimulationError(
                "gate-sim kernel needs a flat combinational module: "
                + (schedule.why or "{} has {} flops".format(
                    module.name, schedule.soa.n_seq)))
        return CompiledKernel(self, schedule_for(module, library))


register_kernel(Module, GateSimKernel())
