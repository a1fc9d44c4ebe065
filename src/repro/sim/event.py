"""Event-driven gate-level simulator.

Zero-delay semantics: on each input change, affected cones re-evaluate until
the netlist settles (functional toggles only; the power model applies a
measured glitch factor for deep arithmetic arrays, see
:mod:`repro.power.dynamic`).  Flip-flops trigger on the rising edge of the
net at their clock pin -- the clock is an ordinary net, so gated and
duty-cycle-shaped clocks (the SCPG header control) simulate naturally.

On an acyclic combinational graph each settle wave is processed in
*topological generations*: all gates affected by one simultaneous set of
net changes are evaluated once each, in dependency order, so every net
makes at most one transition per generation and the recorded toggles are
exactly the functional ones (this is also what makes the levelized
vector-parallel engine in :mod:`repro.sim.compiled` bit-for-bit
equivalent).  Netlists with combinational feedback (latch loops) fall
back to FIFO event order, which settles loops but may record
order-dependent hazard transitions.

Typical use goes through :class:`~repro.sim.testbench.ClockedTestbench`;
direct use::

    sim = Simulator(design.flatten().top)
    sim.set_input("a_0", 1)
    sim.settle()
    value = sim.value("p_3")
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..errors import NetlistError, SimulationError
from ..tech.library import CellKind
from .logic import X, compile_cell, to_ternary

_MAX_EVENTS_PER_SETTLE = 4_000_000


class _CombRecord:
    __slots__ = ("name", "compiled", "in_idx", "out_idx", "rank")

    def __init__(self, name, compiled, in_idx, out_idx, rank=0):
        self.name = name
        self.compiled = compiled
        self.in_idx = in_idx        # net index per input pin
        self.out_idx = out_idx      # (pin_name, net_index) pairs
        self.rank = rank            # topological position (0 on loops)


class _SeqRecord:
    __slots__ = ("name", "kind", "d_idx", "ck_idx", "q_idx", "en_idx",
                 "rn_idx")

    def __init__(self, name, d_idx, ck_idx, q_idx, en_idx=None, rn_idx=None):
        self.name = name
        self.d_idx = d_idx
        self.ck_idx = ck_idx
        self.q_idx = q_idx
        self.en_idx = en_idx
        self.rn_idx = rn_idx


class Simulator:
    """Simulate one flat module.

    Parameters
    ----------
    module:
        A flat :class:`~repro.netlist.core.Module` (library cells only).
    record_toggles:
        Keep per-net 0<->1 toggle counts (enable for power analysis).
    """

    def __init__(self, module, record_toggles=True):
        self.module = module
        self.record_toggles = record_toggles

        self._net_index = {}
        self._nets = []
        for net in module.nets():
            self._net_index[id(net)] = len(self._nets)
            self._nets.append(net)
        n = len(self._nets)
        #: Net names in ``module.nets()`` (:attr:`values`) order.
        self.net_names = tuple(net.name for net in self._nets)
        self.non_const_nets = sum(1 for net in self._nets
                                  if not net.is_const)
        self.values = [X] * n
        self.toggles = [0] * n
        self._watchers = []  # callbacks (net, old, new)
        self._settle_shadow = None  # pre-settle values, active per wave

        for net in self._nets:
            if net.is_const:
                self.values[self._net_index[id(net)]] = net.const_value

        # Topological ranks drive the generational wave ordering; a
        # combinational loop (or a hierarchy error surfaced below) keeps
        # ranks empty and selects the FIFO fallback.
        try:
            from ..netlist.traverse import topological_instances

            ranks = {
                id(i): r for r, i in enumerate(topological_instances(module))
            }
        except NetlistError:
            ranks = None
        self._levelized = ranks is not None

        # Build instance records and the net -> loads map.
        self._comb = []
        self._seq = []
        self._loads = [[] for _ in range(n)]  # per net: records to notify
        for inst in module.instances():
            if not inst.is_cell:
                raise SimulationError(
                    "module {} is hierarchical; flatten first".format(
                        module.name
                    )
                )
            cell = inst.cell
            if cell.kind is CellKind.SEQUENTIAL:
                rec = self._build_seq(inst)
                self._seq.append(rec)
                self._loads[rec.ck_idx].append(rec)
                if rec.rn_idx is not None:
                    self._loads[rec.rn_idx].append(rec)
            elif cell.kind is CellKind.HEADER:
                continue  # headers have no logic outputs
            else:
                rec = self._build_comb(inst)
                if rec is None:
                    continue
                if ranks is not None:
                    rec.rank = ranks[id(inst)]
                self._comb.append(rec)
                for idx in set(rec.in_idx):
                    self._loads[idx].append(rec)
        if self._levelized:
            self._comb.sort(key=lambda r: r.rank)

        self._input_index = {}
        for port in module.input_ports():
            self._input_index[port.name] = self._net_index[id(port.net)]

        # Evaluate constants / ties into the netlist once.
        for rec in self._comb:
            if not rec.in_idx:
                self._eval_comb(rec, deque())
        self.settle()

    # -- construction helpers -------------------------------------------------

    def _idx(self, inst, pin, required=True):
        net = inst.connections.get(pin)
        if net is None:
            if required:
                raise SimulationError(
                    "instance {} pin {} unconnected".format(inst.name, pin)
                )
            return None
        return self._net_index[id(net)]

    def _build_comb(self, inst):
        cell = inst.cell
        compiled = compile_cell(cell)
        in_idx = tuple(self._idx(inst, p) for p in compiled.input_names)
        out_idx = tuple(
            (pin, self._net_index[id(net)])
            for pin, net in inst.connections.items()
            if pin in compiled.tables
        )
        if not out_idx:
            return None  # drives nothing: no effect on simulation
        return _CombRecord(inst.name, compiled, in_idx, out_idx)

    def _build_seq(self, inst):
        cell = inst.cell
        en_idx = self._idx(inst, "EN", required=False) if cell.has_pin("EN") \
            else None
        rn_idx = self._idx(inst, "RN", required=False) if cell.has_pin("RN") \
            else None
        q_idx = self._idx(inst, "Q", required=False)
        if q_idx is None:
            q_idx = -1  # flop output unused; still simulate (no-op)
        return _SeqRecord(
            inst.name,
            d_idx=self._idx(inst, "D"),
            ck_idx=self._idx(inst, "CK"),
            q_idx=q_idx,
            en_idx=en_idx,
            rn_idx=rn_idx,
        )

    # -- core propagation ------------------------------------------------------

    def _set_net(self, idx, value, queue):
        old = self.values[idx]
        if old == value:
            return
        if self._settle_shadow is not None:
            self._settle_shadow.setdefault(idx, old)
        self.values[idx] = value
        if self.record_toggles and old != X and value != X:
            self.toggles[idx] += 1
        if self._watchers:
            net = self._nets[idx]
            for cb in self._watchers:
                cb(net, old, value)
        queue.append((idx, old, value))

    def _eval_comb(self, rec, queue):
        vals = [self.values[i] for i in rec.in_idx]
        outs = rec.compiled.evaluate(vals)
        for pin, idx in rec.out_idx:
            self._set_net(idx, outs[pin], queue)

    def _pre_settle_value(self, idx):
        """Value a net had before the current settle wave began."""
        shadow = self._settle_shadow
        if shadow is not None and idx in shadow:
            return shadow[idx]
        return self.values[idx]

    def _sample_seq(self, rec, old, new, src_idx):
        """Decide a flop's new Q for this event; ``None`` means hold.

        D and EN are read at their *pre-settle* values: within one settle
        wave (one external stimulus -- typically a clock edge) a flip-flop
        must capture the data that existed before the edge started
        propagating, no matter how many zero-delay clock buffers, sibling
        flop outputs or clock-derived clamps fire in the same wave.  This
        is the hold-time contract of Fig. 4 in simulation form.
        """
        if rec.rn_idx is not None and self.values[rec.rn_idx] != 1:
            return 0 if self.values[rec.rn_idx] == 0 else X
        if src_idx != rec.ck_idx:
            return None  # reset released; no clock edge -> hold
        rising = old == 0 and new == 1
        if not rising:
            return X if new == X else None
        d = self._pre_settle_value(rec.d_idx)
        if rec.en_idx is not None:
            en = self._pre_settle_value(rec.en_idx)
            if en == 0:
                return None
            if en == X:
                d = X
        return d

    def _drain(self, queue):
        if not self._levelized:
            return self._drain_fifo(queue)
        events = 0
        outer = self._settle_shadow is None
        if outer:
            # Record each net's first pre-change value for this wave.
            self._settle_shadow = {}
            for idx, old, _new in queue:
                self._settle_shadow.setdefault(idx, old)
        heappush = heapq.heappush
        heappop = heapq.heappop
        try:
            while queue:
                # One generation: every change queued so far happened
                # "simultaneously".  Flops sample per originating event;
                # the affected combinational cone then settles in one
                # dependency-ordered sweep (each gate evaluated once, so
                # each net transitions at most once per generation).
                seq_updates = None
                dirty = {}
                heap = []
                for _ in range(len(queue)):
                    idx, old, new = queue.popleft()
                    events += 1
                    if events > _MAX_EVENTS_PER_SETTLE:
                        raise SimulationError(
                            "simulation did not settle (oscillating loop?)"
                            " in module {}".format(self.module.name)
                        )
                    for rec in self._loads[idx]:
                        if isinstance(rec, _SeqRecord):
                            value = self._sample_seq(rec, old, new, idx)
                            if value is not None and rec.q_idx >= 0 \
                                    and self.values[rec.q_idx] != value:
                                if seq_updates is None:
                                    seq_updates = []
                                seq_updates.append((rec.q_idx, value))
                        elif rec.rank not in dirty:
                            dirty[rec.rank] = rec
                            heappush(heap, rec.rank)
                # In-generation settling: evaluating a gate may dirty
                # higher-ranked loads; they join this same sweep.  Output
                # changes still enqueue (via _set_net) so flip-flops fed
                # by derived nets -- clock buffers, gated clocks -- sample
                # in the next generation.
                mark = len(queue)
                while heap:
                    self._eval_comb(dirty[heappop(heap)], queue)
                    for _ in range(len(queue) - mark):
                        oidx, _old, _new = queue[mark]
                        has_seq = False
                        for rec in self._loads[oidx]:
                            if isinstance(rec, _SeqRecord):
                                has_seq = True
                            elif rec.rank not in dirty:
                                dirty[rec.rank] = rec
                                heappush(heap, rec.rank)
                        if has_seq:
                            mark += 1
                        else:
                            del queue[mark]
                if seq_updates is not None:
                    for q_idx, value in seq_updates:
                        self._set_net(q_idx, value, queue)
        finally:
            if outer:
                self._settle_shadow = None

    def _drain_fifo(self, queue):
        """FIFO event order -- the fallback for combinational feedback."""
        events = 0
        outer = self._settle_shadow is None
        if outer:
            # Record each net's first pre-change value for this wave.
            self._settle_shadow = {}
            for idx, old, _new in queue:
                self._settle_shadow.setdefault(idx, old)
        try:
            while queue:
                idx, old, new = queue.popleft()
                events += 1
                if events > _MAX_EVENTS_PER_SETTLE:
                    raise SimulationError(
                        "simulation did not settle (oscillating loop?) in "
                        "module {}".format(self.module.name)
                    )
                loads = self._loads[idx]
                seq_updates = None
                for rec in loads:
                    if isinstance(rec, _SeqRecord):
                        value = self._sample_seq(rec, old, new, idx)
                        if value is not None and rec.q_idx >= 0 \
                                and self.values[rec.q_idx] != value:
                            if seq_updates is None:
                                seq_updates = []
                            seq_updates.append((rec.q_idx, value))
                for rec in loads:
                    if isinstance(rec, _CombRecord):
                        self._eval_comb(rec, queue)
                if seq_updates is not None:
                    for q_idx, value in seq_updates:
                        self._set_net(q_idx, value, queue)
        finally:
            if outer:
                self._settle_shadow = None

    # -- public API -------------------------------------------------------------

    def set_input(self, name, value):
        """Drive primary input ``name`` and propagate to settlement."""
        try:
            idx = self._input_index[name]
        except KeyError:
            raise SimulationError(
                "module {} has no input {}".format(self.module.name, name)
            ) from None
        queue = deque()
        self._set_net(idx, to_ternary(value), queue)
        self._drain(queue)

    def set_inputs(self, values):
        """Drive several inputs at once (dict name -> value), then settle.

        Driving together matters for multi-input transitions: the netlist
        sees one simultaneous change, like applying one test vector.
        """
        queue = deque()
        for name, value in values.items():
            try:
                idx = self._input_index[name]
            except KeyError:
                raise SimulationError(
                    "module {} has no input {}".format(self.module.name, name)
                ) from None
            self._set_net(idx, to_ternary(value), queue)
        self._drain(queue)

    def settle(self):
        """Propagate any pending changes (normally already settled)."""
        queue = deque()
        for rec in self._comb:
            self._eval_comb(rec, queue)
        self._drain(queue)

    def value(self, net_name):
        """Current 0/1/X value of net ``net_name``."""
        net = self.module.net(net_name)
        return self.values[self._net_index[id(net)]]

    def net_toggles(self, net_name):
        """Accumulated 0<->1 toggle count of a net."""
        net = self.module.net(net_name)
        return self.toggles[self._net_index[id(net)]]

    def total_toggles(self):
        """Sum of toggle counts over all nets."""
        return sum(self.toggles)

    @property
    def toggle_counts(self):
        """Per-net toggle counts as an ``int64`` array (:attr:`net_names`
        order)."""
        return np.asarray(self.toggles, dtype=np.int64)

    def toggle_snapshot(self):
        """Copy of per-net toggle counts as dict name -> count."""
        return {
            net.name: self.toggles[i] for i, net in enumerate(self._nets)
        }

    def state_snapshot(self):
        """Current net values as dict name -> 0/1/X (for state-dependent
        leakage analysis)."""
        return {
            net.name: self.values[i] for i, net in enumerate(self._nets)
        }

    def reset_toggles(self):
        """Zero all toggle counters."""
        self.toggles = [0] * len(self.toggles)

    def add_watcher(self, callback):
        """Register ``callback(net, old, new)`` on every net change."""
        self._watchers.append(callback)

    def flop_q(self, inst_name):
        """Current output value of flip-flop instance ``inst_name``."""
        for rec in self._seq:
            if rec.name == inst_name:
                if rec.q_idx < 0:
                    return X
                return self.values[rec.q_idx]
        raise SimulationError(
            "no flip-flop named {} in module {}".format(
                inst_name, self.module.name
            )
        )

    def force_flop_state(self, value=0):
        """Initialise every flip-flop output to ``value`` (dodges X-pessimism
        when a design has no reset, like the registered multiplier)."""
        queue = deque()
        for rec in self._seq:
            if rec.q_idx >= 0:
                self._set_net(rec.q_idx, to_ternary(value), queue)
        self._drain(queue)
