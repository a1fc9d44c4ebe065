"""Switching-activity capture and vector grouping (the paper's Fig. 7 flow).

The paper divides the 3700-vector Dhrystone run into groups of 10 vectors,
computes each group's average switching activity with PrimeTime-PX, plots
the per-group switching probability (Fig. 7), and picks the maximum /
minimum / average groups for detailed HSpice power simulation.  This module
reproduces that pipeline on our simulator: toggle counts per group, the
switching-probability series, and the representative-group selection.

Every group comes from :func:`group_from_delta` over a per-net toggle
delta: :class:`GroupRecorder` diffs any stepping driver's
``toggle_counts``, the batched replay sums blocks of its toggle matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GroupActivity:
    """Activity of one vector group.

    ``switching_probability`` is the average per-net toggle rate per cycle
    (the paper's y-axis); ``toggles`` maps net name -> count for the power
    engine.  A group made by :func:`group_from_delta` keeps its toggles as
    a sparse delta (nonzero net indices, their counts and the shared names
    array) and builds the dict on first access -- a long run records
    hundreds of groups whose dicts nothing may read.  Fields, ``==`` and
    the dict contents are those of an eagerly built group.
    """

    def __init__(self, index, cycles, total_toggles, nets, toggles=None):
        self.index = index
        self.cycles = cycles
        self.total_toggles = total_toggles
        self.nets = nets
        self._toggles = {} if toggles is None else toggles
        self._sparse = None

    @property
    def toggles(self):
        """Net name -> toggle count (nonzero nets only when built from a
        delta)."""
        if self._toggles is None:
            names, nz, counts = self._sparse
            self._toggles = dict(zip(names[nz].tolist(), counts.tolist()))
            self._sparse = None
        return self._toggles

    def _key(self):
        return (self.index, self.cycles, self.total_toggles, self.nets,
                self.toggles)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self):
        return ("GroupActivity(index={!r}, cycles={!r}, total_toggles={!r}, "
                "nets={!r}, toggles={!r})".format(*self._key()))

    @property
    def switching_probability(self):
        """Average toggles per net per cycle."""
        if self.cycles == 0 or self.nets == 0:
            return 0.0
        return self.total_toggles / (self.cycles * self.nets)


@dataclass
class ActivityTrace:
    """A full run's per-group activity plus representative groups."""

    groups: list = field(default_factory=list)

    @property
    def series(self):
        """Switching probability per group (Fig. 7's y series)."""
        return [g.switching_probability for g in self.groups]

    def representative_groups(self):
        """The paper's max / min / average trio.

        Returns a dict with keys ``max``, ``min``, ``avg`` -- the group with
        the highest, lowest, and closest-to-mean switching probability.
        """
        if not self.groups:
            raise ValueError("no activity groups recorded")
        by_prob = sorted(self.groups, key=lambda g: g.switching_probability)
        mean = sum(self.series) / len(self.groups)
        avg_group = min(
            self.groups,
            key=lambda g: abs(g.switching_probability - mean),
        )
        return {"max": by_prob[-1], "min": by_prob[0], "avg": avg_group}

    def average_switching_probability(self):
        """Cycle-weighted mean switching probability of the whole run."""
        total_cycles = sum(g.cycles for g in self.groups)
        if total_cycles == 0:
            return 0.0
        return (
            sum(g.switching_probability * g.cycles for g in self.groups)
            / total_cycles
        )


def group_from_delta(index, cycles, delta, names, nets):
    """The :class:`GroupActivity` of one group from its per-net toggle
    ``delta`` (int array aligned with the object array ``names``);
    ``nets`` is the non-constant net count.  The ``toggles`` dict is
    built lazily from the kept nonzero entries."""
    nz = np.nonzero(delta)[0]
    group = GroupActivity(index, cycles, int(delta.sum()), nets)
    group._toggles = None
    group._sparse = (names, nz, delta[nz])
    return group


class GroupRecorder:
    """Incrementally collect toggle counts into fixed-size cycle groups.

    ``driver`` exposes ``toggle_counts``, ``net_names`` and
    ``non_const_nets`` (a :class:`~repro.sim.event.Simulator`,
    :class:`~repro.sim.testbench.ClockedTestbench` or
    :class:`~repro.sim.compiled.ClosedLoopStepper`).
    """

    def __init__(self, driver, group_size=10):
        self.driver = driver
        self.group_size = group_size
        self.trace = ActivityTrace()
        self._cycles_in_group = 0
        self._names = np.asarray(driver.net_names, dtype=object)
        self._nets = driver.non_const_nets
        self._base = np.array(driver.toggle_counts, dtype=np.int64)

    def after_cycle(self):
        """Call once per simulated cycle."""
        self._cycles_in_group += 1
        if self._cycles_in_group >= self.group_size:
            self.flush()

    def flush(self):
        """Close the current group (no-op when empty)."""
        if self._cycles_in_group == 0:
            return
        counts = np.array(self.driver.toggle_counts, dtype=np.int64)
        self.trace.groups.append(group_from_delta(
            len(self.trace.groups), self._cycles_in_group,
            counts - self._base, self._names, self._nets))
        self._base = counts
        self._cycles_in_group = 0


def group_activity(module, vectors, group_size=10, clock="clk"):
    """Run ``vectors`` through ``module`` and return the grouped
    :class:`ActivityTrace` (paper Fig. 7 pipeline for open-loop stimuli).

    Rides the levelized struct-of-arrays engine
    (:mod:`repro.sim.compiled`) when the circuit qualifies, with a
    transparent event-simulator fallback -- the traces are bit-identical
    either way.
    """
    from .compiled import schedule_for

    run = schedule_for(module).run_vectors(
        list(vectors), clock=clock, group_size=group_size)
    return run.trace
