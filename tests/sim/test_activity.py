"""Activity recording and the Fig. 7 vector-grouping pipeline."""

import pickle
import random

import numpy as np
import pytest

from repro.sim.activity import (
    GroupActivity,
    GroupRecorder,
    group_activity,
    group_from_delta,
)
from repro.sim.testbench import ClockedTestbench, bus_values


def _mult_vectors(rng, n, magnitude=0xFFFF):
    return [
        {**bus_values("a", 16, rng.getrandbits(16) & magnitude),
         **bus_values("b", 16, rng.getrandbits(16) & magnitude)}
        for _ in range(n)
    ]


class TestGrouping:
    def test_group_sizes(self, mult_module):
        rng = random.Random(1)
        trace = group_activity(mult_module, _mult_vectors(rng, 35),
                               group_size=10)
        assert [g.cycles for g in trace.groups] == [10, 10, 10, 5]
        assert [g.index for g in trace.groups] == [0, 1, 2, 3]

    def test_switching_probability_range(self, mult_module):
        rng = random.Random(2)
        trace = group_activity(mult_module, _mult_vectors(rng, 30))
        for g in trace.groups:
            assert 0.0 < g.switching_probability < 1.5

    def test_quiet_vs_busy_groups(self, mult_module):
        """Low-magnitude operands must produce visibly less switching."""
        rng = random.Random(3)
        vectors = _mult_vectors(rng, 10, magnitude=0x0003) \
            + _mult_vectors(rng, 10, magnitude=0xFFFF)
        trace = group_activity(mult_module, vectors, group_size=10)
        quiet, busy = trace.groups
        assert busy.switching_probability > 2 * quiet.switching_probability

    def test_representative_selection(self, mult_module):
        rng = random.Random(4)
        vectors = _mult_vectors(rng, 10, 0x0003) \
            + _mult_vectors(rng, 10, 0x00FF) \
            + _mult_vectors(rng, 10, 0xFFFF)
        trace = group_activity(mult_module, vectors, group_size=10)
        reps = trace.representative_groups()
        assert reps["max"].switching_probability >= \
            reps["avg"].switching_probability >= \
            reps["min"].switching_probability
        assert reps["max"].index == 2
        assert reps["min"].index == 0

    def test_empty_trace_rejected(self, mult_module):
        trace = group_activity(mult_module, [])
        with pytest.raises(ValueError):
            trace.representative_groups()

    def test_average_weighted_by_cycles(self, mult_module):
        rng = random.Random(5)
        trace = group_activity(mult_module, _mult_vectors(rng, 25))
        avg = trace.average_switching_probability()
        assert min(trace.series) <= avg <= max(trace.series)

    def test_toggle_deltas_per_group(self, mult_module):
        """Group toggle dicts are deltas, not cumulative counts."""
        rng = random.Random(6)
        trace = group_activity(mult_module, _mult_vectors(rng, 20))
        total = sum(g.total_toggles for g in trace.groups)
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        rng = random.Random(6)
        for vec in _mult_vectors(rng, 20):
            tb.cycle(vec)
        assert total == tb.sim.total_toggles()


class TestRecorder:
    def test_flush_idempotent(self, mult_module):
        tb = ClockedTestbench(mult_module)
        tb.force_flops()
        rec = GroupRecorder(tb.sim, group_size=10)
        tb.cycle(bus_values("a", 16, 5))
        rec.after_cycle()
        rec.flush()
        rec.flush()
        assert len(rec.trace.groups) == 1


class TestLazyGroups:
    """Groups keep a sparse delta and build ``toggles`` on first read."""

    def _delta_group(self, index=0):
        names = np.asarray(["n0", "n1", "n2", "n3"], dtype=object)
        delta = np.asarray([0, 3, 0, 1], dtype=np.int64)
        return group_from_delta(index, 10, delta, names, 4)

    def test_toggles_equal_eager_dict(self):
        group = self._delta_group()
        eager = GroupActivity(0, 10, 4, 4, {"n1": 3, "n3": 1})
        assert group.toggles == {"n1": 3, "n3": 1}
        assert all(type(v) is int for v in group.toggles.values())
        assert group == eager and eager == group
        assert repr(group) == repr(eager)

    def test_equality(self):
        assert self._delta_group() == self._delta_group()
        assert self._delta_group(0) != self._delta_group(1)
        assert GroupActivity(0, 10, 4, 4) == GroupActivity(0, 10, 4, 4, {})
        assert self._delta_group() != GroupActivity(0, 10, 4, 4, {"n1": 3})

    def test_pickle_round_trip(self):
        lazy, built = self._delta_group(), self._delta_group()
        assert built.toggles  # materialised before pickling
        for group in (lazy, built):
            back = pickle.loads(pickle.dumps(group))
            assert back == group
            assert back.toggles == {"n1": 3, "n3": 1}
            assert back.switching_probability == group.switching_probability

    def test_recorded_trace_matches_eager(self, mult_module):
        rng = random.Random(8)
        trace = group_activity(mult_module, _mult_vectors(rng, 12),
                               group_size=5)
        eager = [GroupActivity(g.index, g.cycles, g.total_toggles, g.nets,
                               dict(g.toggles)) for g in trace.groups]
        assert trace.groups == eager
        assert all(sum(g.toggles.values()) == g.total_toggles
                   for g in trace.groups)
