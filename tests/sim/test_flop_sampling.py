"""The fused flop-sampling table against the rule it replaces.

``CompiledSchedule._sample_flops`` looks each flop's next Q up in a
table built once over all 3**6 pin combinations.  The reference below is
the elementwise ``np.where`` chain the table was built to replace; the
table must agree with it on every combination and pin kind, and a lookup
over whole rows must agree with it flop by flop.
"""

import numpy as np
import pytest

from repro.sim.compiled import _diff, _flop_table, schedule_for
from repro.sim.logic import X

from .test_stepper_pins import build_pin_kinds


def reference_next_q(ck_old, ck_new, d_pre, en_pre, rn_now, held):
    """The event simulator's sampling rules as an ``np.where`` chain."""
    changed = ck_new != ck_old
    rising = (ck_old == 0) & (ck_new == 1)
    q_next = np.where(changed & ~rising & (ck_new == X), X, held)
    d_eff = np.where(en_pre == X, X, d_pre)
    q_next = np.where(rising & (en_pre != 0), d_eff, q_next)
    q_next = np.where(rn_now == 0, 0, q_next)
    q_next = np.where(rn_now == X, X, q_next)
    return q_next.astype(np.int8)


def reference_sample(soa, pre, now):
    """``now`` with every flop's Q replaced per the reference rules
    (absent EN/RN read as 1), plus whether any Q moved."""
    rows = np.nonzero(soa.seq_q >= 0)[0]
    q, ck, d = soa.seq_q[rows], soa.seq_ck[rows], soa.seq_d[rows]
    en, rn = soa.seq_en[rows], soa.seq_rn[rows]
    en_pre = np.where(en >= 0, pre[..., np.maximum(en, 0)], 1)
    rn_now = np.where(rn >= 0, now[..., np.maximum(rn, 0)], 1)
    q_next = reference_next_q(pre[..., ck], now[..., ck], pre[..., d],
                              en_pre, rn_now, now[..., q])
    out = now.copy()
    out[..., q] = q_next
    return out, not np.array_equal(q_next, now[..., q])


#: Every 6-digit ternary key, one digit per row (digit 0 first).
DIGITS = np.arange(3 ** 6) // 3 ** np.arange(6)[:, None] % 3


@pytest.fixture(scope="module")
def pin_kinds_schedule(lib):
    return schedule_for(build_pin_kinds(lib))


def test_x_is_two():
    """The two-op toggle mask ``a + b == 1`` relies on X == 2."""
    assert X == 2


def test_diff_matches_long_form():
    a, b = (v.ravel().astype(np.int8)
            for v in np.meshgrid([0, 1, X], [0, 1, X]))
    assert np.array_equal(_diff(a, b), (a != b) & (a != X) & (b != X))


@pytest.mark.parametrize("has_en", [False, True])
@pytest.mark.parametrize("has_rn", [False, True])
def test_table_matches_reference(has_en, has_rn):
    """Every pin kind's block equals the rule on all 729 combinations;
    an absent pin's digit is ignored (read as 1)."""
    ck_old, d_pre, en_pre, ck_new, rn_now, held = DIGITS
    kind = int(has_en) + 2 * int(has_rn)
    block = _flop_table()[kind * 3 ** 6:(kind + 1) * 3 ** 6]
    assert block.dtype == np.int8
    expected = reference_next_q(ck_old, ck_new, d_pre,
                                en_pre if has_en else 1,
                                rn_now if has_rn else 1, held)
    assert np.array_equal(block, expected)


def test_schedule_covers_every_kind(pin_kinds_schedule, m0_module):
    """The toy has plain, EN and RN flops, and so does the M0-lite."""
    for schedule in (pin_kinds_schedule, schedule_for(m0_module)):
        soa = schedule.soa
        kinds = set(((soa.seq_en >= 0) + 2 * (soa.seq_rn >= 0)).tolist())
        assert kinds == {0, 1, 2}


@pytest.mark.parametrize("which", ["toy", "m0lite"])
def test_sample_matches_reference_on_random_rows(which, pin_kinds_schedule,
                                                 m0_module):
    schedule = pin_kinds_schedule if which == "toy" \
        else schedule_for(m0_module)
    soa = schedule.soa
    rng = np.random.default_rng(7)
    pre = rng.integers(0, 3, (64, soa.n_nets)).astype(np.int8)
    now = rng.integers(0, 3, (64, soa.n_nets)).astype(np.int8)

    batch = now.copy()
    moved = schedule._sample_flops(pre, batch)
    expected, expected_moved = reference_sample(soa, pre, now)
    assert np.array_equal(batch, expected)
    assert moved == expected_moved

    for i in range(len(pre)):
        row = now[i].copy()
        moved = schedule._sample_flops(pre[i], row)
        expected, expected_moved = reference_sample(soa, pre[i], now[i])
        assert np.array_equal(row, expected)
        assert moved == expected_moved


def test_quiet_phase_reports_no_change(pin_kinds_schedule):
    """Unchanged clock and inactive RN: every flop holds, the row is
    untouched and the sampler says so."""
    schedule = pin_kinds_schedule
    soa = schedule.soa
    rng = np.random.default_rng(3)
    row = rng.integers(0, 3, soa.n_nets).astype(np.int8)
    row[soa.seq_rn[soa.seq_rn >= 0]] = 1
    now = row.copy()
    assert schedule._sample_flops(row, now) is False
    assert np.array_equal(now, row)
