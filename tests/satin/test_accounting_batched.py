"""Property tests: the flat batched accumulators are the per-transition path.

The worker hot paths charge activity through the unvalidated fast adders
(``add_busy`` / ``add_idle`` / ``add_bench`` / ``add_comm``); reports are
assembled once per monitoring period at ``rollover``. These properties pin
the batched bookkeeping to two references:

* the validated generic adder in ``tests/reference/accounting.py`` (the
  per-transition reference path that predates the flat accumulators), and
* a naive fold-left dict accumulator.

Because all three fold the same additions in the same order, the splits
must agree *bit-exactly* — the 1e-9 tolerance in the assertions is slack
we never expect to use. Scenario-level conservation (ledger category sums
equal the period length to 1e-6, on s4 and every other registered
scenario) is covered by ``tests/integration/test_profile.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.satin.accounting import CATEGORIES, TimeAccount
from tests.reference.accounting import add

TOL = 1e-9

durations = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
ops = st.lists(
    st.tuples(st.sampled_from(CATEGORIES), durations), min_size=0, max_size=200
)


def _fast_add(account: TimeAccount, category: str, seconds: float) -> None:
    """Charge through the same fast adders the worker hot paths use."""
    if category == "busy":
        account.add_busy(seconds)
    elif category == "idle":
        account.add_idle(seconds)
    elif category == "bench":
        account.add_bench(seconds)
    else:
        account.add_comm(category, seconds)


@given(ops)
@settings(max_examples=200, deadline=None)
def test_fast_adders_match_validated_add_and_naive_fold(sequence):
    fast = TimeAccount(0.0)
    ref = TimeAccount(0.0)
    naive = {c: 0.0 for c in CATEGORIES}
    for category, seconds in sequence:
        _fast_add(fast, category, seconds)
        add(ref, category, seconds)
        naive[category] += seconds
    for c in CATEGORIES:
        assert fast.total(c) == ref.total(c)  # identical fold -> bit-exact
        assert fast.lifetime(c) == ref.lifetime(c)
        assert abs(fast.total(c) - naive[c]) <= TOL
        assert abs(fast.lifetime(c) - naive[c]) <= TOL


@given(ops, st.lists(st.integers(min_value=0, max_value=199), max_size=8))
@settings(max_examples=200, deadline=None)
def test_rollovers_conserve_lifetime_splits(sequence, rollover_points):
    """Period reports plus the open period sum to the lifetime totals:
    rolling over loses and invents nothing, wherever the boundaries fall."""
    account = TimeAccount(0.0)
    cut = set(rollover_points)
    reports = []
    now = 0.0
    for i, (category, seconds) in enumerate(sequence):
        _fast_add(account, category, seconds)
        now += seconds
        if i in cut:
            reports.append(account.rollover(now, "w0", "c0", speed=1.0))
    for c in CATEGORIES:
        per_period = sum(getattr(r, c) for r in reports) + account.total(c)
        assert per_period == pytest.approx(account.lifetime(c), abs=TOL)
    assert account.period_index == len(reports)
    for idx, report in enumerate(reports):
        assert report.period_index == idx
        assert report.accounted == pytest.approx(
            sum(getattr(report, c) for c in CATEGORIES), abs=TOL
        )


def test_generic_add_still_validates():
    account = TimeAccount(0.0)
    with pytest.raises(ValueError):
        add(account, "lunch", 1.0)
    with pytest.raises(ValueError):
        add(account, "busy", -0.5)
    with pytest.raises(KeyError):
        account.total("lunch")
    with pytest.raises(KeyError):
        account.lifetime("lunch")
