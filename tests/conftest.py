"""Shared fixtures and the acceptance-summary hook.

Acceptance tests record one line per criterion through the record_criterion
fixture; the terminal summary prints them after the run so the pass/fail
status of every criterion is visible in one block.  The flux_p_value fixture
is the stationary flux-balance test on the enumerable twin, shared by
criterion 7 and the detailed-balance tests.  The deadline fixture makes a
call that once ran forever fail instead.  Property tests run under a
derandomised hypothesis profile, so every run draws the same examples.
"""

import contextlib
import signal

import pytest
from hypothesis import settings
from scipy import stats

from loopgas import surrogate

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

_ACCEPTANCE_LINES = {}


@pytest.fixture
def record_criterion():
    def rec(number, passed, detail, suffix=""):
        key = (int(number), suffix)
        status = "PASS" if passed else "FAIL"
        label = "criterion %2d%s" % (number, (" (%s)" % suffix) if suffix else "")
        _ACCEPTANCE_LINES[key] = "%s [%s] %s" % (label, status, detail)
    return rec


def _flux_p_value(params, family, seed, n_trials=3000):
    """p-value of matched transition counts under one family's moves.

    The twin has sites 0.0 and 0.6.  Each trial starts it from an exact
    stationary draw and applies one move of the family; stationarity plus
    reversibility force matched counts across each unordered state pair,
    judged by a chi-square over the pairs with at least 8 transitions.  NaN
    when no pair has that many.  No trial may end in a state outside the
    enumerated law, a state of zero weight: the chi-square never sees such
    an end, as no trial starts there.  The draw is assigned to the loop list, so
    the chain builds its cell index and carried energies afresh and the
    move runs on them: a trial sees one move's energy bookkeeping, not what
    a commit leaves for later moves.
    """
    gas = surrogate.DiscreteLoopGas(params, seed=seed)
    law = gas.enumerate_states()
    support = {surrogate.canonical(state) for state in law}
    counts = {}
    for _ in range(n_trials):
        gas.state = list(gas.sample_state(law))
        before = surrogate.canonical(gas.state)
        getattr(gas, "step_" + family)()
        after = surrogate.canonical(gas.state)
        assert after in support, "a %s move from %s ended in a state of zero weight, %s" % (
            family, before, after)
        if before != after:
            counts[(before, after)] = counts.get((before, after), 0) + 1
    chi2, df = 0.0, 0
    seen = set()
    for (a, b), n_ab in counts.items():
        if (b, a) in seen:
            continue
        seen.add((a, b))
        n_ba = counts.get((b, a), 0)
        total = n_ab + n_ba
        if total >= 8:
            chi2 += (n_ab - n_ba) ** 2 / total
            df += 1
    return 1.0 - stats.chi2.cdf(chi2, df=df) if df else float("nan")


@pytest.fixture(scope="session")
def flux_p_value():
    return _flux_p_value


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for seconds of wall
    time (a SIGALRM interval timer, so only in the main thread)."""
    def expire(signum, frame):
        raise TimeoutError("still running after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def deadline():
    return _deadline


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[key])
