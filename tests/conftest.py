"""Fixtures shared by every test module."""

import signal

import pytest

TEST_TIME_LIMIT_S = 60.0  # the slowest test takes about 3 s


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT_S. Not an Exception, so neither the code under
    test nor hypothesis catches it: hypothesis would replay the example with no timer."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S of wall time, so that a loop which
    never ends fails its test in place of hanging the suite. A test that arms its own
    SIGALRM timer replaces this one until the test ends."""
    if not hasattr(signal, "setitimer"):  # no interval timers on this platform
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TEST_TIME_LIMIT_S:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
