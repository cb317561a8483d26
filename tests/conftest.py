import signal
import sys

import pytest

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 7 s; one past this has hung


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``TEST_TIME_LIMIT_S``.

    It is not an ``Exception``, so no handler in the code under test
    catches it, and Hypothesis, which shrinks after an ``Exception`` or a
    pytest failure, lets it through instead of running the test again.
    """


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past ``TEST_TIME_LIMIT_S``; the session goes on."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past {TEST_TIME_LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def shallow_stack():
    """Lower the recursion limit to 200 frames above the caller for one test.

    A computation that recurses once per list element or per swap fails
    under it, whatever the limit of the interpreter running the tests.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 200)
    yield
    sys.setrecursionlimit(old)
