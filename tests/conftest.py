import sys

import pytest


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
