import pytest

from lossywalk import linalg

_CACHED = (linalg._process_policy, linalg._openblas)  # the real ones, whatever a test patches


@pytest.fixture
def fresh_policy():
    """Clear the process policy and the BLAS lookup before the test and after it.

    The test then sees the first call, and the next solve after it looks the
    real library up and sets the policy again, even where the test faked the
    C library that the lookup opens.
    """
    for cached in _CACHED:
        cached.cache_clear()
    yield
    for cached in _CACHED:
        cached.cache_clear()
