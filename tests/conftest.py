import pytest

from lossywalk import linalg


@pytest.fixture
def fresh_pin():
    """Clear the process's cached BLAS pin before the test and after it.

    The test then sees the first call, and the next solve after it pins the
    real library again.
    """
    linalg.pin_one_blas_thread.cache_clear()
    yield
    linalg.pin_one_blas_thread.cache_clear()
