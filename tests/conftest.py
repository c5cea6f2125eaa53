import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(call)`` runs ``call()`` under tracemalloc and returns its
    result and the traced peak of that call in bytes. It makes no warm-up
    call: a test that wants one makes it first."""
    def measure(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
