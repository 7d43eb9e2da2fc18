"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """tracemalloc's peak, in bytes, over one call of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The function traced_peak(fn, *args): tracemalloc's peak, in bytes,
    over one call of fn(*args)."""
    return _traced_peak
