"""Test-suite settings and shared fixtures: hypothesis runs a fixed, bounded
set of examples, so the suite is deterministic and its property tests take
a few seconds."""

import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile(
    "mce", derandomize=True, max_examples=300, deadline=None, database=None
)
settings.load_profile("mce")


@pytest.fixture
def peak_traced_mb():
    """`peak_traced_mb(fn, *args, **kwargs)` calls fn once and returns the
    peak of the memory Python allocated meanwhile (tracemalloc), in MB of
    2**20 bytes; what was allocated before the call does not count."""

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return measure
