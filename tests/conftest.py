"""Test-suite settings and shared fixtures: hypothesis runs a fixed, bounded
set of examples, so the suite is deterministic and its property tests take
a few seconds. Every test runs with a factor that refuses its L and U
copies, so any solve that would keep such a copy fails."""

import importlib
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


class _FactorWithoutCopies:
    """A SuperLU factor whose `L` and `U` raise: SciPy builds those as CSC
    copies of the factor on first access and keeps them as long as the
    factor lives."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(
                f"a solve read lu.{name}, a CSC copy of its factor")
        return getattr(self._lu, name)


@pytest.fixture(autouse=True)
def factor_without_copies(monkeypatch):
    """Wrap every factor that mce.solve computes; oracles that call
    scipy.sparse.linalg.splu themselves are not affected."""
    solve_module = importlib.import_module("mce.solve")
    factor = solve_module.splu
    monkeypatch.setattr(solve_module, "splu",
                        lambda *a, **k: _FactorWithoutCopies(factor(*a, **k)))
