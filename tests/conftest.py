"""Test-suite settings: hypothesis runs a fixed, bounded set of examples, so
the suite is deterministic and its property tests take a few seconds."""

from hypothesis import settings

settings.register_profile(
    "mce", derandomize=True, max_examples=300, deadline=None, database=None
)
settings.load_profile("mce")
