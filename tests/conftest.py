"""Shared test configuration: a deterministic hypothesis profile."""

from hypothesis import settings

# Derandomized and without an example database (which would replay earlier
# failures first), so every run tries the same examples and the suite's
# result does not change from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
