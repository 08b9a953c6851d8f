"""Test-wide settings: every Hypothesis test draws the same examples on every run.

`derandomize=True` seeds each test's search from the test itself, and
`database=None` stops a failure found once from being replayed first on
the next run; together they make two runs of the same code draw the same
examples. `deadline=None`, because a first call can pay for imports and
caches. Each test keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
