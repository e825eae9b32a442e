"""Test-wide settings: every hypothesis test runs reproducibly.

The examples are derived from each test's name, so a run draws the same
inputs every time; there is no time limit per example, so a slow or
shared machine cannot fail a test that is correct; and no example
database is written to ``.hypothesis/``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
