"""Hypothesis profiles for the test suite.

`ci` draws the same examples on every run (derandomize) and keeps no example
database, so a property that fails in CI fails the same way on any checkout:
`pytest --hypothesis-profile=ci`.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
