"""Hypothesis settings for the test suite.

With ``CI`` set (GitHub Actions sets it), the ``ci`` profile prints a
reproduction blob for every failing property test; example counts stay as
the tests declare them.
"""
import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
