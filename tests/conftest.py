"""Shared pytest configuration.

``--hypothesis-profile=ci`` selects a derandomized profile without
deadlines, so property tests draw the same examples on every run.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
