"""Shared test settings: one hypothesis profile without a per-example deadline.

The exact-arithmetic properties take uneven time per example, so a deadline
would only report slow examples, not wrong ones.
"""

from hypothesis import settings

settings.register_profile("multising", deadline=None)
settings.load_profile("multising")
