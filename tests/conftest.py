"""Test-wide settings: every property test draws the same examples on
every run, so a Tier-1 result can be reproduced.  Each test keeps its own
``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
