"""Test configuration shared by every test module."""

from hypothesis import settings

# Properties draw their examples from a seed derived from each test, so a
# run tries the same examples on every machine and interpreter; the
# example counts, deadlines and health checks keep Hypothesis's defaults.
settings.register_profile("fixed-seed", derandomize=True)
settings.load_profile("fixed-seed")
