"""Suite-wide hypothesis settings: every property test runs derandomised, so the
suite gives the same examples on every run, and with no deadline, since the
first call of a kernel pays for its cached tables."""

from hypothesis import settings

settings.register_profile("entact", deadline=None, derandomize=True)
settings.load_profile("entact")
