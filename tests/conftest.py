"""Shared test configuration.

Hypothesis runs derandomized and without an example database, so a test
run does not depend on what earlier runs left in ``.hypothesis/``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
