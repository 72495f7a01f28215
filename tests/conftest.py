"""Test-suite settings: hypothesis runs the same examples on every run and
keeps no example database, so the suite is reproducible and writes nothing."""

from hypothesis import settings

settings.register_profile("netportrait", derandomize=True, deadline=None, database=None)
settings.load_profile("netportrait")
