"""Test-suite settings: hypothesis runs the same examples on every run and
keeps no example database, so the suite is reproducible and writes nothing.

Hypothesis still caches constants it extracts from the source in its home
directory (``./.hypothesis`` by default), so the home directory is a
temporary one, removed at exit. It is set here, at import, because the cache
is written as soon as test modules are collected."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="netportrait-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)

settings.register_profile("netportrait", derandomize=True, deadline=None, database=None)
settings.load_profile("netportrait")
