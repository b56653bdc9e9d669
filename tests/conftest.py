"""Fixtures shared across test modules."""

import time
from types import SimpleNamespace

import pytest

from sdeim import properties


@pytest.fixture(scope="session")
def property_report():
    """The session's one in-process run of every property suite:
    checks as properties.run_all(seed=0) returns them, and the seconds
    that run took."""
    t0 = time.perf_counter()
    checks = properties.run_all(seed=0)
    return SimpleNamespace(checks=checks, seconds=time.perf_counter() - t0)
