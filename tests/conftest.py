from __future__ import annotations

import time

import pytest

from sbc.oracle import enumerate_regular_subgroups


@pytest.fixture(scope="session")
def oracle_p5_scan():
    """(result, seconds): the memoized result stays untouched."""
    # Shared across modules: the six-ambient scan takes about half a minute.
    # jobs=2 also exercises the process-pool path.
    t0 = time.perf_counter()
    result = enumerate_regular_subgroups(5, jobs=2)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_p5(oracle_p5_scan):
    return oracle_p5_scan[0]
