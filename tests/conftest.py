from __future__ import annotations

import time

import pytest

from sbc.oracle import enumerate_regular_subgroups


@pytest.fixture(scope="session")
def oracle_p5_scan():
    """(result, seconds): the memoized result stays untouched."""
    # Shared across modules: the scan of Sylow ambient 0 and its copies onto
    # the other five ambients take about half a second on a 2-vCPU VM.
    t0 = time.perf_counter()
    result = enumerate_regular_subgroups(5)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="session")
def oracle_p5(oracle_p5_scan):
    return oracle_p5_scan[0]
