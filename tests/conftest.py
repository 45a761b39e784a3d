from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
import pytest

from sbc.automorphisms import sylow_aut_subgroup, sylow_p_subgroups_gl2
from sbc.oracle import enumerate_regular_subgroups
from sbc.tables import aut_table


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


@lru_cache(maxsize=None)
def _scalar_sylow_ambients(p: int) -> tuple[np.ndarray, ...]:
    aut = aut_table(p)
    out = []
    for mats in sylow_p_subgroups_gl2(p):
        members = np.sort([aut.index_of(a) for a in sylow_aut_subgroup(p, mats)])
        members.flags.writeable = False
        out.append(members)
    return tuple(out)


@pytest.fixture(scope="session")
def sylow_ambients():
    """p -> the Aut(M1) indices of the p + 1 Sylow p-subgroups by the scalar
    route, one ascending array each, in `sylow_p_subgroups_gl2` order."""
    return _scalar_sylow_ambients
