"""Process fan-outs on trees deeper than the recursion limit.

A 600-taxon caterpillar nests 599 levels deep.  Spawn workers receive
their trees pickled, and pickling the node graph recursively overflows
the interpreter stack at that depth; ``Tree.__reduce__`` pickles it
flat.  Every spawn path must score it exactly like serial ``bfhrf``.
"""

import pytest

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.parallel import dsmp_average_rf
from repro.core.shmrf import shm_average_rf
from repro.store.shards import parallel_build_tables

from tests.conftest import make_caterpillars

METHODS = {"bfhrf": bfhrf_average_rf, "dsmp": dsmp_average_rf,
           "shm": shm_average_rf}


@pytest.fixture(scope="module")
def caterpillars():
    return make_caterpillars(600, 4, seed=11)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_spawn_average_rf_matches_serial(method, caterpillars):
    serial = bfhrf_average_rf(caterpillars, caterpillars, n_workers=1)
    assert any(serial)
    values = METHODS[method](caterpillars, caterpillars, n_workers=2,
                             executor="spawn")
    assert values == serial


@pytest.mark.parametrize("weighted", [False, True])
def test_spawn_shard_build_matches_serial(weighted, caterpillars):
    serial = parallel_build_tables(caterpillars, include_trivial=False,
                                   weighted=weighted, n_workers=1)
    tables = parallel_build_tables(caterpillars, include_trivial=False,
                                   weighted=weighted, n_workers=2,
                                   executor="spawn")
    assert tables == serial
    assert tables[0] == build_bfh(caterpillars).counts
