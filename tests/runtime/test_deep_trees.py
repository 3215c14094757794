"""Process fan-outs on trees deeper than the recursion limit.

A 600-taxon caterpillar nests 599 levels deep.  Spawn workers receive
their trees pickled, and pickling the node graph recursively overflows
the interpreter stack at that depth; ``Tree.__reduce__`` pickles it
flat.  Every spawn path must score it exactly like serial ``bfhrf``,
and a store built from it must hold what a fresh count gives.
"""

import pytest

from repro.core.bfhrf import bfhrf_average_rf, build_bfh
from repro.core.parallel import dsmp_average_rf
from repro.core.shmrf import shm_average_rf
from repro.hashing.weighted import WeightedBipartitionHash
from repro.store import build_store

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
def test_store_build_matches_fresh_hashes(weighted, caterpillars, tmp_path):
    store = build_store(tmp_path / "s", caterpillars, weighted=weighted)
    assert store.bfh().counts == build_bfh(caterpillars).counts
    if weighted:
        fresh = WeightedBipartitionHash.from_trees(caterpillars)
        assert store.weighted_hash()._weights == \
            {m: sorted(v) for m, v in fresh._weights.items()}
