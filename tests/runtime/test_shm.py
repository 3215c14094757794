"""Payload accounting for the shm method's process fan-out.

The reference table travels in the executor's one payload next to the
query trees; bitwise parity of the method itself is covered in
``test_backend_parity``.
"""

import pickle

import pytest

from repro import observability as obs
from repro.core.bfhrf import build_bfh
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable
from repro.observability.metrics import metrics_snapshot
from repro.runtime import BACKENDS
from tests.conftest import make_collection


@pytest.fixture
def trees():
    return make_collection(n_taxa=12, n_trees=8, seed=404)


class TestPayloadAccounting:
    @pytest.mark.parametrize("backend", ["fork", "spawn"])
    def test_payload_bytes_count_the_trees_too(self, backend, trees):
        """The histogram adds the pickled query trees to the table, so a
        process fan-out does not report only the table it ships."""
        if not BACKENDS[backend].available():
            pytest.skip(f"{backend} unavailable here")
        table = BipartitionTable.from_bfh(build_bfh(trees), 12)
        table_bytes = len(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
        obs.reset()
        obs.enable()
        try:
            shm_average_rf(trees, trees, n_workers=2, executor=backend)
            payload = metrics_snapshot()["histograms"]["parallel.payload_bytes"]
            assert payload["count"] == 1
            assert payload["max"] > table_bytes
        finally:
            obs.disable()
            obs.reset()
