"""``probe_order`` and ``BipartitionTable.from_rows`` against the void sort.

The probe order is the order ``np.searchsorted`` over void views of the
rows uses.  The library gets it from a lexsort over byteswapped words;
the void ``np.unique`` it replaced is kept here as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.table import BipartitionTable, probe_order


def _void(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows).view(
        np.dtype((np.void, 8 * rows.shape[1]))).ravel()


def _oracle(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys, counts = np.unique(_void(rows), return_counts=True)
    return (np.ascontiguousarray(keys).view(np.uint64).reshape(
        -1, rows.shape[1]), counts)


def _rows(n_rows: int, n_words: int, seed: int) -> np.ndarray:
    """Rows with repeats, rows equal but for one word, and keys with bit
    63 set in every word position."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2 ** 64, size=(max(1, n_rows // 3), n_words),
                        dtype=np.uint64)
    pool[::2] |= np.uint64(1 << 63)
    if len(pool) > 1:
        pool[1, :-1] = pool[0, :-1]  # shares all but the last word
    rows = pool[rng.integers(0, len(pool), size=n_rows)]
    # Words that differ only in one byte, high or low.
    rows[::5, -1] ^= np.uint64(1 << 56)
    rows[::7, 0] ^= np.uint64(1)
    return rows


@pytest.mark.parametrize("n_words", [1, 2, 3, 4])
@pytest.mark.parametrize("n_rows", [0, 1, 2, 17, 2000])
def test_from_rows_matches_void_unique(n_rows, n_words):
    rows = _rows(n_rows, n_words, seed=31 * n_rows + n_words)
    table = BipartitionTable.from_rows(rows, n_taxa=64 * n_words,
                                       n_trees=3)
    keys, counts = _oracle(rows)
    assert table.keys.shape == (len(keys), n_words)
    assert np.array_equal(table.keys, keys)
    assert np.array_equal(table.counts, counts)
    assert table.total == n_rows


@pytest.mark.parametrize("n_words", [1, 2, 3, 4])
def test_probe_order_is_the_stable_void_order(n_words):
    rows = _rows(500, n_words, seed=n_words)
    order = probe_order(rows)
    assert np.array_equal(order,
                          np.argsort(_void(rows), kind="stable"))


def test_table_keys_are_found_by_void_searchsorted():
    rows = _rows(300, 3, seed=7)
    table = BipartitionTable.from_rows(rows, n_taxa=192, n_trees=1)
    void = _void(table.keys)
    assert np.array_equal(probe_order(table.keys), np.arange(len(void)))
    assert np.array_equal(void[np.searchsorted(void, _void(rows))],
                          _void(rows))


def test_empty_rows():
    for n_words in (1, 3):
        rows = np.zeros((0, n_words), dtype=np.uint64)
        assert probe_order(rows).tolist() == []
        table = BipartitionTable.from_rows(rows, n_taxa=64 * n_words,
                                           n_trees=0)
        assert len(table) == 0 and table.keys.shape == (0, n_words)
