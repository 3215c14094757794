"""Property tests: the pickled reference table round-trips the dict BFH
exactly.

Seeded ``generate_case`` workloads (hostile labels, multifurcations,
zero-length branches) drive the ``check_shm_roundtrip`` oracle; a
dedicated profile forces the taxon count onto 64/128-bit word edges,
where the packed-bitmask row width of the shipped table changes and
off-by-one word bugs would live.  Splitless (star) references pin the
empty-table path.  The same oracle runs inside ``bfhrf selfcheck``'s
quick profile; this file is its deterministic pytest twin.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.bfhrf import build_bfh
from repro.core.shmrf import shm_average_rf
from repro.core.table import BipartitionTable
from repro.newick import trees_from_string
from repro.testing.generators import PROFILES, generate_case
from repro.testing.oracles import check_shm_roundtrip

QUICK_SEEDS = range(2600, 2616)

# Force every case onto a word-boundary taxon count: 63/64/65 straddle
# the single-word edge, 127/128/129 the two-word edge.
BOUNDARY_PROFILE = replace(PROFILES["deep"], name="shm-boundary",
                           boundary_taxa=(63, 64, 65, 127, 128, 129),
                           boundary_taxa_prob=1.0,
                           max_trees=6)
BOUNDARY_SEEDS = range(7100, 7112)


def _shipped(table: BipartitionTable) -> BipartitionTable:
    """The table as a spawn worker receives it."""
    return pickle.loads(pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("seed", QUICK_SEEDS)
def test_roundtrip_matches_dict_bfh(seed):
    case = generate_case(seed, "quick")
    failures = check_shm_roundtrip(case)
    assert not failures, "\n".join(str(f) for f in failures)


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_roundtrip_at_word_boundaries(seed):
    case = generate_case(seed, BOUNDARY_PROFILE)
    assert case.notes.get("boundary_taxa") is True
    # The *namespace* (and hence mask width) sits on the word edge even
    # when a variable-taxa case prunes some leaves from the trees.
    assert case.notes["n_taxa"] in BOUNDARY_PROFILE.boundary_taxa
    failures = check_shm_roundtrip(case)
    assert not failures, "\n".join(str(f) for f in failures)


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_keys_span_expected_word_count(seed):
    """The shipped row width must jump exactly at the 64-taxon edge."""
    case = generate_case(seed, BOUNDARY_PROFILE)
    n_taxa = len(case.reference[0].taxon_namespace)
    bfh = build_bfh(case.reference, include_trivial=case.include_trivial)
    table = _shipped(BipartitionTable.from_bfh(bfh, max(1, n_taxa)))
    assert table.n_words == table.keys.shape[1] == max(1, -(-n_taxa // 64))
    assert table.to_bfh().counts == bfh.counts


def test_splitless_star_reference():
    """A star tree contributes no internal splits: empty shipped table."""
    trees = trees_from_string("(A,B,C,D,E);\n(A,B,C,D,E);\n(A,B,C,D,E);")
    bfh = build_bfh(trees)
    assert not bfh.counts
    table = _shipped(BipartitionTable.from_bfh(bfh, 5))
    assert len(table) == 0
    # Every query is maximally distant from an empty reference table.
    got = shm_average_rf(trees, table=table)
    from repro.core.bfhrf import bfhrf_average_rf

    assert got == bfhrf_average_rf(trees, trees)


def test_splitless_query_against_resolved_reference():
    resolved = trees_from_string("((A,B),(C,(D,E)));\n((A,C),(B,(D,E)));")
    star = trees_from_string("(A,B,C,D,E);", resolved[0].taxon_namespace)
    from repro.core.bfhrf import bfhrf_average_rf

    got = shm_average_rf(star, resolved)
    assert got == bfhrf_average_rf(star, resolved)


def test_selfcheck_quick_profile_includes_shm_roundtrip():
    """The oracle must actually run inside ``bfhrf selfcheck``."""
    from repro.testing.harness import CASE_CHECKS

    assert "shm-roundtrip" in CASE_CHECKS
    assert CASE_CHECKS["shm-roundtrip"] is check_shm_roundtrip
