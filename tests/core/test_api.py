"""Unit tests for repro.core.api (high-level entry points)."""

import pytest

from repro.core.api import (
    as_trees,
    average_rf,
    best_query_tree,
    consensus,
    distance_matrix,
    rf_distance,
)
from repro.newick import trees_from_string, write_newick_file
from repro.util.errors import CollectionError

from tests.conftest import make_collection

NEWICK_TEXT = "((A,B),(C,D));\n((A,C),(B,D));"


class TestAsTrees:
    def test_list_passthrough(self, medium_collection):
        out = as_trees(medium_collection)
        assert out == list(medium_collection)

    def test_newick_text(self):
        out = as_trees(NEWICK_TEXT)
        assert len(out) == 2

    def test_path(self, tmp_path):
        trees = make_collection(8, 4, seed=61)
        path = tmp_path / "t.nwk"
        write_newick_file(path, trees)
        assert len(as_trees(str(path))) == 4
        assert len(as_trees(path)) == 4

    def test_bad_type(self):
        with pytest.raises(TypeError):
            as_trees(42)  # type: ignore[arg-type]


class TestAverageRF:
    def test_methods_agree_via_api(self):
        trees = make_collection(10, 12, seed=62)
        baseline = average_rf(trees, method="ds")
        for method in ("bfhrf", "dsmp", "hashrf"):
            assert average_rf(trees, method=method) == pytest.approx(baseline)

    def test_text_input(self):
        assert average_rf(NEWICK_TEXT) == [1.0, 1.0]

    def test_empty_text_reads_as_an_empty_newick_file(self):
        assert as_trees("") == []
        assert average_rf("", NEWICK_TEXT) == []
        for args in [("",), (NEWICK_TEXT, "")]:
            with pytest.raises(CollectionError, match="empty"):
                average_rf(*args)

    def test_query_and_reference_share_namespace(self):
        values = average_rf("((A,B),(C,D));", "((A,C),(B,D));\n((A,B),(C,D));")
        assert values == [1.0]

    def test_normalized(self):
        assert average_rf(NEWICK_TEXT, normalized=True) == [0.5, 0.5]

    def test_normalized_uses_each_trees_own_denominator(self):
        # Regression: the denominator used to come from query_trees[0]
        # only, skewing collections with variable taxon counts.
        from repro.core.rf import max_rf

        query = ("((A,B),(C,D));\n"               # 4 taxa -> 2(n-3) = 2
                 "(((A,B),(C,D)),(E,(F,G)));")    # 7 taxa -> 2(n-3) = 8
        reference = "((A,B),(C,D));\n((A,C),(B,D));"
        raw = average_rf(query, reference, method="ds")
        normed = average_rf(query, reference, method="ds", normalized=True)
        query_trees = as_trees(query)
        for tree, value, scaled in zip(query_trees, raw, normed):
            denominator = max_rf(tree.leaf_mask().bit_count())
            assert scaled == pytest.approx(value / denominator)
        # The two denominators genuinely differ, so the old bug would fail.
        masks = [t.leaf_mask().bit_count() for t in query_trees]
        assert max_rf(masks[0]) != max_rf(masks[1])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            average_rf(NEWICK_TEXT, method="psychic")

    def test_hashrf_rejects_disparate_collections(self):
        with pytest.raises(CollectionError):
            average_rf("((A,B),(C,D));", "((A,C),(B,D));", method="hashrf")

    def test_hashrf_rejects_transform(self):
        from repro.core.variants import size_filter_transform

        with pytest.raises(CollectionError):
            average_rf(NEWICK_TEXT, method="hashrf",
                       transform=size_filter_transform(min_size=2))

    def test_workers_parameter(self):
        trees = make_collection(10, 8, seed=63)
        assert average_rf(trees, method="bfhrf", n_workers=2) == pytest.approx(
            average_rf(trees, method="bfhrf"))


class TestRfDistance:
    def test_day_and_sets_agree(self, paper_trees):
        assert rf_distance(*paper_trees, method="day") == 2
        assert rf_distance(*paper_trees, method="sets") == 2

    def test_normalized(self, paper_trees):
        assert rf_distance(*paper_trees, method="day", normalized=True) == 1.0
        assert rf_distance(*paper_trees, method="sets", normalized=True) == 1.0

    def test_unknown_method(self, paper_trees):
        with pytest.raises(ValueError):
            rf_distance(*paper_trees, method="guess")


class TestDistanceMatrix:
    def test_from_text(self):
        m = distance_matrix(NEWICK_TEXT, method="naive")
        assert m.tolist() == [[0, 2], [2, 0]]


class TestBestQueryTree:
    def test_finds_majority_topology(self):
        refs = "((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));"
        candidates = "((A,D),(B,C));\n((A,B),(C,D));"
        index, tree, value = best_query_tree(candidates, refs)
        assert index == 1
        assert value == pytest.approx(2 / 3)

    def test_tie_goes_to_lowest_index(self):
        refs = "((A,B),(C,D));\n((A,C),(B,D));"
        candidates = "((A,B),(C,D));\n((A,C),(B,D));"
        index, _, value = best_query_tree(candidates, refs)
        assert index == 0
        assert value == 1.0

    def test_q_is_r(self):
        trees = make_collection(10, 8, seed=64)
        index, tree, value = best_query_tree(trees)
        values = average_rf(trees)
        assert value == min(values)
        assert index == values.index(min(values))

    def test_empty_query(self):
        with pytest.raises(CollectionError):
            best_query_tree([], NEWICK_TEXT)


class TestConsensusAPI:
    def test_majority_from_text(self):
        tree = consensus("((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));")
        from repro.bipartitions import bipartition_masks

        assert bipartition_masks(tree) == {0b0011}

    def test_empty(self):
        with pytest.raises(CollectionError):
            consensus([])


class TestEndpointDispatch:
    """``average_rf(..., endpoint=...)`` answers via a serve daemon,
    bitwise-identical to local compute against the stored trees."""

    @pytest.fixture
    def served(self, tmp_path):
        numpy = pytest.importorskip("numpy")  # noqa: F841 - serve needs it
        from repro.serve import ServeConfig, serving
        from repro.store import build_store

        collection = make_collection(10, 8, seed=20260815)
        store_path = tmp_path / "store"
        build_store(store_path, collection, n_shards=1)
        config = ServeConfig(endpoints=[str(tmp_path / "api.sock"),
                                        "tcp://127.0.0.1:0"],
                             tail_interval_s=0.05)
        with serving(store_path, config) as daemon:
            yield daemon, collection

    def test_remote_matches_local_bitwise_on_both_listeners(self, served):
        daemon, collection = served
        want = average_rf(collection, collection)
        for endpoint in daemon.bound_endpoints:
            assert average_rf(collection, endpoint=endpoint) == want

    def test_remote_accepts_url_strings_and_normalized(self, served):
        daemon, collection = served
        unix_ep = daemon.bound_endpoints[0]
        want = average_rf(collection, collection, normalized=True)
        got = average_rf(collection, endpoint=str(unix_ep), normalized=True)
        assert got == want

    @pytest.mark.parametrize("kwargs", [
        {"method": "bfhrf"},
        {"transform": lambda mask: mask},
        {"include_trivial": True},
    ])
    def test_endpoint_rejects_local_only_arguments(self, served, kwargs):
        daemon, collection = served
        with pytest.raises(CollectionError, match="endpoint"):
            average_rf(collection, endpoint=daemon.bound_endpoints[0],
                       **kwargs)

    def test_endpoint_rejects_reference(self, served):
        daemon, collection = served
        with pytest.raises(CollectionError, match="reference"):
            average_rf(collection, collection,
                       endpoint=daemon.bound_endpoints[0])
