"""Unit tests for the method registry (repro.runtime.registry)."""

import pytest

from repro.runtime import (
    MethodSpec,
    get_method,
    method_names,
    methods,
    methods_docstring,
    methods_markdown_table,
)
from repro.util.errors import CollectionError

BUILTINS = ("bfhrf", "ds", "dsmp", "hashrf", "mrsrf", "shm")


class TestBuiltins:
    def test_all_builtins_registered(self):
        assert set(BUILTINS) <= set(method_names())

    def test_specs_are_consistent(self):
        for spec in methods():
            assert get_method(spec.name) is spec
            assert spec.summary
            assert spec.memory_class in {"hash", "matrix", "stream"}

    def test_capability_flags_match_reality(self):
        assert get_method("bfhrf").supports_disparate
        assert get_method("bfhrf").supports_transform
        assert not get_method("hashrf").supports_disparate
        assert not get_method("hashrf").supports_transform
        assert not get_method("mrsrf").supports_disparate
        assert not get_method("ds").supports_workers

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("quantum")


class TestEnsureSupported:
    def test_ok_combinations_pass(self):
        get_method("bfhrf").ensure_supported(disparate=True, transform=True)
        get_method("hashrf").ensure_supported()

    def test_violations_raise_uniform_collection_error(self):
        for name in ("hashrf", "mrsrf"):
            with pytest.raises(CollectionError, match="does not support"):
                get_method(name).ensure_supported(disparate=True)
            with pytest.raises(CollectionError, match="does not support"):
                get_method(name).ensure_supported(transform=True)

    def test_message_suggests_capable_alternatives(self):
        with pytest.raises(CollectionError, match="bfhrf"):
            get_method("hashrf").ensure_supported(disparate=True)


class TestSpecValidation:
    def test_bad_memory_class_rejected(self):
        with pytest.raises(ValueError, match="memory_class"):
            MethodSpec(name="x", runner=lambda *a, **k: [],
                       summary="s", memory_class="gpu")


class TestGeneratedDocs:
    def test_markdown_table_lists_every_method(self):
        table = methods_markdown_table()
        for name in method_names():
            assert f"`{name}`" in table
        assert table.splitlines()[0].startswith("| Method |")

    def test_docstring_block_lists_every_method(self):
        block = methods_docstring()
        for name in method_names():
            assert f"``{name}``" in block

    def test_average_rf_docstring_is_generated(self):
        from repro.core.api import average_rf

        for name in method_names():
            assert f"``{name}``" in average_rf.__doc__
        assert "<<METHOD_LIST>>" not in average_rf.__doc__

    def test_docs_api_md_table_in_sync(self):
        """docs/api.md embeds the registry table between markers; it must
        match the live registry byte for byte."""
        from pathlib import Path

        doc = Path(__file__).resolve().parents[2] / "docs" / "api.md"
        text = doc.read_text()
        start = text.index("<!-- method-table:start -->")
        end = text.index("<!-- method-table:end -->")
        embedded = text[start:end].split("-->", 1)[1].strip()
        assert embedded == methods_markdown_table().strip()
