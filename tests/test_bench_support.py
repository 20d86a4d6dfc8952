"""Tests for the benchmark support package (repro.bench) and errors."""

import pytest

from repro.bench import (
    SEED_VIEWS,
    TABLE_I_QUERY,
    TABLE_I_VIEWS,
    TEST_QUERIES,
    build_environment,
    build_view_patterns,
    format_bytes,
    format_seconds,
    format_table,
)
from repro.core import View
from repro.errors import (
    ReproError,
    RewritingError,
    StorageCorruptionError,
    StorageError,
    ViewNotAnswerableError,
    XMLParseError,
    XPathSyntaxError,
)
from repro.xpath import parse_xpath


class TestReportFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(12e-6) == "12.0 µs"
        assert format_seconds(2.5e-3) == "2.50 ms"
        assert format_seconds(1.25) == "1.250 s"

    def test_format_bytes_scales(self):
        assert format_bytes(12) == "12 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(3 * 1024 * 1024) == "3.0 MiB"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], "Title"
        )
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "longer" in table


class TestWorkloadDefinitions:
    def test_test_queries_parse(self):
        for expression, expected in TEST_QUERIES.values():
            pattern = parse_xpath(expression)
            assert pattern.size() >= 2
            assert expected in (1, 2, 3)

    def test_seed_views_parse(self):
        for expression in SEED_VIEWS.values():
            parse_xpath(expression)

    def test_table_i_matches_paper_example(self):
        views = {
            vid: View.from_xpath(vid, expr)
            for vid, expr in TABLE_I_VIEWS.items()
        }
        assert views["V1"].path_count == 2
        assert views["V3"].path_count == 1
        parse_xpath(TABLE_I_QUERY)


class TestEnvironmentBuilders:
    def test_environment_cached(self):
        first = build_environment(scale=0.1, view_count=5, seed=3)
        second = build_environment(scale=0.1, view_count=5, seed=3)
        assert first is second
        assert first.view_count >= 5  # seed views + generated

    def test_test_queries_answerable_in_environment(self):
        env = build_environment(scale=0.3, view_count=10, seed=3)
        for expression, _ in env.test_queries.values():
            outcome = env.system.answer(expression, "HV")
            assert outcome.codes == env.system.direct_codes(expression)

    def test_view_sets_nested(self):
        small = build_view_patterns(20, scale=0.1, seed=5)
        large = build_view_patterns(40, scale=0.1, seed=5)
        assert [v.to_xpath() for v in large[:20]] == [
            v.to_xpath() for v in small
        ]

    def test_view_sets_cached_slices(self):
        large = build_view_patterns(30, scale=0.1, seed=6)
        small = build_view_patterns(10, scale=0.1, seed=6)
        assert small == large[:10]


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            XMLParseError,
            XPathSyntaxError,
            StorageError,
            StorageCorruptionError,
            ViewNotAnswerableError,
            RewritingError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_corruption_is_storage_error(self):
        assert issubclass(StorageCorruptionError, StorageError)

    def test_xpath_error_carries_expression(self):
        error = XPathSyntaxError("bad", "//a[")
        assert "//a[" in str(error)
        assert error.expression == "//a["

    def test_parse_error_carries_position(self):
        error = XMLParseError("bad", 17)
        assert "17" in str(error)

    def test_unanswerable_defaults_empty_uncovered(self):
        error = ViewNotAnswerableError("nope")
        assert error.uncovered == frozenset()
