"""Benchmark harness: shared environments, workloads, report formatting."""

from .harness import (
    FILTERING_CONFIG,
    PROCESSING_CONFIG,
    BenchEnvironment,
    build_environment,
    build_view_patterns,
)
from .report import format_bytes, format_seconds, format_table
from .workloads import SEED_VIEWS, TABLE_I_QUERY, TABLE_I_VIEWS, TEST_QUERIES

__all__ = [
    "BenchEnvironment",
    "FILTERING_CONFIG",
    "PROCESSING_CONFIG",
    "SEED_VIEWS",
    "TABLE_I_QUERY",
    "TABLE_I_VIEWS",
    "TEST_QUERIES",
    "build_environment",
    "build_view_patterns",
    "format_bytes",
    "format_seconds",
    "format_table",
]
