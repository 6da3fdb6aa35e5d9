"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from nestohedra import series


@pytest.fixture
def cold_series_caches():
    """Empty every lru_cache of the series module, before and after the test."""
    caches = [value for value in vars(series).values() if hasattr(value, "cache_clear")]
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
