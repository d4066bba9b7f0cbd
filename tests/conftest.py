"""Every test starts with cold oracle caches, so none passes or fails on
what an earlier test left behind."""

import functools

import pytest

from dfc import analysis


@pytest.fixture(autouse=True)
def cold_oracle_caches():
    for value in vars(analysis).values():
        if isinstance(value, functools._lru_cache_wrapper):
            value.cache_clear()
