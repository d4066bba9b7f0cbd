"""Every test starts with cold oracle caches, so none passes or fails on
what an earlier test left behind."""

import pytest

from dfc import analysis


@pytest.fixture(autouse=True)
def cold_oracle_caches():
    analysis._template.cache_clear()
    analysis._set_optimum.cache_clear()
