"""Fixtures shared by the test modules."""

import pytest

from bergman_indices import quadrature as qd


@pytest.fixture
def clear_separable_caches():
    """Empty every cache of the separable quadrature path, after asserting
    each one's bound; returns the function that empties them again."""
    caches = {qd._leggauss01: None, qd._mapped_rule: qd.RULE_CACHE_SIZE,
              qd._log_rule: qd.RULE_CACHE_SIZE, qd._axis_integral: qd.AXIS_MEMO_SIZE}
    for cache, size in caches.items():
        assert cache.cache_info().maxsize == size

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    return clear
