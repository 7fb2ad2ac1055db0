import pytest

from repcurve import ff


def _clear_field_caches():
    for ctx in list(ff._CTX_LIVE.values()):
        ctx._cache.clear()


@pytest.fixture(autouse=True)
def cold_family_modules():
    """Run every test with no shared v_d / v_dr module or table, so each
    test builds its own modules and the work they cache is counted there,
    and clear them after it, so no module a test built under a patched
    builder reaches a later test."""
    _clear_field_caches()
    yield
    _clear_field_caches()
