import pytest

from repcurve import kmod


@pytest.fixture(autouse=True)
def cold_family_modules():
    """Start every test with no shared v_d / v_dr module, so each test
    builds its own modules and the work they cache is counted there."""
    kmod._FAMILY.clear()
