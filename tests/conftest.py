import pytest

from c2lab import adversarial


@pytest.fixture(autouse=True)
def _cold_sign_cache():
    """Start every test without cached FGSM sign matrices, so no test depends on run order."""
    adversarial._sign_cache.clear()
    yield
    adversarial._sign_cache.clear()
