import warnings

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "eislab",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("eislab")


@pytest.fixture(autouse=True)
def _quiet_bulk_warnings():
    # out-of-bulk warnings from weight evaluations are expected in tests that
    # probe the weights away from the asymptotic window
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*outside the bulk range.*")
        yield
