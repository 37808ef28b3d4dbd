import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from kissgeo import numkernel

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def eigh_orders(monkeypatch):
    """Orders of the matrices sym_eigen is called on."""
    orders = []
    original = numkernel.sym_eigen

    def spy(matrix):
        orders.append(np.shape(matrix)[0])
        return original(matrix)

    monkeypatch.setattr(numkernel, "sym_eigen", spy)
    return orders
