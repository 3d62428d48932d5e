"""Shared fixtures: solved problems are expensive, so they are session-scoped."""

import numpy as np
import pytest

from psaddle import system as sy
from psaddle.spaces import default_pair


def _discretization(problem, nt, nx):
    return sy.Discretization(default_pair(nt, nx), problem.mu, problem.data)


@pytest.fixture(scope="session")
def heat8():
    return _discretization(sy.heat_problem(), 8, 8)


@pytest.fixture(scope="session")
def quasi8():
    return _discretization(sy.quasilinear_problem(), 8, 8)


@pytest.fixture(scope="session")
def ramp8():
    # bounded-ramp with b = 0 declares m_mu = M_mu = 1.5: a constant mu
    # other than the heat problem's c = 1
    problem = sy.quasilinear_problem("bounded-ramp", a=1.5, b=0.0)
    return _discretization(problem, 8, 8)


@pytest.fixture(scope="session")
def heat_problem():
    return sy.heat_problem()


@pytest.fixture(scope="session")
def quasi_problem():
    return sy.quasilinear_problem()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
