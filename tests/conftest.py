import os

import pytest

from watertank.acceptance import cached_basis
from watertank.model import Params
from watertank.spectral import BcKind, w_modes


@pytest.fixture(scope="session", autouse=True)
def no_child_outlives_the_session():
    """Fail the session if a test left a child process, such as a lane ``run_all`` forked."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test session left a child process ({pid or 'still running'})")


@pytest.fixture(scope="session")
def basis_cache():
    """Session-wide memoized basis builder (shooting is the expensive part).

    It is the acceptance suite's memo, so the criteria and the tests share
    every basis they both build.
    """
    return cached_basis


@pytest.fixture(scope="session")
def wmodes_cache():
    return lambda params, N: w_modes(params, cached_basis(params, BcKind.CONSERVATIVE, N))


@pytest.fixture(scope="session")
def p_gamma0():
    return Params(gamma=0.0, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)


@pytest.fixture(scope="session")
def p_std():
    """The gamma = 0.05 diagnostic point used across the suite."""
    return Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)


@pytest.fixture(scope="session")
def p_synth():
    """The synthesis regime of the closed-loop criteria."""
    return Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=20, grid_points=2049)
