"""One mode-index convention for every mode family: rows -N..N, nothing else."""

import pytest

from watertank.backstepping import build_transform
from watertank.errors import DomainError
from watertank.feedback import feedback_coefficients, physical_feedback
from watertank.model import Params
from watertank.spectral import BcKind, w_modes

N = 4
HOLDERS = ("Basis", "WModes", "FeedbackLaw", "TransformMatrix", "PhysicalFeedback")


@pytest.fixture(scope="module")
def holders(basis_cache):
    p = Params(gamma=0.03, mu=2.0, nu=0.5, n_modes=N, grid_points=257)
    basis = basis_cache(p, BcKind.CONSERVATIVE, N)
    law = feedback_coefficients(p, basis)
    return {
        "Basis": basis,
        "WModes": w_modes(p, basis),
        "FeedbackLaw": law,
        "TransformMatrix": build_transform(p, basis, basis_cache(p, BcKind.DAMPED, N), law),
        "PhysicalFeedback": physical_feedback(law),
    }


@pytest.mark.parametrize("holder", HOLDERS)
def test_index_covers_exactly_the_window(holders, holder):
    h = holders[holder]
    # -(N+1) must raise, not wrap onto row -1 (mode N)
    assert [h.index(n) for n in range(-N, N + 1)] == list(range(2 * N + 1))
    for n in (N + 1, -(N + 1)):
        with pytest.raises(DomainError):
            h.index(n)

