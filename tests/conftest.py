import numpy as np
import pytest

from conekit import BipartiteDims, membership
from conekit.sampling import random_product_vector

DESK_DIMS = [(2, 2), (2, 3), (3, 3)]


@pytest.fixture(params=DESK_DIMS, ids=lambda p: f"{p[0]}x{p[1]}")
def dims(request):
    return BipartiteDims(*request.param)


@pytest.fixture(autouse=True)
def empty_seesaw_memo(monkeypatch):
    # The see-saw keeps the last input's ladder.  Many tests share an input
    # and a seed, and some patch the kernel's constants, so every test starts
    # with an empty memo.
    monkeypatch.setattr(membership, "_last_ladder", None)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def hermitian(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return (g + g.conj().T) / 2


def planted_violator(rng, dims):
    """A planted block-positivity violator.

    A random Hermitian H shifted so that a random product vector p has
    <p|W|p> = -0.05 ||H||_2.
    """
    h = hermitian(rng, dims.total)
    p = random_product_vector(rng, dims)
    shift = np.real(np.vdot(p, h @ p)) + 0.05 * np.linalg.norm(h, 2)
    return h - shift * np.eye(dims.total)
