import numpy as np
import pytest

from conekit import BipartiteDims, membership

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
