import numpy as np
import pytest

from hlawka.linalg import HermitianMatrix, HermitianStack, random_pd
from hlawka.util import derive_seed

#: Seeds at the edges of the 64-bit range and of numpy's one-word and
#: two-word seed entropy (a seed below 2**32 is one 32-bit word).
EDGE_SEEDS = (0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def pd_tuple(seed: int, count: int, dim: int, condition_target: float = 10.0):
    """Seeded PD tuple matching the harness's sampling scheme."""
    return [
        random_pd(dim, (derive_seed(seed, i),), condition_target)[0]
        for i in range(count)
    ]


def stack_of(mats) -> HermitianStack:
    """The matrices, in order, as one stack."""
    return HermitianStack._wrap_exact(np.stack([m.array for m in mats]))


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianMatrix:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix((z + z.conj().T) / 2)


def input_scale(mats) -> float:
    """Largest infinity norm among the inputs."""
    return max(float(np.linalg.norm(m.array, np.inf)) for m in mats)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
