import numpy as np
import pytest

from hlawka.linalg import HermitianMatrix, HermitianStack, random_pd
from hlawka.scalar import sample_shape
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


def numpy_inputs(suite: str, rng: np.random.Generator, n: int, dim: int, center=None,
                 radius=None) -> np.ndarray:
    """One input of a suite drawn by numpy's generator ``rng`` itself, the
    oracle of ``scalar.sample_inputs``: standard Gaussian vectors under the
    norm rule, else uniform points in [-10, 10]; with a ``center``, the
    center plus uniform offsets in [-radius, radius]."""
    shape = sample_shape(suite, n, dim, center)
    if center is not None:
        return np.asarray(center, dtype=np.float64).reshape(shape) + rng.uniform(-radius, radius,
                                                                                 shape)
    return rng.standard_normal(shape) if len(shape) == 2 else rng.uniform(-10.0, 10.0, shape)


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
