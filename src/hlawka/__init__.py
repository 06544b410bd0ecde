"""Numerical certification of Hlawka/Popoviciu-type tensor-sum
inequalities on positive definite matrices.

Public surface:

* :mod:`hlawka.linalg` -- Hermitian stacks (a matrix is a stack of one),
  Kronecker powers, Loewner certificates, seeded positive definite
  sampling, matrix files.
* :mod:`hlawka.sums` -- the operator family table, keyed by family name,
  and :func:`~hlawka.sums.build_difference`, which takes that name.
* :mod:`hlawka.symgroup` / :mod:`hlawka.matfunc` -- permutation groups,
  characters, determinants/permanents/immanants and their corollaries.
* :mod:`hlawka.scalar` -- the convex/norm evaluator, over a block of
  inputs at a time, and the counterexample search from a block of starts.
* :mod:`hlawka.cli` -- the ``hlawka`` command.
"""

from .errors import BudgetError, HlawkaError, InputError
from .linalg import (
    DEFAULT_CONDITION_TARGET,
    DEFAULT_LOEWNER_TOL,
    DEFAULT_MAX_TENSOR_DIM,
    HermitianMatrix,
    HermitianStack,
    LoewnerCertificate,
    Verdict,
    hermitian_eigenvalues,
    kron,
    loewner_geq,
    load_hermitian,
    load_matrix,
    min_eigenvalue,
    psd_certificate,
    random_pd,
    save_matrix,
    tensor_power,
)
from .matfunc import (
    elementary_symmetric_det,
    generalized_matrix_function,
    permanent_oracle,
    scalar_inequality_check,
)
from .scalar import (
    KNOWN_HLAWKA_POP_COUNTEREXAMPLE,
    ConvexFunction,
    ScalarCheckResult,
    conjecture_hlawka_pop_eval,
    freudenthal_alternating,
    functional_hlawka,
    jensen_check,
    norm_hlawka,
    pcz_check,
    pop_levels_scalar_eval,
    popoviciu_check,
    radu_check,
    vasc_check,
)
from .sums import build_difference, symmetric_tensor_sum
from .symgroup import (
    CharacterSpec,
    GroupSpec,
    character_values,
    cycle_type,
    enumerate_group,
    mn_character,
    partitions_of,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
