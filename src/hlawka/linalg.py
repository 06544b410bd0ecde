"""Dense complex Hermitian matrix algebra.

One carrier holds all Hermitian data: :class:`HermitianStack`, same-size
matrices on a leading axis, stored as one read-only ``(count, dim, dim)``
array.  A single matrix, :class:`HermitianMatrix`, is a stack of one.  So
each kernel here (eigenvalues, Loewner certificates, positive definite
sampling) and in :mod:`hlawka.sums` and :mod:`hlawka.matfunc` has one code
path over ``(count, dim, dim)`` arrays, and a single-matrix call is the
stacked call on one matrix, bit for bit: LAPACK and the elementwise kernels
run once per matrix on a stack.  :func:`_single_or_all` is the one place a
single-matrix result is taken.  Also here: Kronecker products and tensor
powers, and the on-disk matrix format used by the CLI.

All values are immutable and all operations are pure functions, so they
may be shared freely between threads.  Arithmetic is fixed double
precision (complex128).
"""

from __future__ import annotations

import binascii
import functools
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetError, InputError
from .util import array_digests, format_sig17, json_complex

#: Refuse to build matrices larger than this on a side unless overridden.
DEFAULT_MAX_TENSOR_DIM = 4096

#: Default relative tolerance for Loewner-order certificates.
DEFAULT_LOEWNER_TOL = 1e-8

#: Default ratio of the largest to the smallest eigenvalue of a sample.
DEFAULT_CONDITION_TARGET = 10.0

#: Input matrices may deviate from exact hermiticity by this fraction of
#: their largest absolute entry before being rejected.
HERMITICITY_RTOL = 1e-12


class Verdict(Enum):
    """Outcome of a Loewner-order check ``A >= B``."""

    HOLDS = "HOLDS"
    FAILS = "FAILS"
    EQUALITY = "EQUALITY"

    @property
    def code(self) -> int:
        """The verdict's code in the arrays of :func:`band_verdicts`."""
        return VERDICTS.index(self)


#: The verdict of each code: ``VERDICTS[verdict.code] is verdict``.
VERDICTS = tuple(Verdict)


class HermitianStack:
    """Immutable stack of same-size Hermitian matrices on a leading axis.

    ``dim`` is the size of one matrix, ``array`` the read-only
    ``(count, dim, dim)`` entries, ``stack[i]`` one matrix and
    ``stack[i:j]`` a sub-stack.  Real scalings, negation, and sums and
    differences of two carriers of one type act matrix by matrix and keep
    the type.
    """

    __slots__ = ("_arr", "_digests")

    @classmethod
    def _wrap_exact(cls, arr: np.ndarray):
        # Internal fast path for arrays already exactly Hermitian (sums,
        # real scalings, and Kronecker products of exactly Hermitian arrays
        # stay exactly Hermitian in IEEE arithmetic).  A (dim, dim) array
        # is stored as a stack of one.
        obj = cls.__new__(cls)
        a = np.ascontiguousarray(arr, dtype=np.complex128)
        a = a.reshape(-1, *a.shape[-2:])
        a.flags.writeable = False
        obj._arr = a
        obj._digests = None
        return obj

    @property
    def dim(self) -> int:
        return self._arr.shape[-1]

    @property
    def array(self) -> np.ndarray:
        """The stored entries as a read-only (count, dim, dim) complex array."""
        return self._arr

    @property
    def digests(self) -> tuple[str, ...]:
        """Per-matrix content hashes; equal matrices (bitwise) share one."""
        if self._digests is None:
            self._digests = array_digests(self._arr)
        return self._digests

    def __len__(self) -> int:
        return self._arr.shape[0]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return HermitianStack._wrap_exact(self._arr[key])
        return HermitianMatrix._wrap_exact(self._arr[key])

    def __add__(self, other: "HermitianStack") -> "HermitianStack":
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._wrap_exact(self._arr + other._arr)

    def __sub__(self, other: "HermitianStack") -> "HermitianStack":
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._wrap_exact(self._arr - other._arr)

    def __mul__(self, scalar) -> "HermitianStack":
        s = float(scalar)  # real scalars only; complex would break hermiticity
        return type(self)._wrap_exact(self._arr * s)

    __rmul__ = __mul__

    def __neg__(self) -> "HermitianStack":
        return type(self)._wrap_exact(-self._arr)

    def __repr__(self) -> str:
        return f"HermitianStack(count={len(self)}, dim={self.dim})"


class HermitianMatrix(HermitianStack):
    """Immutable dense complex Hermitian matrix: a :class:`HermitianStack`
    of one, whose ``array`` is the read-only ``(dim, dim)`` view.

    Construction validates that the input is square, finite, and Hermitian
    within ``HERMITICITY_RTOL`` of its largest absolute entry, then stores
    the exactly symmetrized form ``X/2 + X*/2``.  Halving first keeps every
    finite input finite; halving is exact, so outside the subnormal range
    this is ``(X + X*)/2`` bit for bit.  Diagonal imaginary parts cancel
    exactly under IEEE arithmetic, so stored diagonals are real.
    """

    __slots__ = ()

    def __init__(self, entries) -> None:
        arr = _as_array(entries)
        max_abs = float(np.max(np.abs(arr)))
        deviation = float(np.max(np.abs(arr - arr.conj().T)))
        if deviation > HERMITICITY_RTOL * max_abs:
            raise InputError(
                f"matrix is not Hermitian: max |X - X*| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * {max_abs:.3e}"
            )
        sym = (arr / 2.0 + arr.conj().T / 2.0)[np.newaxis]
        sym.flags.writeable = False
        self._arr = sym
        self._digests = None

    @classmethod
    def identity(cls, dim: int) -> "HermitianMatrix":
        return cls._wrap_exact(np.eye(dim, dtype=np.complex128))

    @classmethod
    def diagonal(cls, values) -> "HermitianMatrix":
        vals = np.asarray(values, dtype=np.float64)
        return cls._wrap_exact(np.diag(vals).astype(np.complex128))

    @property
    def array(self) -> np.ndarray:
        """The stored entries as a read-only (dim, dim) complex array."""
        return self._arr[0]

    @property
    def digest(self) -> str:
        """Content hash; equal matrices (bitwise) share a digest."""
        return self.digests[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


@dataclass(frozen=True)
class LoewnerCertificate:
    """Numerical verdict of a Loewner-order comparison.

    ``min_eigenvalue`` is the smallest eigenvalue of the (symmetrized)
    difference, ``scale`` its infinity norm, and the verdict is
    :func:`band_verdict` of the smallest and the largest absolute
    eigenvalue.
    """

    min_eigenvalue: float
    scale: float
    tolerance: float
    verdict: Verdict

    @property
    def ok(self) -> bool:
        """True for HOLDS or EQUALITY."""
        return self.verdict is not Verdict.FAILS


def _as_array(mat) -> np.ndarray:
    if isinstance(mat, HermitianStack):
        if len(mat) != 1:
            raise InputError(f"expected one matrix, got a stack of {len(mat)}")
        return mat._arr[0]
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    return arr


def check_tensor_budget(dim: int, power: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM) -> int:
    """Return ``dim ** power`` or raise :class:`BudgetError` if it exceeds
    ``max_dim``.  Never truncates."""
    if power < 1:
        raise InputError("tensor power must be >= 1")
    out = dim**power
    if out > max_dim:
        raise BudgetError(
            f"tensor dimension {dim}^{power} = {out} exceeds budget {max_dim}; "
            "raise the limit explicitly if this is intended"
        )
    return out


def check_condition_target(condition_target: float) -> None:
    """Refuse a condition target of :func:`random_pd` that is not finite and >= 1."""
    if not (math.isfinite(condition_target) and condition_target >= 1.0):
        raise InputError("condition_target must be finite and >= 1")


def kron(a, b, max_dim: int = DEFAULT_MAX_TENSOR_DIM) -> np.ndarray:
    """Kronecker product of two square complex matrices.

    Accepts :class:`HermitianMatrix` or plain arrays; returns a plain
    array (Hermitian inputs yield a Hermitian result).
    """
    aa, bb = _as_array(a), _as_array(b)
    out_dim = aa.shape[0] * bb.shape[0]
    if out_dim > max_dim:
        raise BudgetError(
            f"Kronecker product dimension {aa.shape[0]}*{bb.shape[0]} = {out_dim} "
            f"exceeds budget {max_dim}"
        )
    return _kron(aa, bb)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron's products, over any leading stack axis and without its
    # per-call shape bookkeeping.  (einsum rounds differently.)
    n, m = a.shape[-1], b.shape[-1]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(*a.shape[:-2], n * m, n * m)


def _kron_power(arr: np.ndarray, power: int) -> np.ndarray:
    # Left-associated: ((arr ⊗ arr) ⊗ arr) ...
    acc = arr
    for _ in range(power - 1):
        acc = _kron(acc, arr)
    return acc


def tensor_power(mat: HermitianMatrix, power: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM) -> HermitianMatrix:
    """p-fold left-associated Kronecker power ``mat ⊗ ... ⊗ mat``."""
    if not isinstance(mat, HermitianMatrix):
        mat = HermitianMatrix(mat)
    check_tensor_budget(mat.dim, power, max_dim)
    return HermitianMatrix._wrap_exact(_kron_power(mat.array, power))


def _hermitian(mat) -> HermitianStack:
    """The carrier of ``mat``: a stack as it is, anything else validated as
    one :class:`HermitianMatrix`."""
    return mat if isinstance(mat, HermitianStack) else HermitianMatrix(mat)


def _entries(mat) -> np.ndarray:
    """The ``(count, dim, dim)`` entries of a carrier, or of one plain square
    matrix (Hermitian or not) as a stack of one."""
    return mat._arr if isinstance(mat, HermitianStack) else _as_array(mat)[np.newaxis]


def _single_or_all(given, values):
    """The one place a single-matrix result is taken: ``values[0]`` when
    ``given`` is one matrix (a :class:`HermitianMatrix` or a plain 2-D array),
    all of ``values``, one per matrix, when it is a stack.  A numpy scalar
    comes back as the Python number of the same bits."""
    if isinstance(given, HermitianMatrix) or not isinstance(given, HermitianStack):
        first = values[0]
        return first.item() if isinstance(first, np.generic) else first
    return values


def _same_shape(mats) -> list[HermitianStack]:
    """The inputs as carriers, refused unless all share one dimension and
    one count: the input check of every kernel over several carriers."""
    hs = [_hermitian(m) for m in mats]
    if any(h.dim != hs[0].dim for h in hs):
        raise InputError("all matrices must share one dimension")
    if any(len(h) != len(hs[0]) for h in hs):
        raise InputError("stacked inputs must all be stacks of one length")
    return hs


def hermitian_eigenvalues(mat: HermitianStack) -> np.ndarray:
    """All eigenvalues, ascending (one row per matrix of a stack).
    Deterministic for identical input."""
    return _single_or_all(mat, np.linalg.eigvalsh(_hermitian(mat)._arr))


def min_eigenvalue(mat: HermitianStack):
    """Smallest eigenvalue of a Hermitian matrix; an array of them for a stack."""
    return _single_or_all(mat, np.linalg.eigvalsh(_hermitian(mat)._arr)[:, 0])


def band_verdicts(lo, largest, scale, tol: float) -> np.ndarray:
    """The one rule judging "LHS - RHS >= 0" with the band ``tol * max(1, scale)``,
    entry by entry over arrays broadcast together, as verdict codes
    (:attr:`Verdict.code`): EQUALITY when ``largest`` (the largest absolute
    value of the difference) lies in the band, HOLDS when ``lo`` (its
    smallest value) is above the band's lower edge, FAILS otherwise, a NaN
    included.  A NaN scale counts as 1, as Python's ``max(1.0, nan)`` does."""
    with np.errstate(invalid="ignore"):  # 0 * inf is NaN, as float arithmetic gives
        band = tol * np.fmax(1.0, scale)
    return np.where(largest <= band, Verdict.EQUALITY.code,
                    np.where(lo >= -band, Verdict.HOLDS.code, Verdict.FAILS.code))


def band_verdict(lo: float, largest: float, scale: float, tol: float) -> Verdict:
    """The :class:`Verdict` of one difference under :func:`band_verdicts`."""
    return VERDICTS[int(band_verdicts(lo, largest, scale, tol))]


# A plain class: a frozen dataclass costs about a millisecond of import
# time, which every CLI run pays.
class VerdictRecord(Sequence):
    """The one record of verdicts: ``margin`` and ``scale`` as ``(T, F)``
    arrays over rows (matrices or trials) and the functions evaluated (F = 1
    on the operator routes), one ``tolerance``, the message of each refused
    row in ``refusals``, and ``code``, their :func:`band_verdicts` codes
    with ``largest`` the largest absolute difference (``|margin|`` unless
    given), formed when first read: the lockstep descents read only margins.
    Its item views, :class:`LoewnerCertificates` and
    :class:`~hlawka.scalar.ScalarCheckResults`, make item t row t's single
    result under the first function; a record equals any sequence of them.
    """

    __slots__ = ("margin", "scale", "tolerance", "refusals", "_largest", "_code")

    def __init__(self, margin: np.ndarray, scale: np.ndarray, tolerance: float,
                 refusals: dict[int, str] | None = None, largest: np.ndarray | None = None) -> None:
        self.margin, self.scale, self.tolerance = margin, scale, tolerance
        self.refusals = refusals or {}
        self._largest, self._code = largest, None

    @property
    def code(self) -> np.ndarray:
        if self._code is None:
            largest = np.abs(self.margin) if self._largest is None else self._largest
            self._code = band_verdicts(self.margin, largest, self.scale, self.tolerance)
        return self._code

    def refuse_first(self) -> None:
        """Raise the refusal of the first refused row, as rows evaluated one
        after another would."""
        if self.refusals:
            raise InputError(self.refusals[min(self.refusals)])

    def __len__(self) -> int:
        return len(self.margin)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    __hash__ = None


class LoewnerCertificates(VerdictRecord):
    """The record of :func:`psd_certificate` on a stack, whose ``margin``
    is each matrix's smallest eigenvalue; item i is matrix i's
    :class:`LoewnerCertificate`."""

    __slots__ = ()

    def __getitem__(self, i) -> LoewnerCertificate:
        return LoewnerCertificate(min_eigenvalue=float(self.margin[i, 0]),
                                  scale=float(self.scale[i, 0]), tolerance=self.tolerance,
                                  verdict=VERDICTS[self.code[i, 0]])


def psd_certificate(mat: HermitianStack, tol: float = DEFAULT_LOEWNER_TOL):
    """Certify ``mat >= 0`` in the Loewner order: one
    :class:`LoewnerCertificate` for a matrix, the
    :class:`LoewnerCertificates` of every matrix of a stack.

    The tolerance is applied relative to ``max(1, scale)`` with scale the
    infinity norm of ``mat``; tensor powers inflate magnitudes, so an
    absolute tolerance would be meaningless.  An overflowed scale is refused.
    """
    arr = _hermitian(mat)._arr
    scales = np.linalg.norm(arr, np.inf, axis=(-2, -1))
    if not np.isfinite(scales).all():
        raise InputError("overflow: the matrix to certify exceeds double precision")
    eigs = np.linalg.eigvalsh(arr)
    return _single_or_all(mat, LoewnerCertificates(
        eigs[:, :1], scales[:, np.newaxis], tol,
        largest=np.abs(eigs).max(axis=1, keepdims=True)))


def loewner_geq(a: HermitianMatrix, b: HermitianMatrix, tol: float = DEFAULT_LOEWNER_TOL) -> LoewnerCertificate:
    """Certificate for ``a >= b`` (positive semidefiniteness of a - b)."""
    a, b = _same_shape([a, b])
    return psd_certificate(a - b, tol)


def random_pd(dim: int, seeds,
              condition_target: float = DEFAULT_CONDITION_TARGET) -> HermitianStack:
    """Seeded Hermitian positive definite samples of size ``dim``, one per
    seed, as a :class:`HermitianStack`: ``random_pd(dim, seeds)[k]`` is
    sample k.  The seeds are integers in ``[0, 2**64)`` or a
    one-dimensional uint64 array, which holds nothing else.

    Built as ``Q diag(lam) Q*`` where Q comes from the QR factorization of
    a seeded complex Gaussian matrix (columns rephased so R has a positive
    real diagonal, which makes Q canonical) and ``lam`` is the log-uniform
    grid on ``[1, condition_target]``.  Identical arguments give
    bit-identical output on the same platform.

    Stream contract: sample k is formed from the first ``2 dim^2``
    ``standard_normal`` draws of numpy's generator on
    ``PCG64(SeedSequence(seeds[k]))``, the real parts of its Gaussian matrix
    then the imaginary parts, which :func:`_draws` gives for every seed of
    the stack in one pass.
    """
    if dim < 1:
        raise InputError("dim must be a positive integer")
    check_condition_target(condition_target)
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1):
        if not all(isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64 for seed in seeds):
            raise InputError("seed must be a 64-bit unsigned integer")
        seeds = np.array(seeds, dtype=np.uint64)
    draws = _draws(seeds, 2 * dim * dim, "normal").reshape(len(seeds), 2, dim, dim)
    z = draws[:, 0] + 1j * draws[:, 1]
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    q = q * (diag / np.abs(diag)).conj()[:, None, :]
    h = (q * _spectrum(dim, condition_target)) @ q.conj().swapaxes(-1, -2)
    h = (h + h.conj().swapaxes(-1, -2)) / 2.0
    return HermitianStack._wrap_exact(h)


@functools.lru_cache(maxsize=64)
def _spectrum(dim: int, condition_target: float) -> np.ndarray:
    """The eigenvalues of every sample of :func:`random_pd`: the
    log-uniform grid on ``[1, condition_target]``, read-only, formed once
    per setting rather than once per stack."""
    lam = np.geomspace(1.0, condition_target, dim)
    lam.flags.writeable = False
    return lam


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) for one 64-bit
# seed: the entropy words are the seed's low and high 32 bits (a seed below
# 2**32 has one word, and the absent one hashes as 0 all the same), the pool
# holds 4 words, and PCG64 asks for 4 uint64 words of state.  The hash
# constants do not depend on the seed: mixing call j XORs its value with
# _MIX_CONST[j] and multiplies it by _MIX_CONST[j + 1], and output word j
# uses _OUT_CONST the same way.


def _power_chain(init: int, mult: int, count: int) -> np.ndarray:
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)


_MIX_CONST = _power_chain(0x43B0D7E5, 0x931E8875, 16)
_OUT_CONST = _power_chain(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # Row r of ``values`` XORed with consts[r], times consts[r + 1], folded.
    v = (values ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> 16)


def _seed_states(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, one
    row each, computed for all seeds in one uint32 pass (arrays wrap
    modulo 2**32 as the C code does)."""
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _MIX_CONST[:5])
    for src in range(4):
        # numpy mixes word src into each other word in turn; word src does
        # not change meanwhile, so the three updates are independent.
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[src], _MIX_CONST[4 + 3 * src:8 + 3 * src])
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashed  # MIX_MULT_L, MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(np.concatenate((pool, pool)), _OUT_CONST)
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


#: Seeds per :func:`_seed_states` call in :func:`_hashed`, which bounds
#: the hash's temporaries (about 150 bytes a seed) for any run length.
_SEED_BLOCK = 512


def _hashed(seeds: np.ndarray) -> np.ndarray:
    """:func:`_seed_states` of the uint64 array ``seeds``, ``_SEED_BLOCK``
    seeds a call."""
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    for lo in range(0, len(seeds), _SEED_BLOCK):
        words[lo:lo + _SEED_BLOCK] = _seed_states(seeds[lo:lo + _SEED_BLOCK])
    return words


def _generators(seeds: np.ndarray, states: np.ndarray | None = None):
    """One generator per seed of the uint64 array ``seeds``, the only place
    the package builds one: each draws exactly the stream of
    ``Generator(PCG64(SeedSequence(seed)))``.  The seeds are hashed
    ``_SEED_BLOCK`` at a time (:func:`_hashed`), unless their hashed
    ``states`` are given."""
    preset = _preset_state_type()
    for state in _hashed(seeds) if states is None else states:
        yield np.random.Generator(np.random.PCG64(preset(state)))


@functools.cache
def _preset_state_type() -> type:
    """A ``numpy.random`` seed sequence that hands over a state already
    hashed by :func:`_seed_states`.  Defined on first use, so that importing
    :mod:`hlawka` does not import ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class PresetState(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.state

    return PresetState


# numpy's PCG64 (numpy/random/src/pcg64) is a 128-bit LCG, state' = M state
# + inc mod 2**128, which outputs the XSL-RR of each new state.  Seeded with
# the words w of _seed_states, initstate = w0 w1 and inc = 2 (w2 w3) + 1, so
# draw k (from 0) comes from the state M^(k+2) initstate + (1 + M + ... +
# M^(k+2)) inc: an affine function of the seed's words, formed for every
# draw of a chunk at once.  A 128-bit number is a (high, low) pair of
# uint64 arrays.  The arithmetic stays on arrays, which wrap silently: an
# overflowing uint64 scalar warns, and pyproject.toml's pytest settings make
# that warning an error.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)

#: Draws a sample may have for :func:`_draws` to form it in the array pass;
#: a longer sample is drawn by its generator.  Measured in CPU time over
#: chunks of 224 and 558 samples, the normal array pass takes 0.85 to 0.92
#: of the generators' time at 24 draws and 0.98 to 1.23 at 32, where 37% of
#: the samples leave the fast path; uniform draws, which never do, stay
#: faster past 64.  The pass costs about 0.1 ms a call, so over 45 samples
#: it is the slower past 8 normal draws.
_ARRAY_DRAWS = 24

# numpy's ziggurat tables for standard_normal (Marsaglia and Tsang, 2000;
# numpy/random/src/distributions/ziggurat_constants.h): per layer i < 256,
# ki_double[i] then the bits of wi_double[i], little-endian uint64 words,
# in base64.  test_linalg re-records them through numpy's PCG64 state.
_ZIGGURAT = (
    "au8lgD3zDgB52RV4O0nPPAAAAAAAAAAAxvb94wuNizyoxvuYvggMALRbLDyvUJI8QoG9+lSjDQBh"
    "O0Q4uXyVPOruwX72UQ4ADKcv6PwBmDx+99PpVbIOALzQTC4MI5o8ucp+gUvvDgD3YTgvTQCcPKpE"
    "+gpHGQ8AdHJ0Wi+snTwYy/9h7TcPAMPVTC1IMp88XCVhlUZPDwCtu44nMk2gPJajG+SlYQ8AQ10C"
    "OwX1oDykllN1enAPAHc2QZemkqE8mkQo7LJ8DwD1GnqPoieiPNNXYwzxhg8AgNhjOC61ojzeJYNX"
    "po8PAPWRV8A/PKM82tBNxySXDwAvsaLBnr2jPAn12wepnQ8AVZv/je85pDx0+oH1YKMPAKf+PTa7"
    "saQ8+Etb3m+oDwB00xpidSWlPNxU02DxrA8Als4Hp4CVpTwPuRhn+7APAOp+2c8xAqY8xnRTjZ+0"
    "DwA9fKNh0mumPHf+ZiPstw8AcAUAkqLSpjwO5aHp7LoPAKb4RtPaNqc87QsEnau9DwB3KrMQrZin"
    "PFds/2AwwA8AQ/VGrUX4pzxIojcQgsIPAHcKQ1PMVag80VvieqbEDwCadnueZLGoPDHuepeixg8A"
    "mM9OqS4LqTykliipesgPAOoeLIJHY6k8hd5LXjLKDwBGxTiOybmpPBojAunMyw8ALKek3MwOqjzE"
    "OfgSTc0PAFnNd21nYqo8meyPTbXODwAwFhBurbSqPDDJHb8H0A8AnGwTbbEFqzzmxNZNRtEPACl6"
    "QoeEVas8UPTiqHLSDwA6n1KONqSrPB7J8E+O0w8AMoK/Ktbxqzx4tJCZmtQPAPNOWflwPqw8Uw+S"
    "uJjVDwBhOzKlE4qsPOyZjsCJ1g8AiyZy/snUrDwy6MipbtcPAEi3gA6fHq086Ah7VEjYDwAQH+Qp"
    "nWetPIwsrYsX2Q8Aw7gjAM6vrTzSracH3dkPAFN28ak69608jF4QcJnaDwD+7dK16z2uPCAuwF1N"
    "2w8AAG96M+mDrjzQ/Ftc+dsPAM6C+b06ya48fZq5653cDwAmYvCE5w2vPJ1yGIE73Q8AiPbYVPZR"
    "rzyQLzSI0t0PAK7Xh55tla88ZJ82ZGPeDwCsLvp9U9ivPE5RjXDu3g8A7DRC4FYNsDwutKYBdN8P"
    "AJqPOfVALrA8QO2ZZfTfDwD8pRae6k6wPPIkvORv4A8AEKByW1ZvsDxYoiXC5uAPAAv0cZCGj7A8"
    "TLgoPFnhDwATYbyEfa+wPJk/vIzH4Q8Af8xLZj3PsDyqHNvpMeIPAGsIFkvI7rA8kRvahZjiDwDu"
    "FZUyIA6xPIZBtY/74g8Avg8xB0ctsTxKjVUzW+MPAEGRjp8+TLE8KgDQmbfjDwAeIMS/CGuxPH+t"
    "nukQ5A8ANNp4GqeJsTw0d9RGZ+QPAIht7lEbqLE8XAlM07rkDwDLKvj4ZsaxPCSV0q4L5Q8ALtTg"
    "k4vksTx4vE73WeUPAJ+gQJmKArI8EhLkyKXlDwDpxsRyZSCyPImGEz7v5Q8AH8PpfR0+sjx4ENlv"
    "NuYPAPtrqQy0W7I8eNXGdXvmDwB/0x1mKnmyPKoRHma+5g8AG9cZx4GWsjzy9OVV/+YPANouuGK7"
    "s7I8AqcAWT7nDwBTuOFi2NCyPDmePoJ75w8AjqnL6NntsjyicHDjtucPANdIbg3BCrM8Q0J3jfDn"
    "DwAwufThjiezPIzwU5Ao6A8AoV4mcEREszw6FzX7XugPANVSyrriYLM8ZAiE3JPoDwBqWAW+an2z"
    "PLzO8EHH6A8AZLKyb92Zszz2Tn04+egPAAM9uL87trM8HZuHzCnpDwDgHVaYhtKzPOqI0wlZ6Q8A"
    "g1py3r7uszyimpP7hukPAHSe4HHlCrQ8ZkhxrLPpDwBddKYt+ya0PNW2lCbf6Q8ApDA86ABDtDx8"
    "5qtzCeoPAF3HynP3XrQ8pGbxnDLqDwA2w2ae33q0PCyVMqta6g8AL49IMrqWtDwadNWmgeoPAF1B"
    "AvaHsrQ88Bzel6fqDwDcEbOsSc60PCDZ84XM6g8ABaY4FgDqtDw85mV48OoPAGJVXu+rBbU8E+wv"
    "dhPrDwBaiwryTSG1PEoq/oU16w8AT2Zq1eY8tTy0YjGuVusPAMiyG053WLU8+oTi9HbrDwB4X1UO"
    "AHS1PBQg5l+W6w8AFIUOxoGPtTx8nc/0tOsPAFkbJCP9qrU80En0uNLrDwA9c33Rcsa1PD4ubrHv"
    "6w8A04wve+PhtTzovR7jC+wPADhen8hP/bU8FVqxUifsDwDDH6NguBi2PNOvnQRC7A8AorCi6B00"
    "tjyW8Sn9W+wPAAsmtwSBT7Y89O5sQHXsDwBylslX4mq2PLQMUNKN7A8ANzGxg0KGtjwSH5G2pewP"
    "ALGyUCmiobY8/ifE8LzsDwC7Q7PoAb22PBX7VITT7A8AUtMoYWLYtjyzyIh06ewPAFT4YTHE87Y8"
    "t5F/xP7sDwDraIv3Jw+3PCiFNXcT7Q8AxhRpUY4qtzwDSYSPJ+0PANzucNz3Rbc8TC8kEDvtDwAf"
    "c+U1ZWG3PG5YrftN7Q8ASfTv+tZ8tzzdw5hUYO0PAJO9ushNmLc86E9BHXLtDwAJFIs8yrO3PIKp"
    "5FeD7Q8A+yLb80zPtzzILKQGlO0PAOfec4zW6rc8BLeFK6TtDwAf6oakZwa4PLRqdMiz7Q8AdobI"
    "2gAiuDxSZkHfwu0PABWfic6iPbg8Um6kcdHtDwC99dEfTlm4PNOKPIHf7Q8AxX56bwN1uDyAmZAP"
    "7e0PAC33R1/DkLg8FNQPHvrtDwBDwAWSjqy4PMRLEq4G7g8AnAyhq2XIuDwGWtnAEu4PACdqRFFJ"
    "5Lg84AaQVx7uDwCPtXMpOgC5PCRlS3Mp7g8AR4Mo3DgcuTy85AoVNO4PAPwK7xJGOLk8PJu4PT7u"
    "DwCKogN5YlS5PPSCKe5H7g8A7tVwu45wuTyGsB0nUe4PADEqLonLjLk8QX9A6VnuDwC/mT+TGam5"
    "PC60KDVi7g8ALNnVjHnFuTzxl1gLau4PABF0byvs4bk8egc+bHHuDwBK0vomcv65PIJ7Mlh47g8A"
    "kjb5OQwbujy6BnvPfu4PAFvIoiG7N7o8skpI0oTuDwCIuwuef1S6PENjtmCK7g8ApKlKclpxujxR"
    "yMx6j+4PAD0xoGRMjro82iV+IJTuDwAI8Z8+Vqu6POopqFGY7g8AzvVazXjIujxcSBMOnO4PADaz"
    "i+G05bo89HNyVZ/uDwAaocNPCwO7PK7MYiei7g8AW5ia8HwguzysQmuDpO4PAAAM4KAKPrs8cS38"
    "aKbuDwADPc5BtVu7PPrWbten7g8AJ4k/uX15uzwK+gTOqO4PADz35fFkl7s8OzPoS6nuDwBuJYXb"
    "a7W7PBBkKVCp7g8AosAua5PTuzxeB8DZqO4PAIOugZvc8bs8VHaJ56fuDwCgFuxsSBC8PCQdSHim"
    "7g8ALXrw5dcuvDyDnqKKpO4PABwNbhOMTbw82uQiHaLuDwAFh+wIZmy8PCQgNS6f7g8AF6br4GaL"
    "vDwurya8m+4PAKuiNr2Pqrw85PIkxZfuDwCQ1jvH4cm8PDoKPEeT7g8AN+BoMF7pvDwWdVVAju4P"
    "AG6PizIGCb08epw2rojuDwAg7zcQ2yi9PP09f46C7g8AR8YzFd5IvTyIuKfee+4PACPx55YQab08"
    "/zf/m3TuDwCl+9f0c4m9PF69qcNs7g8AcG4gmQmqvTx+AJ5SZO4PAA5J/PjSyr08iCijRVvuDwA3"
    "LlKV0eu9PLZXTplR7g8AHNJJ+wYNvjzPBgBKR+4PAPZG6sR0Lr48UCzhUzzuDwCI0cGZHFC+PNgq"
    "4LIw7g8AJf6XLwByvjwFgq1iJO4PAAq/KkshlL48Wjy4XhfuDwAIb/fAgba+PEcUKqIJ7g8AOqcQ"
    "diPZvjzMSeMn++0PAKnsAWEI/L48bCF26uvtDwAhU8KKMh+/PH4EIuTb7Q8AbU23D6RCvzzTOc4O"
    "y+0PAGgBySBfZr889CwEZLntDwCCl4kEZoq/PMk46dym7Q8AvyJxGLuuvzyN6Tdyk+0PAIXnL9Jg"
    "0788Nqg4HH/tDwAL9hjBWfi/PCvAudJp7Q8AdaDTR9QOwDwArgaNU+0PAEfJjwKoIcA8IqTeQTzt"
    "DwCrAqmDqTTAPNgvaucj7Q8Ax/U+TtpHwDxE5i9zCu0PAH6zrfY7W8A8NP4H2u/sDwBoJqcj0G7A"
    "PLi3DhDU7A8AFy5jj5iCwDy0bpUIt+wPAFSi6AiXlsA8wTAStpjsDwDEwHF1zarAPHipDQp57A8A"
    "SNTu0T2/wDz+MQ/1V+wPADA9qjTq08A8YsmGZjXsDwCTZRHP1OjAPDWztEwR7A8Atp+m7//9wDzQ"
    "b46U6+sPAEFwIARuE8E8kragKcTrDwA1XbubISnBPNwM7vWa6w8AbQnEaR0/wTxChcnhb+sPADsu"
    "YEhkVcE8nh+t00LrDwDz7p07+WvBPEstC7AT6w8AYRLSdN+CwTzpAhpZ4uoPAKzrTlYamsE8VyKZ"
    "rq7qDwCOL393rbHBPCbjjo146g8AlKZxqZzJwTzlc/3PP+oPADmu5Pvr4cE89tmNTATqDwAB2eLC"
    "n/rBPDtWL9bF6Q8AgcwEnbwTwjykR6k7hOkPAO7Tb3pHLcI8KEcdRz/pDwAknKykRUfCPNbFdr32"
    "6A8A4Fh2x7xhwjzm6MRdqugPAC5ZqPqyfMI86rF64FnoDwB4DnfNLpjCPECpkPYE6A8AUgoqUze0"
    "wjzAM4JIq+cPAJfbljHU0MI8pWofdUznDwD1eKmxDe7CPAKiKhDo5g8A7q5W0uwLwzzYq7agfeYP"
    "AKOkaF57KsM8fjA4nwzmDwCjEq4FxEnDPEL3OHOU5Q8AQKgzetJpwzyAcpdwFOUPAApBVpKzisM8"
    "WPQ21IvkDwD6iK5wdazDPDce/b/54w8ApgQXsyfPwzycse41XeMPAHX0YKrb8sM8/uQvErXiDwDa"
    "5bmcpBfEPFdVmQMA4g8AlF5UFZg9xDwUg3iCPOEPABU6p0TOZMQ8sGfuxGjgDwC8Q5x1Yo3EPKpx"
    "K7CC3w8AJ1prnXO3xDyq/n7Fh94PAAKJzQ0l48Q8/TvGCXXdDwBBrOlTnxDFPBO/KeVG3A8AQn46"
    "UhFAxTyCAi74+NoPABvkSqmxccU8dbqy4YXZDwDZjXGLwKXFPATPSO/m1w8A/tA6JIrcxTwLZb2t"
    "E9YPAEwehs9pFsY8EvDiSQHUDwDqagB7zlPGPKzHtKeh0Q8Aw+WfvkCVxjyeH3YE4s4PADLiCY1r"
    "28Y8shFe2KjLDwA0el/wKCfHPCItzW7Sxw8AcwYJVpV5xzztIh4vK8MPAIzO1vQt1Mc8OrjAgWW9"
    "DwA08ikFAznIPDRUAMQGtg8AFHyqvw+ryDx0KCpYQKwPAJZEb5TgLsk8mEUBHpeeDwCrV0AB7svJ"
    "PPwdpEj6iQ8AWneUeNyPyjwsMPD3xWYPALH9eDgfmMs8ShwzS1oaDwAzrQmCtDvNPA=="
)


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables indexed by a raw draw's low 9 bits, its layer
    and then its sign: the bound ``ki`` that the draw's 52-bit magnitude
    must stay below for the fast path, and the width ``wi`` with the
    draw's sign, whose product with the magnitude is the normal draw."""
    table = np.frombuffer(binascii.a2b_base64("".join(_ZIGGURAT)), dtype="<u8").reshape(256, 2)
    wi = table[:, 1].view("<f8")
    return np.tile(table[:, 0].astype(np.uint64), 2), np.concatenate((wi, -wi))


@functools.lru_cache(maxsize=64)
def _jumps(count: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``M^(k+2)`` and ``1 + M + ... + M^(k+2)`` for draws ``k < count``,
    each as a (high, low) pair of uint64 arrays, formed on first use."""
    power, total, rows = _PCG_MULT**2 % 2**128, (1 + _PCG_MULT + _PCG_MULT**2) % 2**128, []
    for _ in range(count):
        rows.append([*divmod(power, 2**64), *divmod(total, 2**64)])
        power, total = power * _PCG_MULT % 2**128, (total * _PCG_MULT + 1) % 2**128
    words = np.array(rows, dtype=np.uint64).reshape(count, 4).T
    return (words[0], words[1]), (words[2], words[3])


def _mul_add(acc, a, b) -> None:
    """Add ``a * b`` modulo 2**128 into ``acc`` in place, broadcast to the
    shape of its words.  The low words' full product comes from their
    32-bit halves, whose products uint64 holds exactly."""
    (hi, lo), (a_hi, a_lo), (b_hi, b_lo) = acc, a, b
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> 32, b_lo & _LOW32, b_lo >> 32
    part = np.multiply(a0, b0)
    mid = part >> 32
    for x, y in ((a0, b1), (a1, b0)):
        np.multiply(x, y, out=part)
        mid += part & _LOW32
        part >>= 32
        hi += part
    mid >>= 32
    hi += mid
    for x, y in ((a1, b1), (a_lo, b_hi), (a_hi, b_lo)):
        hi += np.multiply(x, y, out=part)
    lo += np.multiply(a_lo, b_lo, out=part)
    hi += lo < part  # the carry out of the low word


def _raw_draws(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs of PCG64 seeded with every row of
    :func:`_seed_states` words ``words``, one row each."""
    state = np.zeros((2, len(words), count), dtype=np.uint64)
    power, total = _jumps(count)
    _mul_add(state, power, (words[:, 0:1], words[:, 1:2]))
    _mul_add(state, total, (words[:, 2:3] << 1 | words[:, 3:4] >> 63, words[:, 3:4] << 1 | 1))
    hi, lo = state
    # XSL-RR: the XOR of the two words, rotated right by the top 6 bits.
    rot = hi >> 58
    hi ^= lo
    np.right_shift(hi, rot, out=lo)
    np.subtract(64, rot, out=rot)
    hi <<= rot & 63
    hi |= lo
    return hi


def sample_bytes(count: int) -> int:
    """The bytes :func:`_draws` holds per sample of ``count`` draws at its
    peak, its output included.  Over 100 to 4000 samples tracemalloc reads
    92 to 124 bytes a draw at 2 draws (the seed hash's share is most of it)
    and 51 to 60 at 24 on the array pass, and 8 to 15 a draw on the
    generators past it."""
    return 56 * count + 160 if count <= _ARRAY_DRAWS else 16 * count


def _draws(seeds: np.ndarray, count: int, kind: str, low: float = 0.0,
           high: float = 1.0) -> np.ndarray:
    """The first ``count`` draws of numpy's generator on
    ``PCG64(SeedSequence(s))`` for every seed s of the uint64 array
    ``seeds``, one row each, bit for bit: ``uniform(low, high, count)``
    under kind ``"uniform"``, ``standard_normal(count)`` under ``"normal"``.

    Up to ``_ARRAY_DRAWS`` draws a sample, one pass over uint64 arrays forms
    them (:func:`_raw_draws`).  A uniform is ``low + (high - low) * u`` with
    ``u = (raw >> 11) * 2**-53``, as numpy computes it.  A normal is the
    ziggurat's fast path: layer ``raw & 255``, sign bit 8 and magnitude
    ``rabs = (raw >> 9) & (2**52 - 1)`` give ``±rabs * wi[layer]`` when
    ``rabs < ki[layer]``.  A sample with a draw off the fast path, or with
    more draws, is drawn by its generator (:func:`_generators`).
    """
    out = np.empty((len(seeds), count))
    if count > _ARRAY_DRAWS:
        _generator_draws(out, seeds, None, kind, low, high)
        return out
    words = _hashed(seeds)
    raw = _raw_draws(words, count)
    if kind == "uniform":
        u = (raw >> 11) * 2.0**-53
        u *= high - low
        return np.add(low, u, out=out)
    ki, signed_wi = _ziggurat()
    layer = raw & 511
    raw >>= 9
    raw &= 2**52 - 1
    np.multiply(raw, signed_wi.take(layer), out=out)
    redraw = np.flatnonzero((raw >= ki.take(layer)).any(axis=1))
    if len(redraw):
        fallback = np.empty((len(redraw), count))
        _generator_draws(fallback, seeds[redraw], words[redraw], kind, low, high)
        out[redraw] = fallback
    return out


def _generator_draws(out: np.ndarray, seeds: np.ndarray, states, kind: str, low: float,
                     high: float) -> None:
    """Fill row t of ``out`` with the draws of :func:`_draws` for
    ``seeds[t]``, drawn by its generator."""
    for rng, row in zip(_generators(seeds, states), out):
        if kind == "uniform":
            row[:] = rng.uniform(low, high, len(row))
        else:
            rng.standard_normal(out=row)


# ---------------------------------------------------------------------------
# Matrix file format: a JSON text document with an integer "dim" and a
# row-major "entries" list of [re, im] pairs.  Floats are written with 17
# significant digits so the round trip is bit-exact.
# ---------------------------------------------------------------------------


def _json_double(x: float) -> str:
    # JSON reads "-0" as the integer 0, which has no sign; "-0.0" keeps it.
    text = format_sig17(x)
    return "-0.0" if text == "-0" else text


def dump_matrix(mat) -> str:
    arr = _as_array(mat)
    dim = arr.shape[0]
    pairs = ", ".join(
        f"[{_json_double(v.real)}, {_json_double(v.imag)}]" for v in arr.ravel()
    )
    return f'{{"dim": {dim}, "entries": [{pairs}]}}\n'


def save_matrix(path: str | os.PathLike, mat) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_matrix(mat))


def parse_matrix(text: str | bytes) -> np.ndarray:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed JSON or UTF-8
        raise InputError(f"unparseable matrix file: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise InputError('matrix file must contain "dim" and "entries" fields')
    dim = doc["dim"]
    entries = doc["entries"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError('"dim" must be a positive integer')
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise InputError(f'"entries" must hold dim^2 = {dim * dim} [re, im] pairs')
    flat = np.empty(dim * dim, dtype=np.complex128)
    for idx, pair in enumerate(entries):
        flat[idx] = json_complex(pair, f"entry {idx}")
    arr = flat.reshape(dim, dim)
    if not np.isfinite(arr).all():
        raise InputError("matrix entries must be finite (no NaN/Inf)")
    return arr


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix file as a general complex square array."""
    with open(path, "rb") as fh:
        return parse_matrix(fh.read())


def load_hermitian(path: str | os.PathLike) -> HermitianMatrix:
    return HermitianMatrix(load_matrix(path))
