"""Small shared helpers: seed derivation, digests, JSON numbers, formatting."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InputError

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One finalization round of the splitmix64 generator."""
    z = (state + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed from a master seed and a trial index.

    Independent of how many other indices are drawn, so how trials are
    grouped into chunks cannot change the streams.
    """
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master seed must fit in 64 bits")
    if index < 0:
        raise ValueError("index must be nonnegative")
    return splitmix64((master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64)


def derive_seeds(master_seeds, indices) -> np.ndarray:
    """:func:`derive_seed` over arrays: a uint64 array, the seed of each
    master seed and index broadcast together, each as the scalar form gives
    it.  The arguments must be in range (masters in ``[0, 2**64)``, indices
    in ``[0, 2**64 - 1)``); unsigned array arithmetic wraps modulo 2**64
    exactly as the masks of the scalar form do."""
    z = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # master + (index + 1) * gamma, plus splitmix64's own gamma.
        z = (z + 2) * _SPLITMIX_GAMMA + np.asarray(master_seeds, dtype=np.uint64)
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)


def array_digests(stack: np.ndarray) -> tuple[str, ...]:
    """The SHA-256 hex digest of every array of a stack: of its shape, as
    ``str`` prints it, then of its C-order complex bytes."""
    a = np.ascontiguousarray(stack, dtype=np.complex128)
    head = hashlib.sha256(str(a.shape[1:]).encode())
    size = a.itemsize * math.prod(a.shape[1:])
    raw = memoryview(a.reshape(-1).view(np.uint8))
    digests = []
    for lo in range(0, len(raw), size):
        h = head.copy()
        h.update(raw[lo:lo + size])
        digests.append(h.hexdigest())
    return tuple(digests)


def json_complex(pair, what: str) -> complex:
    """A ``[re, im]`` pair of JSON numbers (int or float, not bool) as a
    complex; :class:`InputError` naming ``what`` otherwise."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)):
        raise InputError(f"{what} is not a [re, im] pair of numbers: {pair!r}")
    try:
        return complex(float(pair[0]), float(pair[1]))
    except OverflowError:
        raise InputError(f"{what} is out of the float range") from None


def format_sig17(x: float) -> str:
    """Decimal with 17 significant digits; round-trips any double exactly."""
    return format(float(x), ".17g")


def format_complex_sig17(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format_sig17(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{format_sig17(z.real)}{sign}{format_sig17(abs(z.imag))}i"
