"""Permutation groups, integer partitions, and symmetric group characters.

Permutations are tuples of images on ``{0, ..., m-1}`` (0-based
throughout); an enumerated group is an ``(order, degree)`` array of them,
one per row.  Partitions are weakly decreasing tuples of positive
integers; they label both irreducible characters of the symmetric group
and conjugacy classes (as cycle types).  Irreducible character values are
computed by the Murnaghan-Nakayama recursion in exact integer arithmetic.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import BudgetError, InputError
from .util import json_complex

#: Largest m for which the full symmetric group may be enumerated (8! = 40320).
MAX_SYMMETRIC_DEGREE = 8

#: Largest permitted group order for explicit element lists.
MAX_GROUP_ORDER = math.factorial(MAX_SYMMETRIC_DEGREE)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def validate_permutation(images) -> tuple[int, ...]:
    """The images, integers (Python or numpy, not bool) listing 0..m-1 once each."""
    if not isinstance(images, (list, tuple, np.ndarray)) or not all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in images):
        raise InputError(f"a permutation is a list of integer images, got {images!r}")
    perm = tuple(int(x) for x in images)
    if sorted(perm) != list(range(len(perm))):
        raise InputError(f"not a permutation of 0..{len(perm) - 1}: {perm}")
    return perm


def permutation_sign(p: tuple[int, ...]) -> int:
    return (-1) ** (len(p) - len(cycle_type(p)))


def cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of a permutation as a partition (sorted descending)."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


def validate_partition(parts) -> tuple[int, ...]:
    lam = tuple(int(x) for x in parts)
    if not lam:
        raise InputError("partition must be nonempty")
    if any(x < 1 for x in lam):
        raise InputError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def partitions_of(m: int):
    """Yield all partitions of m in descending lexicographic order."""
    if m < 0:
        raise InputError("m must be nonnegative")

    def _gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from _gen(remaining - part, part, prefix + (part,))

    yield from _gen(m, m, ())


def class_size(mu: tuple[int, ...]) -> int:
    """Number of permutations in S_m with cycle type mu (exact integer)."""
    mu = validate_partition(mu)
    m = sum(mu)
    z = 1
    for length, reps in _multiplicities(mu).items():
        z *= length**reps * math.factorial(reps)
    return math.factorial(m) // z


def _multiplicities(mu: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in mu:
        out[part] = out.get(part, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion
# ---------------------------------------------------------------------------


def mn_character(lam, mu) -> int:
    """Irreducible character of S_m: value of chi_lam on the class mu.

    Uses the border-strip (beta-number) form of the Murnaghan-Nakayama
    rule.  Exact integer arithmetic; memoized on (lam, mu).
    """
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if sum(lam) != sum(mu):
        raise InputError(f"|lam| = {sum(lam)} but |mu| = {sum(mu)}")
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1
    strip, rest = mu[0], mu[1:]
    # Beta numbers: first-column hook lengths lam_i + (len - 1 - i).
    # Removing a border strip of length `strip` moves one beta number b
    # down to b - strip; the strip height is the count of beta numbers
    # strictly between the two, and contributes the sign.
    ell = len(lam)
    beta = sorted(lam[i] + (ell - 1 - i) for i in range(ell))
    beta_set = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        c = b - strip
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted(beta_set - {b} | {c}, reverse=True)
        new_lam = tuple(
            nb - (ell - 1 - i) for i, nb in enumerate(new_beta) if nb - (ell - 1 - i) > 0
        )
        total += (-1) ** height * _mn(new_lam, rest)
    return total


# ---------------------------------------------------------------------------
# Group and character specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A permutation group: S_degree when ``elements`` is empty, else the
    group of the listed elements."""

    degree: int
    elements: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def full_symmetric(cls, m: int) -> "GroupSpec":
        if m < 1:
            raise InputError("degree must be >= 1")
        return cls(degree=m)

    @classmethod
    def explicit(cls, perms) -> "GroupSpec":
        elems = tuple(validate_permutation(p) for p in perms)
        if not elems:
            raise InputError("explicit group needs at least one element")
        degree = len(elems[0])
        if any(len(p) != degree for p in elems):
            raise InputError("all permutations must act on the same number of letters")
        return cls(degree=degree, elements=elems)


class CharacterKind(Enum):
    PARTITION = "PARTITION"
    SIGN = "SIGN"
    TRIVIAL = "TRIVIAL"
    TABLE = "TABLE"


@dataclass(frozen=True)
class CharacterSpec:
    """Which character weighs the permutation sum.

    PARTITION is valid only for a full symmetric group; SIGN and TRIVIAL
    restrict to any permutation group; TABLE supplies one complex value
    per element of an explicit group.  Table characters are validated for
    chi(id) > 0 and |chi(g)| <= chi(id) but irreducibility is not checked.
    """

    kind: CharacterKind
    partition: tuple[int, ...] | None = None
    table: tuple[complex, ...] = field(default=())

    @classmethod
    def sign(cls) -> "CharacterSpec":
        return cls(kind=CharacterKind.SIGN)

    @classmethod
    def trivial(cls) -> "CharacterSpec":
        return cls(kind=CharacterKind.TRIVIAL)

    @classmethod
    def from_partition(cls, lam) -> "CharacterSpec":
        return cls(kind=CharacterKind.PARTITION, partition=validate_partition(lam))

    @classmethod
    def from_table(cls, values) -> "CharacterSpec":
        return cls(kind=CharacterKind.TABLE, table=tuple(complex(v) for v in values))


def check_symmetric_degree(degree: int) -> None:
    """Refuse with :class:`BudgetError` to enumerate S_degree beyond the
    guard, degree 8 (order 40320).  Enumerates nothing."""
    if degree > MAX_SYMMETRIC_DEGREE:
        raise BudgetError(f"S_{degree} has {degree}! elements; the guard allows degree <= "
                          f"{MAX_SYMMETRIC_DEGREE}, order {MAX_GROUP_ORDER}")


def enumerate_group(spec: GroupSpec) -> np.ndarray:
    """All group elements, one per row of an ``(order, degree)`` intp array,
    in lexicographic order.

    Explicit lists are validated for closure under composition and
    inverse; a violation is an input error.  Full symmetric groups are
    guarded by :func:`check_symmetric_degree`.
    """
    if not spec.elements:
        check_symmetric_degree(spec.degree)
        # Block a of S_k is a followed by S_(k-1), in order, on the letters
        # other than a: relabelling keeps each block in lexicographic order.
        elements = np.zeros((1, 0), dtype=np.intp)
        for k in range(1, spec.degree + 1):
            grown = np.empty((k * len(elements), k), dtype=np.intp)
            grown[:, 0] = np.repeat(np.arange(k), len(elements))
            rest = grown[:, 1:]
            rest[...] = np.tile(elements, (k, 1))
            rest += rest >= grown[:, :1]
            elements = grown
        return elements

    rows = np.array(spec.elements, dtype=np.intp)
    moved = _on_moved(rows)
    codes, first = np.unique(_codes(moved, moved.shape[1]), return_index=True)
    if len(codes) > MAX_GROUP_ORDER:
        raise BudgetError(f"group order {len(codes)} exceeds guard {MAX_GROUP_ORDER}")
    _validate_closure(moved[first], codes)
    return rows[first]


def _on_moved(rows: np.ndarray) -> np.ndarray:
    """Permutations ``rows`` on the s letters some row moves, relabelled 0..s-1
    in order, keeping products, inverses, order and cycles; ``rows`` for S_m."""
    letters = np.flatnonzero((rows != np.arange(rows.shape[1])).any(axis=0))
    return rows if len(letters) == rows.shape[1] else np.searchsorted(letters, rows[:, letters])


def _codes(digits: np.ndarray, base: int) -> np.ndarray:
    """One integer per row of ``digits``, each digit in ``[0, base)``, read
    most significant first: equal rows alone share a code, and codes sort
    as the rows do, lexicographically.  int64 where ``base**width`` fits,
    Python ints (an object array) beyond."""
    width = digits.shape[1]
    dtype = np.int64 if base**width <= 2**63 else object
    return digits @ np.array([base**k for k in range(width - 1, -1, -1)], dtype=dtype)


def _contains(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Whether each of ``codes`` is among the nonempty ``sorted_codes``."""
    at = np.searchsorted(sorted_codes, codes)
    return sorted_codes[np.minimum(at, len(sorted_codes) - 1)] == codes


def _validate_closure(elements: np.ndarray, codes: np.ndarray) -> None:
    """Refuse distinct, sorted ``elements`` (with their sorted :func:`_codes`)
    that lack the identity or an inverse or a product of two of them."""
    degree = elements.shape[1]
    # The identity is the lexicographically first permutation.
    if not np.array_equal(elements[0], np.arange(degree)):
        raise InputError("explicit group does not contain the identity")
    missing = ~_contains(codes, _codes(np.argsort(elements, axis=1), degree))
    if missing.any():
        p = tuple(elements[np.argmax(missing)].tolist())
        raise InputError(f"explicit group is not closed under inverse: {p}")
    for p in elements:
        # Row q of p[elements] is the product p o q.
        if not _contains(codes, _codes(p[elements], degree)).all():
            raise InputError("explicit group is not closed under composition")


def _class_codes(elements: np.ndarray) -> np.ndarray:
    """One integer per element, shared exactly by the elements of one cycle
    type (one conjugacy class of S_degree).

    Digit j is the number of moved letters (:func:`_on_moved`) that p^(j+1)
    fixes.  The counts of p, p^2, ..., p^s give, by Moebius inversion, the
    number of cycles of each length, so they fix the cycle type and back.
    """
    elements = _on_moved(elements)
    order, degree = elements.shape
    # Column r of a power (one row per letter) is element r.  Column r of
    # p^(j+1) = p^j o p gathers column r of p^j at the images p_r(i); the
    # powers are held in the smallest integer type, which gathers fastest.
    at = (elements.T * order + np.arange(order)).ravel()
    power = elements.T.astype(np.min_scalar_type(degree - 1)).ravel()
    letters = np.arange(degree)[:, np.newaxis]
    fixed = np.empty((degree, order), dtype=np.intp)
    for j in range(degree):
        fixed[j] = (power.reshape(degree, order) == letters).sum(axis=0)
        if j + 1 < degree:
            power = power[at]
    return _codes(fixed.T, degree + 1)


def character_values(spec: GroupSpec, chi: CharacterSpec, elements: np.ndarray) -> np.ndarray:
    """Character value per element, aligned with the rows of ``elements``
    (as :func:`enumerate_group` gives them).

    A sign or partition character is constant on each conjugacy class of
    S_degree: one pass over the elements finds the classes, and the value
    is formed once per class, from one of its elements, and scattered back.
    """
    if chi.kind is CharacterKind.TRIVIAL:
        return np.ones(len(elements), dtype=np.complex128)
    if chi.kind in (CharacterKind.SIGN, CharacterKind.PARTITION):
        if chi.kind is CharacterKind.SIGN:
            value = permutation_sign
        else:
            if spec.elements:
                raise InputError("partition characters require the full symmetric group")
            lam = chi.partition
            if lam is None or sum(lam) != spec.degree:
                raise InputError(f"partition {lam} does not label a character of S_{spec.degree}")

            def value(p):
                return mn_character(lam, cycle_type(p))

        _, first, cls = np.unique(_class_codes(elements), return_index=True,
                                  return_inverse=True)
        per_class = np.array([value(tuple(elements[i].tolist())) for i in first],
                             dtype=np.complex128)
        return per_class[cls]
    if chi.kind is CharacterKind.TABLE:
        if len(chi.table) != len(elements):
            raise InputError(
                f"character table covers {len(chi.table)} elements, group has {len(elements)}"
            )
        vals = np.asarray(chi.table, dtype=np.complex128)
        ident_idx = np.flatnonzero((elements == np.arange(elements.shape[1])).all(axis=1))[0]
        chi_id = vals[ident_idx]
        if not (chi_id.imag == 0 and chi_id.real > 0):
            raise InputError("table character must have chi(identity) real and positive")
        if np.any(np.abs(vals) > chi_id.real * (1 + 1e-12)):
            raise InputError("table character has |chi(g)| > chi(identity)")
        return vals
    raise InputError(f"unsupported character kind {chi.kind}")


# ---------------------------------------------------------------------------
# Character table file: JSON with "elements" (image sequences, one of which
# must be the identity) and "values" ([re, im] per element, same order).
# ---------------------------------------------------------------------------


def load_character_table(path: str | os.PathLike) -> tuple[GroupSpec, CharacterSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise InputError(f"unparseable character table: {exc}") from exc
    if not isinstance(doc, dict) or "elements" not in doc or "values" not in doc:
        raise InputError('character table must contain "elements" and "values"')
    if not (isinstance(doc["elements"], list) and isinstance(doc["values"], list)):
        raise InputError('character table "elements" and "values" must be lists')
    elements = [validate_permutation(p) for p in doc["elements"]]
    values = doc["values"]
    if len(values) != len(elements):
        raise InputError("character table needs one value per element")
    # Keep values aligned with the deterministic element order.
    order = sorted(range(len(elements)), key=lambda i: elements[i])
    group = GroupSpec.explicit([elements[i] for i in order])
    vals = [json_complex(values[i], f"character value {i}") for i in order]
    return group, CharacterSpec.from_table(vals)


def save_character_table(path: str | os.PathLike, elements, values) -> None:
    doc = {
        "elements": [list(validate_permutation(p)) for p in elements],
        "values": [[complex(v).real, complex(v).imag] for v in values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")
