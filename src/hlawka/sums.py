"""The operator inequality families and their tensor-sum differences.

Every family is one :class:`FamilySpec` of :data:`FAMILIES`, whose key is
its only name: the CLI's, the reports' and the library's, as in
``build_difference("hlawka3", [a, b, c], p=3)``.  The entry holds its LHS and
RHS as levels, each an exact weight times a list of index subsets, read as
``sum_S weight * F(X_S)`` for the subset sums ``X_S`` and a functor ``F``.
:func:`build_difference` takes ``F`` to be the p-fold Kronecker power and
assembles LHS - RHS over the n inputs it is given, ready for Loewner
certification; :func:`hlawka.matfunc.scalar_inequality_check` takes a
generalized matrix function; the convex/norm suites of :mod:`hlawka.scalar`
are entries with a scalar ``term`` rule in place of ``F``.  Input ``i`` is a
:class:`~hlawka.linalg.HermitianStack` holding matrix ``i`` of every trial
(a :class:`~hlawka.linalg.HermitianMatrix` is the stack of one trial), and
every trial's difference is built at once: a stack of them, or one matrix
for single-matrix inputs.  The families:

* ``superadd``:    (A1+...+An)^op  >=  sum_i Ai^op
* ``hlawka3``:     (A+B+C)^op + A^op + B^op + C^op  >=  sum of pair powers
* ``supermod``:    (A+B+C)^op + A^op  >=  (A+B)^op + (A+C)^op
* ``alternating``: S_n + S_{n-2} + ...  >=  S_{n-1} + S_{n-3} + ...
* ``pop-pairs``:   (n-2) sum Ai^op + (sum Ai)^op  >=  sum of pair powers
* ``pop-subsets``: binomially weighted version over size-m subsets
* ``pop-levels``:  rationally weighted three-level comparison

where X^op denotes the p-fold Kronecker power and S_k the sum of such
powers over all size-k subset sums.

The difference is built as a positive sum over words, as the paper proves
it.  Expanding each subset power over words w in [n]^p gives
LHS - RHS = sum_w c(supp w) A_w, with A_w = A_{w_1} (x) ... (x) A_{w_p} and
the exact coefficients c(U) of :func:`support_coefficients`, all >= 0 for
every entry above at every parameter set (README "What is checked").
A DP over the word length keeps one partial sum per support set whose
reachable supports do not all share one coefficient, and one merged
partial sum for every other set, each weighted by its c, which then takes
every letter (so ``superadd`` keeps n + 1); a set that reaches only c = 0
is dropped.  Nothing is formed that cancels later.
The alternating difference is an n-th order finite difference: its only
nonzero coefficient is on the full set, so at p < n no word survives and it
is exactly zero; strict positivity needs p >= n.  :func:`symmetric_tensor_sum`
builds S_k the same way, as a private table of one level.

Every array of a build is a view of one :class:`Workspace`, which a run
passes to each of its builds so that they reuse its pages.

Determinism: inputs are first canonically ordered by content hash (trial
by trial for stacks), then every sum of the DP runs in one fixed order,
the same for any number of trials.  Shuffling the input list
therefore cannot change a single bit of the output.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import comb, lcm

import numpy as np

from .errors import BudgetError, InputError
from .linalg import (
    DEFAULT_MAX_TENSOR_DIM,
    HermitianStack,
    _entries,
    _same_shape,
    _single_or_all,
    check_tensor_budget,
)

#: Largest number of subsets one level may list (C(18, 9) = 48620 fits):
#: a level is counted before it is built, and refused beyond this.
MAX_LEVEL_SUBSETS = 2**16


@dataclass(frozen=True)
class Level:
    """``weight`` times the sum of X_S over the index subsets S, where X_S
    is the image (Kronecker power, generalized matrix function) of the
    subset sum of the inputs indexed by S."""

    weight: Fraction
    subsets: tuple[tuple[int, ...], ...]


def _level(n: int, size: int, weight=1) -> Level:
    if comb(n, size) > MAX_LEVEL_SUBSETS:
        raise BudgetError(f"level of the {size}-subsets of {n} inputs: C({n}, {size}) = "
                          f"{comb(n, size)} exceeds budget {MAX_LEVEL_SUBSETS}")
    return Level(Fraction(weight), tuple(combinations(range(n), size)))


def _alternating(n, k, ell, m):
    return ([_level(n, j) for j in range(n, 0, -2)],
            [_level(n, j) for j in range(n - 1, 0, -2)])


def _pop_subsets(n, m):
    return ([_level(n, 1, comb(n - 2, m - 1)), _level(n, n, comb(n - 2, m - 2))],
            [_level(n, m)])


def _pop_levels(n, k, ell, m):
    return ([_level(n, k, Fraction(m - ell, k * comb(n, k))),
             _level(n, m, Fraction(ell - k, m * comb(n, m)))],
            [_level(n, ell, Fraction(m - k, ell * comb(n, ell)))])


@dataclass(frozen=True)
class FamilySpec:
    """One ``scalar-verify`` family: the sum of the ``lhs`` levels dominates
    the sum of the ``rhs`` levels.

    ``sides(n, k, ell, m)`` gives ``(lhs, rhs)`` for a valid parameter set;
    ``valid`` tests the condition that ``needs`` states.  ``supermod`` keeps
    input 0 in its place.  ``term`` is ``None`` for an operator family, else
    the term rule of a convex/norm suite.  A violation is a failure under the
    ``status`` ``proven`` or ``refuted``, and over ``proven_at`` inputs; under
    ``evaluator`` margins are only reported.  ``notes(n)`` gives the
    interpretation flags of a run over n inputs.
    """

    status: str
    needs: str
    valid: Callable[..., bool]
    sides: Callable[..., tuple[list[Level], list[Level]]]
    supermod: bool = False
    term: str | None = None
    notes: Callable[[int], list[str]] = lambda n: []
    proven_at: int | None = None

    @property
    def levels(self) -> list[str]:
        """The levels, of ``k``, ``ell`` and ``m``, that ``needs`` names."""
        return [name for name in ("k", "ell", "m") if name in self.needs.split()]


#: The one definition of every operator family, keyed by its name.
FAMILIES = {
    "hlawka3": FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3, _alternating),
    "supermod": FamilySpec(
        "proven", "n = 3", lambda n, k, ell, m: n == 3,
        lambda n, k, ell, m: ([Level(Fraction(1), ((0, 1, 2), (0,)))],
                              [Level(Fraction(1), ((0, 1), (0, 2)))]),
        supermod=True),
    "superadd": FamilySpec(
        "proven", "n >= 2", lambda n, k, ell, m: n >= 2,
        lambda n, k, ell, m: ([_level(n, n)], [_level(n, 1)])),
    "alternating": FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3, _alternating),
    "pop-pairs": FamilySpec(
        "proven", "n >= 3", lambda n, k, ell, m: n >= 3,
        lambda n, k, ell, m: _pop_subsets(n, 2)),
    "pop-subsets": FamilySpec(
        "proven", "2 <= m < n", lambda n, k, ell, m: m is not None and 2 <= m < n,
        lambda n, k, ell, m: _pop_subsets(n, m)),
    "pop-levels": FamilySpec(
        "proven", "1 <= k < ell < m <= n",
        lambda n, k, ell, m: None not in (k, ell, m) and 1 <= k < ell < m <= n, _pop_levels),
}

#: S_k, the one-level table of :func:`symmetric_tensor_sum`; no family.
_TENSOR_SUM = FamilySpec(
    "proven", "1 <= k <= n", lambda n, k, ell, m: k is not None and 1 <= k <= n,
    lambda n, k, ell, m: ([_level(n, k)], []))


def operator_family(name: str) -> FamilySpec:
    """The :data:`FAMILIES` entry of ``name``; :class:`InputError` naming
    the operator families for any other name, a convex/norm suite's too."""
    if name not in FAMILIES:
        raise InputError(f"unknown operator family {name!r}; one of {list(FAMILIES)}")
    return FAMILIES[name]


def checked_sides(name: str, spec: FamilySpec, n: int, k=None, ell=None, m=None):
    """``spec.sides`` over n inputs.

    Raises :class:`InputError` naming the parameters when the condition
    fails; every table is read through here, so a fault reads the same on
    every route.
    """
    values = {"n": n, "k": k, "ell": ell, "m": m}
    if not spec.valid(**values):
        got = ", ".join(f"{key}={values[key]}" for key in ("n", *spec.levels))
        raise InputError(f"{name} needs {spec.needs}, got {got}")
    return spec.sides(**values)


def _canonical_arrays(hs: list[HermitianStack], stack: np.ndarray, out: np.ndarray, *,
                      keep_first_fixed: bool = False) -> np.ndarray:
    # Sort each trial's matrices, carriers of one shape, by their own
    # digests (stable, so equal matrices keep their input order), then
    # gather them in one contiguous (n, trials, dim, dim) stack, position
    # by position: the inputs stacked in the flat buffer ``stack``, then
    # gathered into the flat buffer ``out``.
    n, count, dim = len(hs), len(hs[0]), hs[0].dim
    # Position j of trial t takes row picks[j, t] of the inputs stacked.
    first = 1 if keep_first_fixed else 0
    picks = np.empty((n, count), dtype=np.intp)
    picks[:first] = 0
    for t, key in enumerate(zip(*(h.digests for h in hs))):
        picks[first:, t] = sorted(range(first, n), key=key.__getitem__)
    picks *= count
    picks += np.arange(count)
    size = n * count * dim * dim
    stacked = np.stack([_entries(h) for h in hs], out=stack[:size].reshape(n, count, dim, dim))
    return np.take(stacked.reshape(n * count, dim, dim), picks.ravel(), axis=0, mode="clip",
                   out=out[:size].reshape(n * count, dim, dim)).reshape(n, count, dim, dim)


def support_coefficients(name: str, n: int, k=None, ell=None, m=None) -> Mapping[int, Fraction]:
    """The coefficient ``c(U)`` of every nonempty support set U of the
    entry ``FAMILIES[name]`` over n inputs, keyed by bitmask (input i is
    bit i), in ascending order.

    Expanding each subset power over words, ``(sum_{i in S} A_i)^{(x)p} =
    sum_{supp w ⊆ S} A_{w_1} (x) ... (x) A_{w_p}``, turns LHS - RHS into
    ``sum_w c(supp w) A_w``, where ``c(U)`` is the sum over the levels of
    ``±weight * #{S in the level : S ⊇ U}``, + on the LHS and - on the RHS.
    Exact, and read on demand: the mapping holds one value per set size
    and one per set under a level that does not list every subset of its
    size (``supermod``'s), so it is small at any n.
    """
    return _Coefficients(checked_sides(name, operator_family(name), n, k, ell, m), n)


class _Coefficients(Mapping):
    # c(U) = by_size[|U|] + listed.get(U, 0): a level of every subset of
    # one size adds C(n - j, size - j) to each j-set, any other level adds
    # its weight to every subset of each set it lists.

    def __init__(self, sides, n: int):
        self.n = n
        by_size = [Fraction(0)] * (n + 1)
        listed: dict[int, Fraction] = {}
        for sign, side in zip((1, -1), sides):
            for level in side:
                weight = sign * level.weight
                sizes = {len(s) for s in level.subsets}
                size = max(sizes, default=0)
                if sizes == {size} and len({frozenset(s) for s in level.subsets}) == comb(n, size):
                    for j in range(1, size + 1):
                        by_size[j] += weight * comb(n - j, size - j)
                    continue
                for s in level.subsets:
                    mask = sum(1 << i for i in s)
                    sub = mask
                    while sub:
                        listed[sub] = listed.get(sub, 0) + weight
                        sub = (sub - 1) & mask
        self._by_size = by_size
        self._listed = {u: c for u, c in listed.items() if c}
        self.den = lcm(*(c.denominator for c in (*by_size, *self._listed.values())))
        # steady[j]: the largest size up to which by_size keeps its value at j.
        self._steady = list(range(n + 1))
        for j in range(n - 1, 0, -1):
            if by_size[j] == by_size[j + 1]:
                self._steady[j] = self._steady[j + 1]

    def __getitem__(self, u: int) -> Fraction:
        if not 0 < u < 1 << self.n:
            raise KeyError(u)
        return self._by_size[u.bit_count()] + self._listed.get(u, 0)

    def __iter__(self):
        return iter(range(1, 1 << self.n))

    def __len__(self) -> int:
        return (1 << self.n) - 1

    def settled(self, u: int, r: int) -> Fraction | None:
        """The one coefficient of every support that r more letters can
        reach from U (U itself included), or ``None`` when they may differ;
        a listed set in reach counts as a difference."""
        if r == 0:
            return self[u]
        low, high = max(1, u.bit_count()), min(self.n, u.bit_count() + r)
        if high > self._steady[low] or any(
                v & u == u and low <= v.bit_count() <= high for v in self._listed):
            return None
        return self._by_size[low]


#: Byte budget of a chunk of trials: ``harness`` runs as many trials at
#: once as fit it at its count of a trial, every route's chunks and the
#: search's descent rounds.  Big enough to amortize the fixed per-call cost
#: of sampling, building and certifying a chunk of small tuples; a trial
#: over budget runs alone.
CHUNK_BYTES = 2 * 1024 * 1024

#: Byte budget of a kernel's block within a chunk: the DP forms its stacked
#: Kronecker products in blocks of rows at most this size (and at most one
#: difference row of its workspace), and a row whose one trial is over it
#: in pieces of the row before it, each at most this size; :mod:`~hlawka.matfunc`
#: walks its matrices in blocks within it and refuses column-set weights
#: over it (and over four cells per element).  A matrix over budget runs alone.
BLOCK_BYTES = 512 * 1024

#: Byte budget of what one trial holds at once by the harness's one count
#: (on ``verify`` the largest of :func:`working_set`, the certificate's two
#: differences and the sampler's peak), refused before the first trial:
#: hlawka3 at p 12, dim 2 holds 0.501 GiB.
MAX_WORKING_SET_BYTES = 2**31

#: Every entry of the absent row that ends a table the next step reads as
#: a missing source: adding -0 leaves every value, signed zeros included,
#: as it is.
_ABSENT = complex(-0.0, -0.0)

#: The index of the difference's buffer among a :class:`Workspace`'s, the
#: last of :meth:`_WordPlan.buffers`.
_DIFFERENCE = 6


@dataclass(frozen=True)
class _Step:
    """One step of the support-set DP: the table of step k + 1, ``size``
    rows, from that of step k.

    ``classes`` holds ``(lo, hi, slots)``: each row r in ``lo..hi - 1``
    takes ``sum_t (T_k[a_t[r]] + T_k[b_t[r]]) (x) A_{i_t[r]}`` over its
    terms, t ascending with i, one ``(i_t, a_t, b_t)`` per slot t; an
    absent source is the row after the last of step k, there when
    ``absent``.
    ``merged[i]`` is ``None`` or ``(first, by_weight)``, the term of the
    merged row (the last of the ``size``): ``by_weight`` is one ``(weight,
    rows)`` per integer weight of its sources, in order of first appearance
    (the merged row first, then sets ascending by bitmask).
    """

    size: int
    classes: tuple
    merged: tuple
    absent: bool


@dataclass(frozen=True)
class _WordPlan:
    """The support-set DP of one entry over n inputs at power p.

    A row of the table of step k is a set U whose reachable supports do
    not all share one coefficient, holding ``T_k[U]`` (rows with as many
    terms are adjacent, by bitmask); or, after them, the merged row, which
    holds every other live set, each weighted by its integer ``c * den``.
    At the last step every set is settled, so the merged row over ``den``
    is the difference, and a plan with no steps means it is exactly zero.
    ``live[k]`` counts the rows of step k.
    """

    steps: tuple[_Step, ...]
    den: int
    live: tuple[int, ...]
    n: int
    p: int

    def working_set(self, dim: int) -> int:
        """Entries per trial of a build's :class:`Workspace`, the difference
        included: the sum of :meth:`buffers`."""
        return sum(self.buffers(dim))

    def tables(self, dim: int) -> tuple[tuple[int, int], ...]:
        """``(buffer, entries per trial)`` of the table of each step 0..p,
        the index into :meth:`buffers`: the difference's own buffer holds
        the table of step p and every table of p's parity no larger, and
        every other table is in the buffer of its step's parity."""
        p, sq = self.p, dim * dim
        rows = [2, *(step.size + (k + 1 < p and self.steps[k + 1].absent)
                     for k, step in enumerate(self.steps))]
        return tuple((_DIFFERENCE if k % 2 == p % 2 and size * sq**k <= sq**p else k % 2,
                      size * sq**k) for k, size in enumerate(rows))

    def buffers(self, dim: int) -> tuple[int, ...]:
        """Entries per trial of each buffer of a build's :class:`Workspace`,
        in order: the tables of the even and of the odd steps that
        :meth:`tables` does not place in the difference's buffer, the
        product, the gather, the letters, the canonical inputs and the
        difference.

        A block of a step's rows is at most one difference row and at
        most ``BLOCK_BYTES`` wide in products, or one row when that row is
        wider, and it gathers the rows of the step before it; a row over
        ``BLOCK_BYTES`` is formed one piece of the row before it at a time,
        gathered and multiplied by one letter entry in pieces at most
        ``BLOCK_BYTES``.  The product buffer takes the block's second
        gather, a merged row's later weights, the inputs' stack and, unless
        the dead table of step p - 1 holds it, the digit-reversal copy, each
        dead before the buffer is next written."""
        n, p, sq = self.n, self.p, dim * dim
        if not self.steps:
            return (0, 0, n * sq, 0, 0, n * sq, sq**p)
        sizes = [0] * (_DIFFERENCE + 1)
        for buffer, entries in self.tables(dim):
            sizes[buffer] = max(sizes[buffer], entries)
        product = n * sq if sizes[(p - 1) % 2] >= sq**p else max(sq**p, n * sq)
        gather = letters = 0
        for k, step in enumerate(self.steps):
            prior, row = sq**k, sq ** (k + 1)
            if _pieced(row):
                piece = min(prior, _fit(1, 1))
                gather, product = max(gather, piece), max(product, piece)
                continue
            rows = min(sq ** (p - 1 - k), _fit(row, 1),
                       max((hi - lo for lo, hi, _ in step.classes), default=0))
            merged = any(step.merged)
            gather = max(gather, rows * prior, merged * prior)
            product = max(product, rows * row, merged * row)
            letters = max(letters, rows * sq)
        sizes[2:_DIFFERENCE] = product, gather, letters, n * sq
        return tuple(sizes)


def _word_plan(coeff: _Coefficients, n: int, p: int) -> _WordPlan:
    # A prefix of support U with every reachable support at coefficient c
    # contributes c * (its sum) (x) (sum_i A_i)^(x)(p - k): it joins the
    # merged row, which then takes every letter; c = 0 drops it.  Settled
    # stays settled, as fewer letters reach fewer supports.
    sets, merged, steps, live = [0], False, [], []
    for k in range(p):
        live.append(len(sets) + merged)
        row = {u: r for r, u in enumerate(sets)}
        absent = len(sets) + merged
        weights, terms = {}, {}
        for v in sorted({w | 1 << i for w in sets for i in range(n)}):
            c = coeff.settled(v, p - k - 1)
            if c is None:
                terms[v] = [(i, row.get(v, absent), row.get(v ^ 1 << i, absent))
                            for i in range(n) if v >> i & 1 and (v in row or v ^ 1 << i in row)]
            elif c:
                weights[v] = int(c * coeff.den)
        kept = sorted(terms, key=lambda v: (len(terms[v]), v))
        classes, lo = [], 0
        for count, rows in groupby(kept, key=lambda v: len(terms[v])):
            rows = list(rows)
            classes.append((lo, lo + len(rows), tuple(
                tuple(np.array([terms[v][t][j] for v in rows], dtype=np.intp) for j in range(3))
                for t in range(count))))
            lo += len(rows)
        into = []
        for i in range(n):
            by_weight = {1: [len(sets)]} if merged else {}
            for w in sorted(sets):
                if w | 1 << i in weights:
                    by_weight.setdefault(weights[w | 1 << i], []).append(row[w])
            into.append((not any(into), tuple((weight, tuple(rows))
                                              for weight, rows in by_weight.items()))
                        if by_weight else None)
        if not kept and not any(into):
            return _WordPlan((), coeff.den, (), n, p)
        reads_absent = any(absent in (a, b) for v in kept for _, a, b in terms[v])
        # _word_sum gathers with mode="clip", which clamps an index past the
        # table instead of raising: every source must be a letter or a row.
        assert all(index.max() < bound for _, _, slots in classes for slot in slots
                   for index, bound in zip(slot, (n, absent + reads_absent, absent + reads_absent)))
        steps.append(_Step(len(kept) + any(into), tuple(classes), tuple(into), reads_absent))
        sets, merged = kept, any(into)
    return _WordPlan(tuple(steps), coeff.den, tuple(live), n, p)


@lru_cache(maxsize=64)
def _plan(name: str, spec: FamilySpec, n: int, p: int, k, ell, m) -> _WordPlan:
    return _word_plan(_Coefficients(checked_sides(name, spec, n, k, ell, m), n), n, p)


def working_set(family: str, n: int, p: int, dim: int, *, k=None, ell=None, m=None) -> int:
    """Entries per trial that :func:`build_difference` holds at once over
    n inputs of size ``dim``: its :class:`Workspace`, the difference
    included.  Refused by the harness, in its count of the whole trial."""
    return _plan(family, operator_family(family), n, p, k, ell, m).working_set(dim)


def check_trial_bytes(nbytes: int) -> None:
    """Raise :class:`BudgetError` if one trial holding ``nbytes`` at once
    exceeds :data:`MAX_WORKING_SET_BYTES`."""
    if nbytes > MAX_WORKING_SET_BYTES:
        raise BudgetError(f"working set of one trial: {nbytes} bytes exceeds budget "
                          f"{MAX_WORKING_SET_BYTES}")


class Workspace:
    """The memory of the word-sum build, to reuse over the builds of a run.

    Pass one workspace to every :func:`build_difference` of a run, as
    ``workspace=``: its buffers are sized by the first build and reused by
    every later one that fits them, so those write into pages already
    faulted in, with every sum in the same order and the same bits.  A
    build that does not fit grows the buffers it outgrows.  The difference
    a build returns lives in the workspace until the next build given it
    overwrites it, so drop each difference before the next build.  A build
    given no workspace makes one of its own, and its difference is never
    overwritten.  The difference has a buffer of its own, of exactly its
    size, so dropping the workspace frees everything else.
    """

    def __init__(self) -> None:
        self._held: list[np.ndarray] = []

    def _buffers(self, sizes) -> list[np.ndarray]:
        # Flat complex buffers of ``sizes`` entries, the difference's of
        # exactly its size and every other of at least its size: a held
        # buffer that fits is kept, and one that does not is dropped before
        # its replacement is made.
        for j, size in enumerate(sizes):
            if j == len(self._held):
                self._held.append(np.empty(0, dtype=np.complex128))
            held = self._held[j].size
            if held < size or j == _DIFFERENCE and held != size:
                self._held[j] = None
                self._held[j] = np.empty(size, dtype=np.complex128)
        return self._held


def _rows(buffer: np.ndarray, rows: int, count: int, wide: int) -> np.ndarray:
    # A (rows, count, wide, wide) table at the start of a flat buffer.
    return buffer[:rows * count * wide * wide].reshape(rows, count, wide, wide)


def _fit(entries: int, count: int) -> int:
    # How many units of ``entries`` entries of each of ``count`` trials fit
    # BLOCK_BYTES together, and at least one.
    return max(1, BLOCK_BYTES // (16 * count * entries))


def _pieced(row: int) -> bool:
    # Whether a row of ``row`` entries of one trial is over BLOCK_BYTES, and
    # so formed in pieces of the row before it.
    return 16 * row > BLOCK_BYTES


def _word_sum(inputs: np.ndarray, plan: _WordPlan, p: int, buffers) -> np.ndarray:
    # T_k[U] is the sum of A_w over the words w of length k with support
    # exactly U, and T_{k+1}[U] = sum_{i in U} (T_k[U] + T_k[U - i]) (x) A_i.
    # Each row sums its terms left to right over i ascending, and the
    # merged row its sources in plan order, so the bits are fixed: the
    # same as one row at a time, for any number of trials.
    # A table is stored letter-major: the newest letter's (row, column)
    # entry is the outermost index of a row, then the table row it
    # multiplies, so each product is a contiguous run of a whole row of
    # T_k times one entry of A_i, and every entry is the same product of
    # the same two factors as in the standard layout.  One digit-reversal
    # copy at the end gives the standard layout.
    # Every array is a view of the workspace ``buffers`` that
    # _WordPlan.buffers sizes, each table in the buffer _WordPlan.tables
    # names, and every row a step reads is written first in this build.
    _, count, dim, _ = inputs.shape
    product, gather, letters = buffers[2], buffers[3], buffers[4]
    if not plan.steps:
        total = _rows(buffers[_DIFFERENCE], 1, count, dim**p)[0]
        total[...] = 0
        return total
    (first, _), *placed = plan.tables(dim)
    table = _rows(buffers[first], 2, count, 1)
    table[0] = 1
    table[1] = _ABSENT
    for k, (step, (buffer, _)) in enumerate(zip(plan.steps, placed)):
        wide = dim ** (k + 1)
        # The absent row only where the next step reads it.
        absent = k + 1 < len(plan.steps) and plan.steps[k + 1].absent
        out = _rows(buffers[buffer], step.size + absent, count, wide)
        if absent:
            out[-1] = _ABSENT
        if _pieced(wide * wide):
            _in_pieces(table, inputs, step, out, gather, product)
        else:
            block = min(dim ** (2 * (p - 1 - k)), _fit(wide * wide, count))
            _in_blocks(table, inputs, step, out, block, gather, product, letters)
        table = out
    total = table[0]
    if plan.den != 1:
        total /= plan.den
    # The dead tables of step p - 1 are the copy's spare when they hold it.
    spare = buffers[(p - 1) % 2]
    return _digit_reversed(total, dim, p, spare if spare.size >= total.size else product)


def _in_blocks(table: np.ndarray, inputs: np.ndarray, step: _Step, out: np.ndarray,
               block: int, gather: np.ndarray, product: np.ndarray, letters: np.ndarray) -> None:
    # The rows of ``step`` into ``out``, ``block`` rows of a class at a
    # time, from the table ``table`` of the step before: each term gathers
    # its sources' rows into ``gather`` and ``product`` and its letters
    # into ``letters``, and forms its products in ``product`` after the
    # first.
    count, dim, wide = table.shape[1], inputs.shape[-1], out.shape[-1]
    for lo, hi, slots in step.classes:
        for start in range(lo, hi, block):
            stop = min(hi, start + block)
            part = slice(start - lo, stop - lo)
            rows = out[start:stop]
            # The second gather is read before a product is formed over it.
            x, y = (_rows(buffer, stop - start, count, wide // dim) for buffer in (gather, product))
            z = _rows(letters, stop - start, count, dim)
            for t, (i, a, b) in enumerate(slots):
                np.take(table, a[part], axis=0, out=x, mode="clip")
                np.take(table, b[part], axis=0, out=y, mode="clip")
                np.add(x, y, out=x)
                np.take(inputs, i[part], axis=0, out=z, mode="clip")
                if t == 0:
                    _lead(x, z, rows)
                else:
                    np.add(rows, _lead(x, z, _rows(product, stop - start, count, wide)), out=rows)
    merged_row = out[step.size - 1]
    for a, merged in zip(inputs, step.merged):
        if merged is not None:
            first, by_weight = merged
            total = _weighted_sum(table, by_weight, _rows(gather, 1, count, wide // dim)[0],
                                  _rows(product, 1, count, wide // dim)[0])
            if first:
                _lead(total, a, merged_row)
            else:
                np.add(merged_row, _lead(total, a, _rows(product, 1, count, wide)[0]),
                       out=merged_row)


def _in_pieces(table: np.ndarray, inputs: np.ndarray, step: _Step, out: np.ndarray,
               gather: np.ndarray, product: np.ndarray) -> None:
    # The rows of ``step`` into ``out`` for a row over BLOCK_BYTES: one
    # trial, row and piece (a range of the entries of a row of ``table``,
    # the step before) at a time.  Each term's x = T_k[a][piece] +
    # T_k[b][piece] is formed in ``gather``, and then for each letter entry
    # e the first term sets row[e, piece] to x * A_i[e] and each later one
    # adds that product, formed in ``product``: the sum of the same
    # products in the same order as a whole row's.  Every call is over
    # contiguous entries and a scalar, so numpy allocates no buffer for it.
    count, prior = table.shape[1], table[0, 0].size
    source = table.reshape(len(table), count, prior)
    grid = out.reshape(len(out), count, -1, prior)
    entries = inputs.reshape(len(inputs), count, -1)
    size = min(prior, _fit(1, 1))
    for c in range(count):
        for start in range(0, prior, size):
            cols = slice(start, min(prior, start + size))
            x, y = gather[:cols.stop - start], product[:cols.stop - start]
            for lo, hi, slots in step.classes:
                for r in range(lo, hi):
                    for t, (i, a, b) in enumerate(slots):
                        np.add(source[a[r - lo], c, cols], source[b[r - lo], c, cols], out=x)
                        _spread(x, entries[i[r - lo], c], grid[r, c, :, cols], y, t == 0)
            for a, merged in zip(entries, step.merged):
                if merged is not None:
                    first, by_weight = merged
                    _spread(_weighted_sum(source[:, c, cols], by_weight, x, y), a[c],
                            grid[step.size - 1, c, :, cols], y, first)


def _spread(x: np.ndarray, a: np.ndarray, out: np.ndarray, spare: np.ndarray,
            first: bool) -> None:
    # out[e] = x * a[e] for each letter entry e when ``first``, else out[e]
    # plus that product, formed in ``spare``: the table x the first
    # operand, as in _lead.
    for e, entry in enumerate(a):
        if first:
            np.multiply(x, entry, out=out[e])
        else:
            np.add(out[e], np.multiply(x, entry, out=spare), out=out[e])


def _lead(t: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    # a (x) t as the letter-major layout holds it, each entry the product
    # t * a: numpy's SIMD complex multiply is not commutative bit for bit,
    # so the table stays the first operand, as in _kron(t, a).  Each entry
    # of a multiplies a whole row of t, written contiguously into ``out``.
    n, m = t.shape[-1], a.shape[-1]
    np.multiply(t[..., None, None, :, :], a[..., :, :, None, None],
                out=out.reshape(*out.shape[:-2], m, m, n, n))
    return out


def _digit_reversed(total: np.ndarray, dim: int, p: int, spare: np.ndarray) -> np.ndarray:
    # The standard layout of a (count, dim^p, dim^p) letter-major table, in
    # its own memory: its 2p base-dim digits alternate row and column from
    # the newest letter, and the standard layout takes the row digits from
    # the oldest letter, then the column digits, an exact copy.  The
    # entries are copied aside into the flat buffer ``spare`` and read
    # back, so the difference stays where the build wrote it and the copy
    # takes no memory the workspace does not hold.  The order is the
    # identity at p 1, and at dim 1, where p may exceed numpy's axis limit.
    if p == 1 or dim == 1:
        return total
    digits = [total.shape[0], *[dim] * (2 * p)]
    order = [0, *range(2 * p - 1, 0, -2), *range(2 * p, 0, -2)]
    copy = spare[:total.size].reshape(digits)
    np.copyto(copy, total.reshape(digits))
    total.reshape(digits)[...] = copy.transpose(order)
    return total


def _weighted_sum(table: np.ndarray, groups, into: np.ndarray | None = None,
                  spare: np.ndarray | None = None) -> np.ndarray:
    # Each weight's rows summed left to right, then weighted, in order: the
    # total in ``into``, each later weight's part in ``spare`` (rows of the
    # table's shape, new ones when not given), or a row of the table itself
    # when a weight-1 part of one row needs no sum.
    if into is None:
        into, spare = np.empty_like(table[0]), np.empty_like(table[0])
    total = None
    for weight, rows in groups:
        buffer = into if total is None else spare
        part = table[rows[0]]
        if len(rows) > 1:
            part = np.add(part, table[rows[1]], out=buffer)
            for r in rows[2:]:
                np.add(part, table[r], out=part)
        if weight != 1:
            part = np.multiply(weight, part, out=buffer)
        total = part if total is None else np.add(total, part, out=into)
    return total


def _build(name: str, spec: FamilySpec, mats, p: int, max_dim: int, k, ell, m,
           workspace: Workspace | None = None) -> HermitianStack:
    # The word sum of the table entry ``spec`` over the given inputs, in
    # ``workspace`` or in one of its own.
    mats = list(mats)
    if not mats:
        raise InputError("need at least one matrix")
    hs = _same_shape(mats)
    n, count, dim = len(hs), len(hs[0]), hs[0].dim
    check_tensor_budget(dim, p, max_dim)
    plan = _plan(name, spec, n, p, k, ell, m)
    buffers = (Workspace() if workspace is None else workspace)._buffers(
        [count * size for size in plan.buffers(dim)])
    inputs = _canonical_arrays(hs, buffers[2], buffers[5], keep_first_fixed=spec.supermod)
    # An overflowed input or product gives inf or NaN entries, which the
    # certificate's finiteness check refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        total = _word_sum(inputs, plan, p, buffers)
    return _single_or_all(mats[0], HermitianStack._wrap_exact(total))


def symmetric_tensor_sum(
    mats, k: int, p: int, max_dim: int = DEFAULT_MAX_TENSOR_DIM
) -> HermitianStack:
    """Sum of p-fold Kronecker powers of all size-k subset sums, for
    ``1 <= k <= n``: the word sum with ``c(U) = C(n - |U|, k - |U|)``,
    built as :func:`build_difference` builds a family."""
    return _build("symmetric_tensor_sum", _TENSOR_SUM, mats, p, max_dim, k, None, None)


def build_difference(
    family: str,
    mats,
    p: int,
    max_dim: int = DEFAULT_MAX_TENSOR_DIM,
    *,
    k: int | None = None,
    ell: int | None = None,
    m: int | None = None,
    workspace: Workspace | None = None,
) -> HermitianStack:
    """LHS - RHS of the entry ``FAMILIES[family]`` at Kronecker power ``p``.

    n is the number of matrices given, and ``k``, ``ell``, ``m`` are the
    levels the entry needs.  The difference is built as the paper proves
    it, as ``sum_w c(supp w) A_w`` over the words w in [n]^p with the
    coefficients of :func:`support_coefficients`: a sum of Kronecker
    products of the inputs, each weighted by an integer over one common
    denominator that is divided out once at the end.  Every coefficient of
    the :data:`FAMILIES` entries is >= 0, so nothing cancels, and below the
    smallest support with ``c != 0`` no word survives and the difference is
    exactly zero.  Sets whose reachable supports all share one coefficient
    share one partial sum, extended by ``(x) sum_i A_i``, so ``superadd``
    keeps n + 1 of them.  Refused with :class:`BudgetError` beyond
    ``max_dim`` or a level of more than ``MAX_LEVEL_SUBSETS`` subsets.
    Built in ``workspace`` when given (see :class:`Workspace`), where the
    next build given it overwrites the difference.
    """
    return _build(family, operator_family(family), mats, p, max_dim, k, ell, m, workspace)
