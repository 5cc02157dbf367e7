"""Signed permutations, inversion sequences, their statistics, and brute-force
generating polynomials.

Signed permutations are written in one-line notation (sigma_1, ..., sigma_n)
with |sigma_1|, ..., |sigma_n| a permutation of 1..n.  Inversion sequences e
satisfy 0 <= e_i <= 2i - 1.  Both take integer entries only; a float or a
string is a DomainError, never truncated.  All rational comparisons between
statistics are done by integer cross-multiplication; there is no floating
point anywhere.

The bijection psi reads t_i, the number of earlier entries of larger
absolute value, as the popcount of a bitmask of the absolute values already
placed, shifted past |sigma_i|; each entry costs O(1), and each statistic is
one pass over the entries.

Enumeration streams are exhaustive and duplicate-free, ordered
lexicographically by (sign pattern, underlying permutation), and yield one
object at a time.  The brute-force polynomials do not use them: one
depth-first walk over the signed prefixes of rank n fills a joint count
table of a few thousand cells (1188 at rank 6), cached per rank, and every
family is a marginal of that table.  A cap (default 8, overridable per call
or via the WEYLPOLY_CAP environment variable) guards against accidental huge
enumerations; it is checked before any walk or cache lookup, and when a
stream is made rather than at its first object.
"""

from __future__ import annotations

import itertools
import operator
import os
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import DomainError, EnumerationCapError, UsageError
from .exactpoly import QPoly, QXPoly, XPoly, _integer, _rank
from .record import Record

DEFAULT_CAP = 8
CAP_ENV_VAR = "WEYLPOLY_CAP"


def resolve_cap(cap: int | None = None) -> int:
    if cap is not None:
        return _integer(cap, "the enumeration cap")
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{CAP_ENV_VAR}={env!r} is not an integer") from None
    return DEFAULT_CAP


def _check_cap(n: int, cap: int | None) -> None:
    n = _rank(n, 1, "rank")
    limit = resolve_cap(cap)
    if n > limit:
        raise EnumerationCapError(
            f"rank {n} exceeds the enumeration cap {limit}; pass cap= or set {CAP_ENV_VAR}"
        )


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


class SignedPerm(Record):
    """A signed permutation in one-line notation."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        e = _index_entries(entries, "signed permutation")
        n = len(e)
        seen = 0
        for v in e:
            a = abs(v)
            if a > n:
                break
            seen |= 1 << a
        # n entries set n distinct bits 1..n exactly when they are a signed permutation.
        if seen != (2 << n) - 2:
            raise DomainError(f"not a signed permutation: {e}")
        self._setters[0](self, e)

    def _values(self) -> tuple:
        return (self.entries,)

    @property
    def n(self) -> int:
        return len(self.entries)


class InvSeq(Record):
    """An inversion sequence with bounds e_i <= 2i - 1."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        e = _index_entries(entries, "inversion sequence")
        for i, v in enumerate(e, start=1):
            if not 0 <= v <= 2 * i - 1:
                raise DomainError(f"entry {v} at position {i} violates 0 <= e_i <= 2i-1")
        self._setters[0](self, e)

    def _values(self) -> tuple:
        return (self.entries,)

    @property
    def n(self) -> int:
        return len(self.entries)


def _index_entries(entries, what: str) -> tuple[int, ...]:
    """The entries as plain ints; floats, strings and other non-integers are rejected."""
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise DomainError(f"not a {what}: {entries!r}; entries must be integers") from None


class StatRecord(Record):
    __slots__ = ("neg", "neg_D", "des_B", "des_D", "affine_des_B", "affine_des_D", "parity_even")

    def __init__(self, neg: int, neg_D: int, des_B: int, des_D: int, affine_des_B: int, affine_des_D: int,
                 parity_even: bool):
        set_neg, set_neg_D, set_des_B, set_des_D, set_affine_des_B, set_affine_des_D, set_parity = self._setters
        set_neg(self, neg)
        set_neg_D(self, neg_D)
        set_des_B(self, des_B)
        set_des_D(self, des_D)
        set_affine_des_B(self, affine_des_B)
        set_affine_des_D(self, affine_des_D)
        set_parity(self, parity_even)


class InvStatRecord(Record):
    __slots__ = ("exc", "asc_D", "affine_asc_D")

    def __init__(self, exc: int, asc_D: int, affine_asc_D: int):
        set_exc, set_asc_D, set_affine_asc_D = self._setters
        set_exc(self, exc)
        set_asc_D(self, asc_D)
        set_affine_asc_D(self, affine_asc_D)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def signed_perms(n: int, cap: int | None = None) -> Iterator[SignedPerm]:
    """All 2^n * n! signed permutations of rank n."""
    _check_cap(n, cap)
    return (
        SignedPerm._trusted(tuple(s * v for s, v in zip(signs, perm)))
        for signs in itertools.product((1, -1), repeat=n)
        for perm in itertools.permutations(range(1, n + 1))
    )


def even_signed_perms(n: int, cap: int | None = None) -> Iterator[SignedPerm]:
    """Signed permutations with an even number of negative entries."""
    _check_cap(n, cap)
    return (
        SignedPerm._trusted(tuple(s * v for s, v in zip(signs, perm)))
        for signs in itertools.product((1, -1), repeat=n)
        if not signs.count(-1) % 2
        for perm in itertools.permutations(range(1, n + 1))
    )


def inversion_sequences(n: int, cap: int | None = None) -> Iterator[InvSeq]:
    """All 2^n * n! inversion sequences of length n."""
    _check_cap(n, cap)
    return (InvSeq._trusted(e) for e in itertools.product(*(range(2 * i) for i in range(1, n + 1))))


_ENUMERATORS = {
    "signed_perms": signed_perms,
    "even_signed_perms": even_signed_perms,
    "inversion_sequences": inversion_sequences,
}


def enumerate_objects(kind: str, n: int, cap: int | None = None) -> Iterator:
    """Dispatch by kind id: signed_perms, even_signed_perms, inversion_sequences."""
    try:
        gen = _ENUMERATORS[kind]
    except KeyError:
        raise UsageError(f"unknown enumeration kind {kind!r}") from None
    return gen(n, cap=cap)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _entries(sigma) -> tuple[int, ...]:
    if isinstance(sigma, SignedPerm):
        return sigma.entries
    return SignedPerm(tuple(sigma)).entries


def stats(sigma) -> StatRecord:
    """Descent and sign statistics of a signed permutation (rank >= 2)."""
    s = _entries(sigma)
    n = len(s)
    if n < 2:
        raise DomainError("statistics involving sigma_1 + sigma_2 need rank >= 2")
    # One pass with sigma_0 = 0 counts the type B descents, sigma_1 < 0 included.
    neg = des_b = prev = 0
    for v in s:
        if v < 0:
            neg += 1
        if prev > v:
            des_b += 1
        prev = v
    first_b = s[0] < 0
    des_d = des_b - first_b + (s[0] + s[1] < 0)
    affine = s[n - 2] + s[n - 1] > 0
    return StatRecord(neg, neg - first_b, des_b, des_d, des_b + affine, des_d + affine, neg % 2 == 0)


def _inv_entries(e) -> tuple[int, ...]:
    if isinstance(e, InvSeq):
        return e.entries
    return InvSeq(tuple(e)).entries


def inv_stats(e) -> InvStatRecord:
    """Ascent-type statistics of an inversion sequence (length >= 2).

    The 0-ascent fires when e_1 + e_2/2 >= 3/2 and the affine ascent when
    e_{n-1}/(n-1) + e_n/n < (2n-1)/n, both evaluated by cross-multiplication.
    """
    v = _inv_entries(e)
    n = len(v)
    if n < 2:
        raise DomainError("ascent statistics need length >= 2")
    # One pass; an ascent at i >= 2 is e_{i-1}/(i-1) < e_i/i, and at i = 1 the
    # cross-multiplied test 1 * 0 < 0 * e_1 never fires.
    exc = asc = prev = 0
    for i, x in enumerate(v, start=1):
        if x >= i:
            exc += 1
        if i * prev < (i - 1) * x:
            asc += 1
        prev = x
    asc += 2 * v[0] + v[1] >= 3
    affine = n * v[n - 2] + (n - 1) * v[n - 1] < (2 * n - 1) * (n - 1)
    return InvStatRecord(exc, asc, asc + affine)


# ---------------------------------------------------------------------------
# The bijection between signed permutations and inversion sequences
# ---------------------------------------------------------------------------


def psi(sigma) -> InvSeq:
    """Map a signed permutation to its inversion sequence.

    With t_i the number of earlier entries of larger absolute value, the
    image is e_i = t_i for positive sigma_i and e_i = 2i - t_i - 1 for
    negative sigma_i.  t_i is the popcount of the absolute values already
    placed, held as a bitmask and shifted past |sigma_i|.
    """
    out = []
    seen = 0
    top = 1  # 2i - 1 at position i
    for v in _entries(sigma):
        if v > 0:
            out.append((seen >> v).bit_count())
            seen |= 1 << v
        else:
            out.append(top - (seen >> -v).bit_count())
            seen |= 1 << -v
        top += 2
    return InvSeq._trusted(tuple(out))


def psi_inverse(e) -> SignedPerm:
    """Reconstruct the signed permutation from the last position back.

    The absolute values not yet placed, largest first, are those of
    positions 1..i, so |sigma_i| is the one with t_i of them above it.
    """
    v = _inv_entries(e)
    available = list(range(len(v), 0, -1))
    out = [0] * len(v)
    for i in range(len(v) - 1, -1, -1):
        x = v[i]
        out[i] = available.pop(x) if x <= i else -available.pop(2 * i + 1 - x)
    return SignedPerm._trusted(tuple(out))


# ---------------------------------------------------------------------------
# Brute-force generating polynomials
# ---------------------------------------------------------------------------


def _descents_plain(perm: Sequence[int]) -> int:
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def _qx_from_counts(counts: dict[tuple[int, int], int]) -> QXPoly:
    if not counts:
        return QXPoly()
    max_x = max(k for k, _ in counts)
    cols: list[list[int]] = [[] for _ in range(max_x + 1)]
    for (xd, qd), c in counts.items():
        col = cols[xd]
        if len(col) <= qd:
            col.extend([0] * (qd + 1 - len(col)))
        col[qd] += c
    return QXPoly(tuple(QPoly(tuple(col)) for col in cols))


def _x_from_counts(counts: dict[int, int]) -> XPoly:
    if not counts:
        return XPoly()
    out = [0] * (max(counts) + 1)
    for d, c in counts.items():
        out[d] += c
    return XPoly(tuple(out))


# Held per rank; eight entries cover every rank up to the default cap.
@lru_cache(maxsize=8)
def _joint_table(n: int) -> Mapping[tuple[int, ...], int]:
    """Count the signed permutations of rank n by the key
    (e_n, inner, [sigma_1 < 0], [sigma_1 + sigma_2 < 0], neg,
    [sigma_{n-1} + sigma_n > 0]), where e_n is the last entry of psi(sigma)
    and inner the number of i < n with sigma_i > sigma_{i+1}.

    One depth-first walk over signed prefixes carries inner and neg down the
    tree.  At depth n-1 one absolute value a is left and both of its signs
    are counted in place: every larger absolute value comes earlier, so
    e_n = n - a for sigma_n = a and e_n = n + a - 1 for sigma_n = -a.
    """
    if n < 2:
        raise DomainError("statistics involving sigma_1 + sigma_2 need rank >= 2")
    table: dict[tuple[int, ...], int] = {}

    def close(prev, a, inner, neg, b1, d1_plus, d1_minus):
        # As |prev| != a: prev + a > 0 iff prev > -a, and prev - a > 0 iff prev > a.
        above, below = prev > a, prev > -a
        for key in ((n - a, inner + above, b1, d1_plus, neg, below),
                    (n + a - 1, inner + below, b1, d1_minus, neg + 1, above)):
            table[key] = table.get(key, 0) + 1

    def extend(prev, rest, inner, neg, b1, d1):
        if len(rest) == 1:
            close(prev, rest[0], inner, neg, b1, d1, d1)
            return
        for k, a in enumerate(rest):
            others = rest[:k] + rest[k + 1:]
            extend(a, others, inner + (prev > a), neg, b1, d1)
            extend(-a, others, inner + (prev > -a), neg + 1, b1, d1)

    values = tuple(range(1, n + 1))
    for k, a in enumerate(values):
        rest = values[:k] + values[k + 1:]
        for first in (a, -a):
            b1 = int(first < 0)
            if n == 2:
                # sigma_2 is the last entry, so [sigma_1 + sigma_2 < 0] follows its sign.
                c = rest[0]
                close(first, c, 0, b1, b1, int(first + c < 0), int(first - c < 0))
                continue
            for j, c in enumerate(rest):
                others = rest[:j] + rest[j + 1:]
                for second in (c, -c):
                    extend(second, others, int(first > second), b1 + (second < 0), b1,
                           int(first + second < 0))
    return MappingProxyType(table)  # read-only: every caller shares the cached table


# How each family reads the joint table: the descent at position 0 (type B:
# sigma_1 < 0, type D: sigma_1 + sigma_2 < 0), whether the affine descent at
# position n counts, the q statistic (neg, or neg_D = neg - [sigma_1 < 0]),
# and whether only even signed permutations count.
_MARGINALS = {
    "B": ("B", False, None, False),
    "Bq": ("B", False, "neg", False),
    "tildeB": ("B", True, None, False),
    "Tq": ("D", False, "neg", False),
    "Dq": ("D", False, "neg_D", True),
    "tildeD": ("D", True, None, True),
    "tildeT_via_B": ("D", True, None, False),
    "refined_Tq": ("D", False, "neg", False),
    "refined_tildeT": ("D", True, None, False),
}


def _marginal(family: str, n: int, index: int | None):
    """Sum the joint table of rank n into one family; ``index`` keeps e_n = index."""
    zero_descent, affine, q_stat, even_only = _MARGINALS[family]
    counts: dict = {}
    for (e_n, inner, b1, d1, neg, aff), c in _joint_table(n).items():
        if (index is not None and e_n != index) or (even_only and neg % 2):
            continue
        des = inner + (b1 if zero_descent == "B" else d1) + (aff if affine else 0)
        key = des if q_stat is None else (des, neg - b1 if q_stat == "neg_D" else neg)
        counts[key] = counts.get(key, 0) + c
    return _x_from_counts(counts) if q_stat is None else _qx_from_counts(counts)


def brute_polynomial(family: str, n: int, index: int | None = None, cap: int | None = None):
    """Exact generating polynomial by exhaustive summation.

    Families: A (descents over the symmetric group of rank n+1), B, Bq,
    tildeB (signed permutations), Dq, tildeD (even signed permutations),
    Tq, tildeT_via_B (signed permutations with type D statistics), and the
    refined slices refined_Tq / refined_tildeT, which need ``index``.
    """
    if family == "A":
        n = _rank(n, 0, "family A rank")
        _check_cap(n + 1, cap)
        counts: dict[int, int] = {}
        for perm in itertools.permutations(range(1, n + 2)):
            d = _descents_plain(perm)
            counts[d] = counts.get(d, 0) + 1
        return _x_from_counts(counts)

    if family in ("refined_Tq", "refined_tildeT"):
        if index is None:
            raise UsageError(f"family {family} needs an index")
        _check_cap(n, cap)
        index = _integer(index, "index")
        if not 0 <= index <= 2 * n - 1:
            raise UsageError("index out of range 0..2n-1")
        return _marginal(family, n, index)

    if family not in _MARGINALS:
        raise UsageError(f"unknown brute-force family {family!r}")
    _check_cap(n, cap)
    if n < 2:
        raise UsageError("ground-set statistics need n >= 2")
    return _marginal(family, n, None)
