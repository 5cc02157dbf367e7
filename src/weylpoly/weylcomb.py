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
object at a time.  The brute-force polynomials do not use them: an exact
count over the signed permutations of rank n, cached per rank, merges the
signed prefixes that continue the same way into classes (at most 8064 at
rank 8 instead of 2^n n! prefixes) and leaves a few packed sums, whose
digit k + (n+2) j counts k inner descents and j negative entries.  A family
masks, shifts and adds those sums, then reads their digits once; type A of
rank n is the neg = 0 slice at rank n + 1.  A cap (default 8, overridable
per call by ``cap=`` and by nothing else) guards against accidental huge
enumerations; it is checked before any count or cache lookup, and when a
stream is made rather than at its first object.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from functools import lru_cache
from math import factorial

from .errors import DomainError, EnumerationCapError, UsageError
from .exactpoly import X_ONE, QPoly, QXPoly, XPoly, _digit_bytes, _digits, _integer, _rank
from .record import Record

DEFAULT_CAP = 8


def resolve_cap(cap: int | None = None) -> int:
    return DEFAULT_CAP if cap is None else _integer(cap, "the enumeration cap")


def _check_cap(n: int, cap: int | None) -> None:
    n = _rank(n, 1, "rank")
    limit = resolve_cap(cap)
    if n > limit:
        raise EnumerationCapError(f"rank {n} exceeds the enumeration cap {limit}; pass cap=")


# ---------------------------------------------------------------------------
# Objects
# ---------------------------------------------------------------------------


class SignedPerm(Record):
    """A signed permutation in one-line notation."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        e = _index_entries(entries, "a signed permutation")
        if sorted(map(abs, e)) != list(range(1, len(e) + 1)):
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
        e = _index_entries(entries, "an inversion sequence")
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
        raise DomainError(f"not {what}: {entries!r}; entries must be integers") from None


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
        SignedPerm._trusted(tuple(map(operator.mul, signs, perm)))
        for signs in itertools.product((1, -1), repeat=n)
        for perm in itertools.permutations(range(1, n + 1))
    )


def even_signed_perms(n: int, cap: int | None = None) -> Iterator[SignedPerm]:
    """Signed permutations with an even number of negative entries."""
    _check_cap(n, cap)
    return (
        SignedPerm._trusted(tuple(map(operator.mul, signs, perm)))
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
    gen = _ENUMERATORS.get(kind) if isinstance(kind, str) else None
    if gen is None:
        raise UsageError(f"unknown enumeration kind {kind!r}")
    return gen(n, cap=cap)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def _entries(sigma) -> tuple[int, ...]:
    if isinstance(sigma, SignedPerm):
        return sigma.entries
    return SignedPerm(sigma).entries


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
    return InvSeq(e).entries


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


# Held per rank; eight entries cover every rank up to the default cap.
@lru_cache(maxsize=8)
def _joint_table(n: int) -> tuple[int, tuple[tuple[tuple[int, int, bool, int], ...], ...]]:
    """Count the signed permutations of rank n as (nb, sums): sums[e_n] holds
    one (b1, d1, aff, v) per [sigma_1 < 0], [sigma_1 + sigma_2 < 0] and
    [sigma_{n-1} + sigma_n > 0] that occurs, where e_n is the last entry of
    psi(sigma).  The base-2^W digit k + (n+2) j of v, W = 8 nb, counts those
    with inner = k descents sigma_i > sigma_{i+1} (i < n) and neg = j.  The
    stride n + 2 leaves room above inner <= n - 1, so shifting v up by the
    zero and affine descents never carries a count into the next stride.
    The stride neg = 0 is the permutations of 1..n, type A of rank n - 1.

    The signed prefixes are counted by class, not one by one.  A class is
    (used, last, b1, d1): the absolute values placed, the last entry,
    [sigma_1 < 0] and [sigma_1 + sigma_2 < 0]; its prefixes all continue the
    same way.  It holds one packed int like v, and 2^(W-1) exceeds the group
    order 2^n n!, so no digit overflows.  Appending s shifts the int up one
    digit when last > s, and n + 2 digits more when s < 0.  At depth n-1 one
    absolute value a is left, and every larger one comes earlier, so
    e_n = n - a for sigma_n = a and e_n = n + a - 1 for sigma_n = -a.
    """
    if n < 2:
        raise DomainError("statistics involving sigma_1 + sigma_2 need rank >= 2")
    nb = _digit_bytes(factorial(n) << n)
    w = nb << 3
    neg_shift = w * (n + 2)  # one more negative entry
    values = range(1, n + 1)
    # used -> {(last, b1, d1): packed counts}; d1 is None until sigma_2 is placed
    layer = {1 << a: {(a, 0, None): 1, (-a, 1, None): 1 << neg_shift} for a in values}
    for _ in range(n - 2):
        grown: dict = {}
        for used, classes in layer.items():
            for a in values:
                if used >> a & 1:
                    continue
                bucket = grown.setdefault(used | 1 << a, {})
                get = bucket.get
                for (last, b1, d1), v in classes.items():
                    key = (a, b1, int(last + a < 0) if d1 is None else d1)
                    bucket[key] = get(key, 0) + (v << w if last > a else v)
                    key = (-a, b1, int(last - a < 0) if d1 is None else d1)
                    bucket[key] = get(key, 0) + ((v << w if last > -a else v) << neg_shift)
        layer = grown  # the shallower classes are dropped here
    sums: list[dict] = [{} for _ in range(2 * n)]
    full = (2 << n) - 2
    for used, classes in layer.items():
        a = (full ^ used).bit_length() - 1
        for (last, b1, d1), v in classes.items():
            for e_n, s in ((n - a, a), (n + a - 1, -a)):
                # |last| != a, so last + s is never 0; its sign gives d1 at rank 2 and the affine descent
                key = (b1, int(last + s < 0) if d1 is None else d1, last + s > 0)
                got = sums[e_n]
                got[key] = got.get(key, 0) + ((v << w if last > s else v) << (neg_shift if s < 0 else 0))
    return nb, tuple(tuple(key + (v,) for key, v in got.items()) for got in sums)


# How each family reads the joint table: the descent at position 0 (type B:
# sigma_1 < 0, type D: sigma_1 + sigma_2 < 0), whether the affine descent at
# position n counts, the q statistic (neg, or neg_D = neg - [sigma_1 < 0]),
# and which neg strides count: every one, the even ones (even signed
# permutations), or neg = 0 alone (the permutations of 1..n, type A of rank n - 1).
_MARGINALS = {
    "A": ("B", False, None, "zero"),
    "B": ("B", False, None, "all"),
    "Bq": ("B", False, "neg", "all"),
    "tildeB": ("B", True, None, "all"),
    "Tq": ("D", False, "neg", "all"),
    "Dq": ("D", False, "neg_D", "even"),
    "tildeD": ("D", True, None, "even"),
    "tildeT_via_B": ("D", True, None, "all"),
    "refined_Tq": ("D", False, "neg", "all"),
    "refined_tildeT": ("D", True, None, "all"),
}


def _marginal(family: str, n: int, index: int | None):
    """Sum the joint table of rank n into one family; ``index`` keeps e_n = index.

    Each packed sum is masked to the neg strides that count, shifted down a
    stride for neg_D when sigma_1 < 0 (that sum has no neg = 0 stride) and
    up by its zero and affine descents; one read gives the digits of the total.
    """
    zero_descent, affine, q_stat, negs = _MARGINALS[family]
    nb, sums = _joint_table(n)
    w = nb << 3
    per = n + 2  # digits per neg stride
    stride = w * per
    mask = sum(((1 << stride) - 1) << j * stride for j in range(0, n + 1, 2 if negs == "even" else n + 1))
    total = 0
    for b1, d1, aff, v in itertools.chain.from_iterable(sums if index is None else (sums[index],)):
        if negs != "all":
            v &= mask  # on neg, before the neg_D shift below moves the strides
        if b1 and q_stat == "neg_D":
            v >>= stride
        total += v << w * ((b1 if zero_descent == "B" else d1) + (affine and aff))
    digits = _digits(total, nb, per * (n + 1))
    if q_stat is None:
        return XPoly(tuple(sum(digits[k::per]) for k in range(per)))
    return QXPoly(tuple(QPoly(tuple(digits[k::per])) for k in range(per)))


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
        return _marginal("A", n + 1, None) if n else X_ONE

    if family in ("refined_Tq", "refined_tildeT"):
        if index is None:
            raise UsageError(f"family {family} needs an index")
        _check_cap(n, cap)
        index = _integer(index, "index")
        if not 0 <= index <= 2 * n - 1:
            raise UsageError("index out of range 0..2n-1")
        return _marginal(family, n, index)

    if not isinstance(family, str) or family not in _MARGINALS:
        raise UsageError(f"unknown brute-force family {family!r}")
    _check_cap(n, cap)
    if n < 2:
        raise UsageError("ground-set statistics need n >= 2")
    return _marginal(family, n, None)
