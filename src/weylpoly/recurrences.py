"""Recurrence-defined polynomial families, assembled Eulerian-like
polynomials, named identities, and interlacing-preserving operators.

Indexing is 0-based throughout.  The refined families carry 2n entries at
rank n, indexed by the last entry of the underlying inversion sequence.
Only the transform thresholds are 1-based (values in 1..m+1), matching the
classical statement of the threshold transform; the shift is documented at
that API boundary.

Every recurrence family is built on one packed-integer carrier (Kronecker
substitution).  An entry is one Python int whose field i*Q + j, W bits
wide, holds the coefficient of x^i q^j: Q = n + 1 fields per power of x for
the two-variable family (its q-degree is at most n), Q = 1 for the others.
Multiplying by x or by q is a left shift by Q*W or W bits, so a rank
step is a few big-integer shifts and adds per entry.  The width is proven, not guessed: every
coefficient counts elements of B_n (the coupled family counts them twice),
so every coefficient of a rank-n build, and every partial sum formed on the
way, is a nonnegative integer at most 2|B_n| = 2^(n+1) n!.  W is the bit
length of that bound rounded up to whole bytes, so no field ever carries
into the next.

Each family is cached once, packed: a bounded store per family keeps the
most recently used ranks.  Every public call unpacks its answer to QXPoly
or XPoly afresh, and only the entries it returns.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from fractions import Fraction
from functools import _CacheInfo  # the named tuple lru_cache's cache_info returns
from itertools import combinations
from math import factorial
from typing import Callable, Optional, Sequence

from .errors import PackingError, PreconditionError, UsageError
from .exactpoly import ONE_PLUS_Q, QPoly, QXPoly, XPoly, _clear_denominators, _integer, _rank, _rational
from .exactpoly import exact_divide
from .realroots import interlaces
from .record import Record
from .report import ReportEntry, poly_equality, timed_entry
from .weylcomb import brute_polynomial


class RefinedFamily(Record):
    """A rank-n refined family: exactly 2n polynomials indexed 0..2n-1."""

    n: int
    polys: tuple

    def __post_init__(self):
        if len(self.polys) != 2 * self.n:
            raise UsageError("a refined family at rank n has exactly 2n entries")


def ceil_index(n: int, i: int) -> int:
    """Split point ceil((n-1) * i / n) of the rank-n recurrence.

    Equals i - 1 exactly when i >= n, and i otherwise, for 0 <= i <= 2n-1.
    """
    n, i = _rank(n, 2, "ceil_index rank"), _integer(i, "index")
    if not 0 <= i <= 2 * n - 1:
        raise UsageError(f"index {i} out of range 0..{2 * n - 1}")
    return -((-(n - 1) * i) // n)


def _rank_thresholds(n: int) -> TransformSpec:
    """The 1-based thresholds ceil_index(n, i) + 1 of the rank-n recurrence."""
    return TransformSpec(tuple(ceil_index(n, i) + 1 for i in range(2 * n)))


# ---------------------------------------------------------------------------
# The packed-integer carrier
# ---------------------------------------------------------------------------


class _Layout(Record):
    """Q fields per power of x, each W bits wide (W a multiple of 8)."""

    q_fields: int
    width: int


def _layout(n: int, q_fields: int) -> _Layout:
    """The layout of a rank-n build: W holds 2|B_n| = 2^(n+1) n!."""
    bits = (factorial(n) << (n + 1)).bit_length()
    return _Layout(q_fields, -(-bits // 8) * 8)


class _Packed:
    """One polynomial in x and q with nonnegative coefficients, packed into
    one int; it has the operations ``interlacing_transform`` uses."""

    __slots__ = ("value", "layout")

    def __init__(self, value: int, layout: _Layout):
        self.value = value
        self.layout = layout

    @classmethod
    def pack(cls, rows: Sequence[Sequence[int]], layout: _Layout) -> "_Packed":
        """Pack rows[i][j], the coefficient of x^i q^j.

        Raises PackingError for a negative coefficient, one of W bits or
        more, or a row with more than Q coefficients.
        """
        size = layout.width // 8
        pad = bytes(size)
        parts = []
        for row in rows:
            if len(row) > layout.q_fields:
                raise PackingError(f"{len(row)} powers of q do not fit {layout.q_fields} fields")
            try:
                parts.extend(c.to_bytes(size, "little") for c in row)
            except OverflowError:
                raise PackingError(f"a coefficient is negative or wider than {layout.width} bits") from None
            parts.extend([pad] * (layout.q_fields - len(row)))
        return cls(int.from_bytes(b"".join(parts), "little"), layout)

    def _bytes(self) -> bytes:
        """Little-endian bytes up to the last nonzero power of x."""
        row = self.layout.width // 8 * self.layout.q_fields
        return self.value.to_bytes(-(-self.value.bit_length() // (8 * row)) * row, "little")

    def fields(self) -> list[int]:
        """Every field up to the last nonzero power of x, lowest first."""
        size = self.layout.width // 8
        data = self._bytes()
        from_bytes = int.from_bytes
        return [from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]

    def rows(self) -> list[list[int]]:
        f, q = self.fields(), self.layout.q_fields
        return [f[k : k + q] for k in range(0, len(f), q)]

    def repack(self, layout: _Layout) -> "_Packed":
        """The same polynomial in a layout at least as large in Q and W.

        Only zero bytes are inserted, a row or a field at a time, so nothing
        needs checking; a smaller layout raises PackingError.
        """
        old = self.layout
        if layout == old:
            return self
        if layout.q_fields < old.q_fields or layout.width < old.width:
            raise PackingError("a packed value only moves to a larger layout")
        size, new_size = old.width // 8, layout.width // 8
        data = self._bytes()
        if layout.q_fields > old.q_fields:
            row = size * old.q_fields
            pad = bytes(size * (layout.q_fields - old.q_fields))
            data = b"".join([data[k : k + row] + pad for k in range(0, len(data), row)])
        if new_size > size:
            wide = bytearray(len(data) // size * new_size)
            for b in range(size):
                wide[b::new_size] = data[b::size]
            data = wide
        return _Packed(int.from_bytes(data, "little"), layout)

    def to_qx(self) -> QXPoly:
        return QXPoly._trusted(tuple(QPoly._trusted(_trim(r)) for r in self.rows()))

    def to_x(self) -> XPoly:
        """The value as a polynomial in x; needs Q = 1."""
        return XPoly._trusted(tuple(map(Fraction, self.fields())))

    def __add__(self, other: "_Packed") -> "_Packed":
        return _Packed(self.value + other.value, self.layout)

    def __sub__(self, other: "_Packed") -> "_Packed":
        # Exact field by field only when other <= self in every field; the
        # transform subtracts a prefix sum of nonnegative entries from the
        # total, so no field borrows.
        return _Packed(self.value - other.value, self.layout)

    def __mul__(self, k: int) -> "_Packed":
        return _Packed(self.value * k, self.layout)

    def shift_up(self, k: int = 1) -> "_Packed":
        """Multiply by x**k."""
        return _Packed(self.value << (k * self.layout.q_fields * self.layout.width), self.layout)

    def shift_q(self) -> "_Packed":
        """Multiply by q."""
        return _Packed(self.value << self.layout.width, self.layout)


def _trim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


class _RankStore:
    """The packed ranks of one recurrence family, least recently used out.

    A rank not stored is built from the highest stored rank below it (or
    the seed), repacked into the layout of the rank asked for.
    """

    def __init__(self, seed_rank: int, seed: Callable, step: Callable, layout: Callable, maxsize: int):
        self._seed_rank = seed_rank
        self._seed = seed
        self._step = step
        self._layout = layout
        self._ranks: OrderedDict[int, tuple] = OrderedDict()
        self._hits = self._misses = 0
        self.maxsize = maxsize

    def rank(self, n: int) -> tuple:
        fam = self._ranks.get(n)
        if fam is not None:
            self._hits += 1
            self._ranks.move_to_end(n)
            return fam
        self._misses += 1
        k = max((r for r in self._ranks if r < n), default=None)
        if k is None:
            k, fam = self._seed_rank, self._seed()
        else:
            fam = self._ranks[k]
        layout = self._layout(n)
        fam = tuple(p.repack(layout) for p in fam)
        while k < n:
            k += 1
            fam = self._step(k, fam)
        self._ranks[n] = fam
        if len(self._ranks) > self.maxsize:
            self._ranks.popitem(last=False)
        return fam

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._ranks))

    def cache_clear(self) -> None:
        self._ranks.clear()
        self._hits = self._misses = 0


# Bound of each packed rank store.  A two-variable rank n holds about
# 2n * n^2 coefficients (4 MB packed at rank 40, 63 MB at rank 80), so only
# the few most recently used ranks are kept; any other rank resumes from the
# highest stored rank below it.
_RANK_STORE_SIZE = 4


def _step_Tq(n: int, prev: tuple) -> tuple:
    out = interlacing_transform(prev, _rank_thresholds(n))
    return out[:n] + tuple(p.shift_q() for p in out[n:])


def _step_x(n: int, prev: tuple) -> tuple:
    return interlacing_transform(prev, _rank_thresholds(n))


def _seed(rows: tuple, layout: _Layout) -> tuple:
    return tuple(_Packed.pack(r, layout) for r in rows)


# Rank 2: (1+q, (1+q)x, (q+q^2)x, (q+q^2)x^2) as rows of q-coefficients per
# power of x, and its value at q = 1.
_TQ_SEED = (((1, 1),), ((), (1, 1)), ((), (0, 1, 1)), ((), (), (0, 1, 1)))
_T1_SEED = (((2,),), ((), (2,)), ((), (2,)), ((), (), (2,)))

_TQ_STORE = _RankStore(
    2,
    lambda: _seed(_TQ_SEED, _layout(2, 3)),
    _step_Tq,
    lambda n: _layout(n, n + 1),
    _RANK_STORE_SIZE,
)
_T1_STORE = _RankStore(
    2, lambda: _seed(_T1_SEED, _layout(2, 1)), _step_x, lambda n: _layout(n, 1), _RANK_STORE_SIZE
)


def refined_Tq(n: int) -> RefinedFamily:
    """The q-refined family at rank n, built by the threshold recurrence.

    Rank 2 is seeded with (1+q, (1+q)x, (q+q^2)x, (q+q^2)x^2); for larger
    ranks entry i is q**[i >= n] times (x * sum of the previous entries
    below ceil_index(n, i) plus the sum of the rest).
    """
    n = _rank(n, 2, "refined_Tq rank")
    return RefinedFamily(n, tuple(p.to_qx() for p in _TQ_STORE.rank(n)))


def refined_T1(n: int) -> tuple[XPoly, ...]:
    """The rank-n refined family specialized at q = 1.

    Built by the same recurrence from (2, 2x, 2x, 2x^2), with no factor q.
    """
    n = _rank(n, 2, "refined_T1 rank")
    return tuple(p.to_x() for p in _T1_STORE.rank(n))


def _affine_entry_upper(n: int, k: int, prev: Sequence[XPoly]) -> XPoly:
    """Band formula for last entry k >= n, used as the duality cross-check."""
    out = XPoly()
    for j in range(2 * n - 2):
        weight = (j < k - 1) + (j < 2 * n - k - 1)
        out = out + prev[j].shift_up(weight)
    return out


def refined_affine_T(n: int) -> RefinedFamily:
    """The affine refined family at rank n (single variable).

    Entries 0..n-1 come from the three-band formula over the rank n-1
    refined family at q = 1, with weights x^2 / x / 1 by position; entries
    n..2n-1 are filled by the duality entry(2n-1-i) = entry(i).
    """
    n = _rank(n, 3, "refined_affine_T rank")
    prev = _T1_STORE.rank(n - 1)
    lower = []
    for i in range(n):
        # Each entry sums the rank n-1 family once, so it fits that layout.
        out = _Packed(0, prev[0].layout)
        for j, p in enumerate(prev):
            out = out + p.shift_up((j < i) + (j < 2 * n - i - 2))
        lower.append(out.to_x())
    out = lower + [lower[2 * n - 1 - k] for k in range(n, 2 * n)]
    return RefinedFamily(n, tuple(out))


def refined_K(n: int, method: str = "direct") -> RefinedFamily:
    """The coupled family at rank n.

    direct: entry i is T(i) + T(n+i) for i < n and x*T(i-n) + T(i) above,
    from the q = 1 refined family.  recurrence: seed rank 3 directly, then
    iterate the same threshold recurrence as the refined family.
    """
    n = _rank(n, 3, "refined_K rank")
    if method == "direct":
        fam = _packed_K_direct(n)
    elif method == "recurrence":
        fam = _K_STORE.rank(n)
    else:
        raise UsageError(f"unknown refined_K method {method!r}")
    return RefinedFamily(n, tuple(p.to_x() for p in fam))


def _packed_K_direct(n: int) -> tuple:
    t = _T1_STORE.rank(n)
    return tuple(t[i] + t[n + i] for i in range(n)) + tuple(
        t[i - n].shift_up(1) + t[i] for i in range(n, 2 * n)
    )


_K_STORE = _RankStore(
    3, lambda: _packed_K_direct(3), _step_x, lambda n: _layout(n, 1), _RANK_STORE_SIZE
)


# ---------------------------------------------------------------------------
# Assembled families
# ---------------------------------------------------------------------------

ASSEMBLE_FAMILIES = ("Tq", "Dq", "D", "tildeD", "tildeB", "A")


def assemble(family: str, n: int):
    """Assemble a named polynomial family exactly.

    Tq: sum of the rank-n refined family (two variables).
    Dq: Tq divided exactly by 1 + q.
    D: half the 0-indexed entry of the rank n+1 family at q = 1.
    tildeD: the weighted decomposition sum((n-i-1)x + i+1) * (x*T(i) + T(n+i-1))
        over the rank n-1 family at q = 1, n >= 3.
    tildeB: entry n+1 of the rank n+1 family at q = 1.
    A: the q -> 0 specialization of Dq at rank n+1.
    """
    if family not in ASSEMBLE_FAMILIES:
        raise UsageError(f"unknown family {family!r}; expected one of {ASSEMBLE_FAMILIES}")
    n = _rank(n, {"Tq": 2, "Dq": 2, "tildeD": 3}.get(family, 1), f"{family} rank")
    if family == "Tq":
        fam = _TQ_STORE.rank(n)
        return sum(fam[1:], fam[0]).to_qx()
    if family == "Dq":
        return exact_divide(assemble("Tq", n), QXPoly((ONE_PLUS_Q,)))
    if family == "D":
        return _T1_STORE.rank(n + 1)[0].to_x() * Fraction(1, 2)
    if family == "tildeB":
        return _T1_STORE.rank(n + 1)[n + 1].to_x()
    if family == "A":
        return assemble("Dq", n + 1).eval_q(0)
    # tildeD: the coefficients sum to n |B_(n-1)| = |B_n| / 2, so the rank-n
    # layout holds every partial sum.
    layout = _layout(n, 1)
    t = [p.repack(layout) for p in _T1_STORE.rank(n - 1)]
    out = _Packed(0, layout)
    for i in range(n - 1):
        u = t[i].shift_up(1) + t[n + i - 1]
        out = out + u.shift_up(1) * (n - i - 1) + u * (i + 1)
    return out.to_x()


# ---------------------------------------------------------------------------
# Named identity checks
# ---------------------------------------------------------------------------

IDENTITY_NAMES = (
    "dilks_62",
    "stembridge",
    "t_n0_equals_prev",
    "tilde_dual",
    "k_two_methods",
    "matrix_identity",
    "q0_reduction",
    "oneplusq_division",
    "interlace_chain_prop62",
)


def evaluate_identity(name: str, n: int, cap: Optional[int] = None) -> tuple[bool, Optional[dict]]:
    """Decide one named identity at rank n: (True, None) or (False, witness).

    ``cap`` bounds the enumerations of stembridge and q0_reduction as in
    ``brute_polynomial``.
    """
    if name == "dilks_62":
        lhs = assemble("tildeD", n)
        rhs = assemble("tildeB", n) - assemble("D", n - 1).shift_up(1) * (2 * n)
        return poly_equality(lhs, rhs)

    if name == "stembridge":
        lhs = assemble("D", n)
        lower = brute_polynomial("A", n - 2, cap=cap).shift_up(1) * (n * 2 ** (n - 1))
        rhs = brute_polynomial("B", n, cap=cap) - lower
        return poly_equality(lhs, rhs)

    if name == "t_n0_equals_prev":
        return poly_equality(refined_Tq(n).polys[0], assemble("Tq", n - 1))

    if name == "tilde_dual":
        fam = refined_affine_T(n)
        prev = refined_T1(n - 1)
        for k in range(n, 2 * n):
            ok, witness = poly_equality(_affine_entry_upper(n, k, prev), fam.polys[k])
            if not ok:
                return False, {"index": k, **witness}
        return True, None

    if name == "k_two_methods":
        # Both routes pack in the rank-n layout, so equal entries are equal ints.
        n = _rank(n, 3, "refined_K rank")
        for i, (a, b) in enumerate(zip(_packed_K_direct(n), _K_STORE.rank(n))):
            if a.value != b.value:
                return False, {"index": i, **poly_equality(a.to_x(), b.to_x())[1]}
        return True, None

    if name == "matrix_identity":
        n = _rank(n, 3, "matrix_identity rank")
        return _duplication_commutes(recurrence_nx_matrix(n), n)

    if name == "q0_reduction":
        return poly_equality(assemble("Dq", n).eval_q(0), brute_polynomial("A", n - 1, cap=cap))

    if name == "oneplusq_division":
        return poly_equality(assemble("Dq", n) * ONE_PLUS_Q, assemble("Tq", n))

    if name == "interlace_chain_prop62":
        checks = [
            ("tildeB_step", assemble("tildeB", n), assemble("tildeB", n + 1)),
            ("D_step", assemble("D", n), assemble("D", n + 1)),
            ("D_below_tildeB", assemble("D", n), assemble("tildeB", n)),
        ]
        for label, low, high in checks:
            verdict = interlaces(low, high)
            if not verdict.holds:
                return False, {"relation": label, "verdict": verdict.relation}
        return True, None

    raise UsageError(f"unknown identity {name!r}; expected one of {IDENTITY_NAMES}")


def check_identity(name: str, n: int) -> ReportEntry:
    """Run one named identity at rank n and report pass/fail with witness."""
    return timed_entry(name, {"n": n}, lambda: evaluate_identity(name, n))


def _duplication_commutes(m: NXMatrix, n: int):
    """Compare Dup_n * m with m * Dup_(n-1) for a 2n x (2n-2) matrix m of
    entries 0, 1 and x, where Dup_k is the block matrix
    [[I_k, I_k], [x I_k, I_k]]; the witness is the first differing cell in
    row-major order.

    x is evaluated at 2^W with W > bit_length(2n).  An entry of either
    product sums at most 2n terms 0, 1, x or x^2, so its coefficients lie in
    0..2n < 2^W and two entries agree exactly when their integers do
    (Kronecker substitution).
    """
    x = 1 << ((2 * n).bit_length() + 1)
    rec = [[int(e.value) * (x if e.is_x else 1) for e in row] for row in m.rows]
    k = n - 1
    for r in range(2 * n):
        for c in range(2 * k):
            lhs = rec[r][c] + rec[r + n][c] if r < n else x * rec[r - n][c] + rec[r][c]
            rhs = rec[r][c] + x * rec[r][c + k] if c < k else rec[r][c - k] + rec[r][c]
            if lhs != rhs:
                return False, {"row": r, "col": c}
    return True, None


# ---------------------------------------------------------------------------
# Interlacing-preserving operators
# ---------------------------------------------------------------------------


class TransformSpec(Record):
    """Nondecreasing 1-based thresholds t_k with 1 <= t_k <= m + 1."""

    thresholds: tuple[int, ...]

    def __post_init__(self):
        try:
            t = tuple(map(operator.index, self.thresholds))
        except TypeError:
            raise UsageError(f"thresholds must be integers, got {self.thresholds!r}") from None
        object.__setattr__(self, "thresholds", t)
        if any(v < 1 for v in t):
            raise UsageError("thresholds must be >= 1")
        if any(a > b for a, b in zip(t, t[1:])):
            raise UsageError("thresholds must be nondecreasing")


def interlacing_transform(fs: Sequence, spec: TransformSpec) -> tuple:
    """Apply the threshold transform g_k = x * sum(fs[:t_k - 1]) + sum(fs[t_k - 1:]).

    fs holds polynomials of one kind (XPoly or QXPoly, or the packed carrier
    of the recurrence builds); the output has that kind.
    """
    if not fs:
        raise UsageError("interlacing_transform needs a nonempty sequence")
    m = len(fs)
    if any(t > m + 1 for t in spec.thresholds):
        raise UsageError(f"thresholds must be <= m + 1 = {m + 1}")
    prefix = [fs[0] - fs[0]]
    for p in fs:
        prefix.append(prefix[-1] + p)
    total = prefix[-1]
    out = []
    for t in spec.thresholds:
        head = prefix[t - 1]
        out.append(head.shift_up(1) + (total - head))
    return tuple(out)


class WeightedComboSpec(Record):
    """Nonnegative weights with a_i * b_{i+1} >= b_i * a_{i+1} throughout."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        a = tuple(_rational(v, "a weight") for v in self.a)
        b = tuple(_rational(v, "a weight") for v in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise UsageError("weight sequences must have equal length")
        if any(v < 0 for v in a) or any(v < 0 for v in b):
            raise PreconditionError("weights must be nonnegative")
        for i in range(len(a) - 1):
            if a[i] * b[i + 1] < b[i] * a[i + 1]:
                raise PreconditionError(
                    f"weight condition a_i*b_(i+1) >= b_i*a_(i+1) fails at i={i}"
                )


def weighted_combination(fs: Sequence[XPoly], spec: WeightedComboSpec) -> tuple[XPoly, XPoly]:
    """Return (sum a_i f_i, sum b_i f_i) for a mutually interlacing input."""
    if len(fs) != len(spec.a):
        raise UsageError("weight length must match the number of polynomials")
    fa = XPoly()
    fb = XPoly()
    for p, wa, wb in zip(fs, spec.a, spec.b):
        fa = fa + p * wa
        fb = fb + p * wb
    return fa, fb


# ---------------------------------------------------------------------------
# Tagged matrices of constants and x-multiples
# ---------------------------------------------------------------------------


class NXEntry(Record):
    """Either a nonnegative constant or a positive multiple of x."""

    is_x: bool
    value: Fraction

    def __post_init__(self):
        v = _rational(self.value, "an NXEntry value")
        object.__setattr__(self, "value", v)
        if self.is_x and v <= 0:
            raise UsageError("x-multiples must have positive coefficient")
        if not self.is_x and v < 0:
            raise UsageError("constant entries must be nonnegative")


def nx_const(c) -> NXEntry:
    return NXEntry(False, c)


def nx_x(c=1) -> NXEntry:
    return NXEntry(True, c)


class NXMatrix(Record):
    rows: tuple[tuple[NXEntry, ...], ...]

    def __post_init__(self):
        ok = isinstance(self.rows, Sequence) and all(isinstance(r, Sequence) for r in self.rows)
        if not ok or not all(isinstance(e, NXEntry) for r in self.rows for e in r):
            raise UsageError("NXMatrix rows must be sequences of NXEntry values (nx_const or nx_x)")
        if not self.rows:
            raise UsageError("NXMatrix must be nonempty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise UsageError("NXMatrix rows must have equal length")


def recurrence_nx_matrix(n: int) -> NXMatrix:
    """The 2n x (2n-2) matrix of the rank-n threshold recurrence: x left of
    each row's threshold column, 1 from it on."""
    x, one = nx_x(), nx_const(1)
    return NXMatrix(
        tuple(
            tuple(x if j < t - 1 else one for j in range(2 * n - 2))
            for t in _rank_thresholds(n).thresholds
        )
    )


def _first_turn(cells, sign: int):
    """[i, j] for the first nonzero vector (j, a_j, b_j) of ``cells`` with
    sign * (a_i b_j - b_i a_j) < 0 against the last nonzero vector i before
    it; None if there is none.  In the closed first quadrant that determinant
    has the sign of the angle difference, so one sign on consecutive vectors
    is one sign on every pair.
    """
    last = None
    for k, a, b in cells:
        if a or b:
            if last is not None and sign * (last[1] * b - last[2] * a) < 0:
                return [last[0], k]
            last = (k, a, b)
    return None


def fisk_nx_check(m: NXMatrix) -> tuple[bool, dict | None]:
    """Criterion for a tagged matrix to preserve mutually interlacing input.

    (1) strictly southwest of any x-multiple only x-multiples appear;
    (2) 2x2 submatrices with all four entries of the same form have
        determinant >= 0 in the coefficients;
    (3) 2x2 submatrices with a constant top row over an x row, or an
        x-multiple left column beside a constant column, have
        determinant <= 0.

    (1) is one sweep over the rows; (2) and (3) are one ``_first_turn`` per
    form on each row pair and column pair: O(r c (r + c)) in all.  Each row
    is read once, as forms and as integers scaled by the lcm of its
    denominators; a 2x2 minor spans two rows, so that keeps its sign.
    """
    forms = [tuple(e.is_x for e in row) for row in m.rows]
    values = [_clear_denominators([e.value for e in row])[1] for row in m.rows]
    top = (-1, 0)  # the rightmost x of the rows above, as (column, row)
    for r, row in enumerate(forms):
        first_const = next((c for c, x in enumerate(row) if not x), len(row))
        if first_const < top[0]:
            return False, {"kind": "southwest", "x_cell": [top[1], top[0]], "cell": [r, first_const]}
        top = max(top, (max((c for c, x in enumerate(row) if x), default=-1), r))
    for r1, r2 in combinations(range(len(forms)), 2):
        pairs = list(enumerate(zip(forms[r1], forms[r2], values[r1], values[r2])))
        for form, sign in (((False, False), 1), ((True, True), 1), ((False, True), -1)):
            cols = [(c, a, b) for c, (e, f, a, b) in pairs if (e, f) == form]
            if hit := _first_turn(cols, sign):
                condition = "same-form" if sign > 0 else "mixed-form"
                return False, {"kind": "minor", "rows": [r1, r2], "cols": hit, "condition": condition}
    for c1, c2 in combinations(range(len(forms[0])), 2):
        cells = [(r, v[c1], v[c2]) for r, (f, v) in enumerate(zip(forms, values)) if f[c1] and not f[c2]]
        if hit := _first_turn(cells, -1):
            return False, {"kind": "minor", "rows": hit, "cols": [c1, c2], "condition": "mixed-form"}
    return True, None
