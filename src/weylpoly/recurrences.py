"""Recurrence-defined polynomial families, assembled Eulerian-like
polynomials, named identities, and interlacing-preserving operators.

Indexing is 0-based throughout.  The refined families carry 2n entries at
rank n, indexed by the last entry of the underlying inversion sequence.
Only the transform thresholds are 1-based (values in 1..m+1), matching the
classical statement of the threshold transform; the shift is documented at
that API boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .errors import PreconditionError, UsageError
from .exactpoly import (
    ONE_PLUS_Q,
    Q_VAR,
    QPoly,
    QXPoly,
    X_ONE,
    X_VAR,
    X_ZERO,
    XPoly,
    exact_divide,
)
from .realroots import interlaces
from .report import ReportEntry, poly_equality, timed_entry
from .weylcomb import brute_polynomial


@dataclass(frozen=True)
class RefinedFamily:
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
    if n < 2:
        raise UsageError("ceil_index needs n >= 2")
    if not 0 <= i <= 2 * n - 1:
        raise UsageError(f"index {i} out of range 0..{2 * n - 1}")
    return -((-(n - 1) * i) // n)


def _rank_thresholds(n: int) -> TransformSpec:
    """The 1-based thresholds ceil_index(n, i) + 1 of the rank-n recurrence."""
    return TransformSpec(tuple(ceil_index(n, i) + 1 for i in range(2 * n)))


def _recurrence_rows(n: int, x_entry, one_entry) -> tuple:
    """The 2n x (2n-2) rank-n recurrence matrix: x_entry left of each row's
    threshold column, one_entry from it on."""
    return tuple(
        tuple(x_entry if j < t - 1 else one_entry for j in range(2 * n - 2))
        for t in _rank_thresholds(n).thresholds
    )


def _build_to_rank(cache: dict, n: int, seed_rank: int, seed: Callable, step: Callable) -> RefinedFamily:
    """Rank n of a family built rank by rank, from the highest cached rank
    below n (or the seed), caching every rank it passes."""
    fam = cache.get(n)
    if fam is not None:
        return fam
    k = max((r for r in cache if r < n), default=None)
    if k is None:
        k = seed_rank
        cache[k] = RefinedFamily(k, seed())
    while k < n:
        k += 1
        cache[k] = RefinedFamily(k, step(k, cache[k - 1].polys))
    return cache[n]


def _seed_Tq() -> tuple[QXPoly, ...]:
    one_plus_q = QPoly((1, 1))
    q_plus_q2 = QPoly((0, 1, 1))
    return (
        QXPoly((one_plus_q,)),
        QXPoly((QPoly(), one_plus_q)),
        QXPoly((QPoly(), q_plus_q2)),
        QXPoly((QPoly(), QPoly(), q_plus_q2)),
    )


def _step_Tq(n: int, prev: tuple) -> tuple:
    out = interlacing_transform(prev, _rank_thresholds(n))
    return out[:n] + tuple(p * Q_VAR for p in out[n:])


_TQ_RANKS: dict[int, RefinedFamily] = {}

# Bound of the per-rank lru caches below: far above the ranks built in
# practice (about 40), so none is evicted during a run.
_RANK_CACHE_SIZE = 256


def refined_Tq(n: int) -> RefinedFamily:
    """The q-refined family at rank n, built by the threshold recurrence.

    Rank 2 is seeded with (1+q, (1+q)x, (q+q^2)x, (q+q^2)x^2); for larger
    ranks entry i is q**[i >= n] times (x * sum of the previous entries
    below ceil_index(n, i) plus the sum of the rest).
    """
    if n < 2:
        raise UsageError("refined_Tq needs n >= 2")
    return _build_to_rank(_TQ_RANKS, n, 2, _seed_Tq, _step_Tq)


@lru_cache(maxsize=_RANK_CACHE_SIZE)
def refined_T1(n: int) -> tuple[XPoly, ...]:
    """The rank-n refined family specialized at q = 1."""
    return tuple(p.eval_q(1) for p in refined_Tq(n).polys)


def _affine_entry(n: int, i: int, prev: Sequence[XPoly]) -> XPoly:
    """Band formula for last entry i <= n-1: weights x^2 / x / 1 by position."""
    out = XPoly()
    for j in range(2 * n - 2):
        weight = (j < i) + (j < 2 * n - i - 2)
        out = out + prev[j].shift_up(weight)
    return out


def _affine_entry_upper(n: int, k: int, prev: Sequence[XPoly]) -> XPoly:
    """Band formula for last entry k >= n, used as the duality cross-check."""
    out = XPoly()
    for j in range(2 * n - 2):
        weight = (j < k - 1) + (j < 2 * n - k - 1)
        out = out + prev[j].shift_up(weight)
    return out


@lru_cache(maxsize=_RANK_CACHE_SIZE)
def refined_affine_T(n: int) -> RefinedFamily:
    """The affine refined family at rank n (single variable).

    Entries 0..n-1 come from the three-band formula over the rank n-1
    refined family at q = 1; entries n..2n-1 are filled by the duality
    entry(2n-1-i) = entry(i).
    """
    if n < 3:
        raise UsageError("refined_affine_T needs n >= 3")
    prev = refined_T1(n - 1)
    lower = [_affine_entry(n, i, prev) for i in range(n)]
    out = lower + [lower[2 * n - 1 - k] for k in range(n, 2 * n)]
    return RefinedFamily(n, tuple(out))


def refined_K(n: int, method: str = "direct") -> RefinedFamily:
    """The coupled family at rank n.

    direct: entry i is T(i) + T(n+i) for i < n and x*T(i-n) + T(i) above,
    from the q = 1 refined family.  recurrence: seed rank 3 directly, then
    iterate the same threshold recurrence as the refined family.
    """
    if n < 3:
        raise UsageError("refined_K needs n >= 3")
    if method == "direct":
        return _refined_K_direct(n)
    if method != "recurrence":
        raise UsageError(f"unknown refined_K method {method!r}")
    return _build_to_rank(
        _K_RANKS, n, 3, lambda: _refined_K_direct(3).polys,
        lambda k, prev: interlacing_transform(prev, _rank_thresholds(k)),
    )


@lru_cache(maxsize=_RANK_CACHE_SIZE)
def _refined_K_direct(n: int) -> RefinedFamily:
    t = refined_T1(n)
    out = [t[i] + t[n + i] for i in range(n)]
    out += [t[i - n].shift_up(1) + t[i] for i in range(n, 2 * n)]
    return RefinedFamily(n, tuple(out))


_K_RANKS: dict[int, RefinedFamily] = {}


# ---------------------------------------------------------------------------
# Assembled families
# ---------------------------------------------------------------------------

ASSEMBLE_FAMILIES = ("Tq", "Dq", "D", "tildeD", "tildeB", "A")


def assemble(family: str, n: int):
    """Assemble a named polynomial family exactly.

    Tq: sum of the rank-n refined family (two variables).
    Dq: Tq divided exactly by 1 + q.
    D: half the 0-indexed entry of the rank n+1 family at q = 1.
    tildeD: rank 3 from the affine refined sum; rank >= 4 from the weighted
        decomposition sum((n-i-1)x + i+1) * (x*T(i) + T(n+i-1)) over the
        rank n-1 family at q = 1.
    tildeB: entry n+1 of the rank n+1 family at q = 1.
    A: the q -> 0 specialization of Dq at rank n+1.
    """
    if family == "Tq":
        if n < 2:
            raise UsageError("Tq needs n >= 2")
        out = QXPoly()
        for p in refined_Tq(n).polys:
            out = out + p
        return out
    if family == "Dq":
        if n < 2:
            raise UsageError("Dq needs n >= 2")
        return exact_divide(assemble("Tq", n), QXPoly((ONE_PLUS_Q,)))
    if family == "D":
        if n < 1:
            raise UsageError("D needs n >= 1")
        return refined_T1(n + 1)[0] * Fraction(1, 2)
    if family == "tildeB":
        if n < 1:
            raise UsageError("tildeB needs n >= 1")
        return refined_T1(n + 1)[n + 1]
    if family == "A":
        if n < 1:
            raise UsageError("A needs n >= 1")
        return assemble("Dq", n + 1).eval_q(0)
    if family == "tildeD":
        if n < 3:
            raise UsageError("tildeD needs n >= 3")
        if n == 3:
            fam = refined_affine_T(3).polys
            out = XPoly()
            for i in range(3):
                out = out + fam[i]
            return out
        t = refined_T1(n - 1)
        out = XPoly()
        for i in range(n - 1):
            weight = XPoly((Fraction(i + 1), Fraction(n - i - 1)))
            out = out + weight * (t[i].shift_up(1) + t[n + i - 1])
        return out
    raise UsageError(f"unknown family {family!r}; expected one of {ASSEMBLE_FAMILIES}")


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
        if n < 3:
            raise UsageError("t_n0_equals_prev needs n >= 3")
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
        a = refined_K(n, "direct").polys
        b = refined_K(n, "recurrence").polys
        for i in range(2 * n):
            ok, witness = poly_equality(a[i], b[i])
            if not ok:
                return False, {"index": i, **witness}
        return True, None

    if name == "matrix_identity":
        return _matrix_identity_holds(n)

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


def _mat_mul(lhs, rhs):
    rows = len(lhs)
    inner = len(rhs)
    cols = len(rhs[0])
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = XPoly()
            for k in range(inner):
                acc = acc + lhs[r][k] * rhs[k][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _matrix_identity_holds(n: int):
    """Commutation of the duplication block with the recurrence block."""
    if n < 3:
        raise UsageError("matrix_identity needs n >= 3")

    def block_two(tl, tr, bl, br):
        top = [tuple(list(tl[r]) + list(tr[r])) for r in range(len(tl))]
        bot = [tuple(list(bl[r]) + list(br[r])) for r in range(len(bl))]
        return tuple(top + bot)

    def identity_block(m, scale):
        return tuple(
            tuple(scale if r == c else X_ZERO for c in range(m)) for r in range(m)
        )

    rec = _recurrence_rows(n, X_VAR, X_ONE)
    dup_big = block_two(identity_block(n, X_ONE), identity_block(n, X_ONE),
                        identity_block(n, X_VAR), identity_block(n, X_ONE))
    dup_small = block_two(identity_block(n - 1, X_ONE), identity_block(n - 1, X_ONE),
                          identity_block(n - 1, X_VAR), identity_block(n - 1, X_ONE))
    lhs = _mat_mul(dup_big, rec)
    rhs = _mat_mul(rec, dup_small)
    for r in range(2 * n):
        for c in range(2 * n - 2):
            if lhs[r][c] != rhs[r][c]:
                return False, {"row": r, "col": c}
    return True, None


# ---------------------------------------------------------------------------
# Interlacing-preserving operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Nondecreasing 1-based thresholds t_k with 1 <= t_k <= m + 1."""

    thresholds: tuple[int, ...]

    def __post_init__(self):
        t = tuple(int(v) for v in self.thresholds)
        object.__setattr__(self, "thresholds", t)
        if any(v < 1 for v in t):
            raise UsageError("thresholds must be >= 1")
        if any(a > b for a, b in zip(t, t[1:])):
            raise UsageError("thresholds must be nondecreasing")


def interlacing_transform(fs: Sequence, spec: TransformSpec) -> tuple:
    """Apply the threshold transform g_k = x * sum(fs[:t_k - 1]) + sum(fs[t_k - 1:]).

    fs holds polynomials of one kind (XPoly or QXPoly); the output has that kind.
    """
    if not fs:
        raise UsageError("interlacing_transform needs a nonempty sequence")
    m = len(fs)
    if any(t > m + 1 for t in spec.thresholds):
        raise UsageError(f"thresholds must be <= m + 1 = {m + 1}")
    prefix = [type(fs[0])()]
    for p in fs:
        prefix.append(prefix[-1] + p)
    total = prefix[-1]
    out = []
    for t in spec.thresholds:
        head = prefix[t - 1]
        out.append(head.shift_up(1) + (total - head))
    return tuple(out)


@dataclass(frozen=True)
class WeightedComboSpec:
    """Nonnegative weights with a_i * b_{i+1} >= b_i * a_{i+1} throughout."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        a = tuple(Fraction(v) for v in self.a)
        b = tuple(Fraction(v) for v in self.b)
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


@dataclass(frozen=True)
class NXEntry:
    """Either a nonnegative constant or a positive multiple of x."""

    is_x: bool
    value: Fraction

    def __post_init__(self):
        v = Fraction(self.value)
        object.__setattr__(self, "value", v)
        if self.is_x and v <= 0:
            raise UsageError("x-multiples must have positive coefficient")
        if not self.is_x and v < 0:
            raise UsageError("constant entries must be nonnegative")


def nx_const(c) -> NXEntry:
    return NXEntry(False, Fraction(c))


def nx_x(c=1) -> NXEntry:
    return NXEntry(True, Fraction(c))


@dataclass(frozen=True)
class NXMatrix:
    rows: tuple[tuple[NXEntry, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise UsageError("NXMatrix must be nonempty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise UsageError("NXMatrix rows must have equal length")


def recurrence_nx_matrix(n: int) -> NXMatrix:
    """The 2n x (2n-2) matrix of the rank-n threshold recurrence."""
    return NXMatrix(_recurrence_rows(n, nx_x(), nx_const(1)))


def fisk_nx_check(m: NXMatrix) -> tuple[bool, dict | None]:
    """Criterion for a tagged matrix to preserve mutually interlacing input.

    (1) strictly southwest of any x-multiple only x-multiples appear;
    (2) 2x2 submatrices with all four entries of the same form have
        determinant >= 0 in the coefficients;
    (3) 2x2 submatrices with a constant top row over an x row, or an
        x-multiple left column beside a constant column, have
        determinant <= 0.
    """
    rows = m.rows
    nr, nc = len(rows), len(rows[0])
    for r in range(nr):
        for c in range(nc):
            if rows[r][c].is_x:
                for r2 in range(r + 1, nr):
                    for c2 in range(c):
                        if not rows[r2][c2].is_x:
                            return False, {
                                "kind": "southwest",
                                "x_cell": [r, c],
                                "cell": [r2, c2],
                            }
    for r1 in range(nr):
        for r2 in range(r1 + 1, nr):
            for c1 in range(nc):
                for c2 in range(c1 + 1, nc):
                    p, q = rows[r1][c1], rows[r1][c2]
                    s, t = rows[r2][c1], rows[r2][c2]
                    det = p.value * t.value - q.value * s.value
                    forms = (p.is_x, q.is_x, s.is_x, t.is_x)
                    if forms in ((False, False, False, False), (True, True, True, True)):
                        if det < 0:
                            return False, {
                                "kind": "minor",
                                "rows": [r1, r2],
                                "cols": [c1, c2],
                                "condition": "same-form",
                            }
                    elif forms == (False, False, True, True) or forms == (True, False, True, False):
                        if det > 0:
                            return False, {
                                "kind": "minor",
                                "rows": [r1, r2],
                                "cols": [c1, c2],
                                "condition": "mixed-form",
                            }
    return True, None
