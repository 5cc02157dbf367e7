"""Even/odd splits, Hurwitz determinants, and stability-based interlacing.

The Hurwitz matrix of p(z) = sum a_{n-k} z^k is H[r][c] = a_{2c - r + 1}
(0-based, entries outside 0..n read as zero); Delta_k is its k-th leading
principal minor.  Numeric determinants live over the rationals; symbolic
ones live over the integer polynomials in q and are computed fraction-free,
by cofactor expansion up to size 4 and Bareiss elimination beyond.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    DivisibilityError,
    PreconditionError,
    StabilityInapplicableError,
    UsageError,
)
from .exactpoly import ONE_PLUS_Q, QPoly, QXPoly, XPoly, _int_coeffs, poly_gcd
from .realroots import (
    InterlacingVerdict,
    STRICT,
    WEAK,
    _count_half_open,
    _cauchy_pow2_bound,
    _radical,
    _sturm_chain,
    interlaces,
    is_real_rooted,
)
from .recurrences import refined_Tq

HURWITZ_STABLE = "hurwitz_stable"
NOT_STABLE = "not_stable"
BOUNDARY = "boundary"


# ---------------------------------------------------------------------------
# Even/odd split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HBSplit:
    """Even/odd coefficient split: p(z) = even(z^2) + z * odd(z^2)."""

    even_part: XPoly
    odd_part: XPoly

    def reconstruct(self) -> XPoly:
        return _interleave(self.even_part, self.odd_part)


def _interleave(even, odd):
    """even(z^2) + z * odd(z^2) for two polynomials of one kind."""
    pairs = itertools.zip_longest(even.coeffs, odd.coeffs, fillvalue=even._zero)
    return type(even)(tuple(itertools.chain.from_iterable(pairs)))


def _strip_z(p):
    """(m, p / z^m) for the largest power z^m dividing the nonzero p."""
    m = 0
    while not p.coeffs[m]:
        m += 1
    return m, type(p)(p.coeffs[m:])


def hb_split(p: XPoly) -> HBSplit:
    """Split into even-index and odd-index coefficient parts."""
    if p.is_zero():
        raise UsageError("hb_split of the zero polynomial")
    even = XPoly(p.coeffs[0::2])
    odd = XPoly(p.coeffs[1::2])
    return HBSplit(even, odd)


# ---------------------------------------------------------------------------
# Hurwitz determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Hurwitz determinants Delta_1..Delta_n plus a verdict (numeric only)."""

    determinants: tuple
    verdict: Optional[str]

    def to_json(self) -> dict:
        dets = []
        for d in self.determinants:
            if isinstance(d, Fraction):
                dets.append([str(d.numerator), str(d.denominator)])
            else:
                dets.append([str(c) for c in d.coeffs])
        return {"determinants": dets, "verdict": self.verdict}


def _det_cofactor(mat, zero):
    k = len(mat)
    if k == 1:
        return mat[0][0]
    if k == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    out = zero
    sign = 1
    for c in range(k):
        entry = mat[0][c]
        if entry:
            minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
            term = entry * _det_cofactor(minor, zero)
            out = out + term if sign > 0 else out - term
        sign = -sign
    return out


def _exact_quot(a, b):
    if isinstance(a, Fraction):
        return a / b
    return a.exact_div(b)


def _det_bareiss(mat, zero, one):
    """Fraction-free determinant with row pivoting over an integral domain."""
    m = [list(row) for row in mat]
    k = len(m)
    sign = 1
    prev = one
    for col in range(k - 1):
        pivot_row = next((r for r in range(col, k) if m[r][col]), None)
        if pivot_row is None:
            return zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                num = m[col][col] * m[r][c] - m[r][col] * m[col][c]
                m[r][c] = _exact_quot(num, prev)
            m[r][col] = zero
        prev = m[col][col]
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _det(mat, zero, one):
    if len(mat) <= 4:
        return _det_cofactor(mat, zero)
    return _det_bareiss(mat, zero, one)


def hurwitz_determinants(p: Union[XPoly, QXPoly]) -> StabilityReport:
    """All leading Hurwitz minors of p, read as a polynomial in z.

    Rational coefficients get a verdict: stable when every minor is
    positive, not stable when any is negative, boundary when zeros appear
    without negatives.  Symbolic (q-polynomial) coefficients get verdict
    None.
    """
    if p.is_zero():
        raise UsageError("hurwitz_determinants of the zero polynomial")
    n = int(p.degree)
    if n < 1:
        raise UsageError("hurwitz_determinants needs degree >= 1")
    symbolic = isinstance(p, QXPoly)
    if symbolic:
        zero, one = QPoly(), QPoly((1,))
        a = list(reversed(p.coeffs))
        if not a[0]:
            raise UsageError("leading coefficient must be nonzero")
    else:
        zero, one = Fraction(0), Fraction(1)
        a = list(reversed(p.coeffs))
        if a[0] <= 0:
            raise PreconditionError("leading coefficient must be positive")

    def entry(r, c):
        idx = 2 * c - r + 1
        return a[idx] if 0 <= idx <= n else zero

    dets = []
    for k in range(1, n + 1):
        mat = [[entry(r, c) for c in range(k)] for r in range(k)]
        dets.append(_det(mat, zero, one))
    verdict = None
    if not symbolic:
        if all(d > 0 for d in dets):
            verdict = HURWITZ_STABLE
        elif any(d < 0 for d in dets):
            verdict = NOT_STABLE
        else:
            verdict = BOUNDARY
    return StabilityReport(tuple(dets), verdict)


# ---------------------------------------------------------------------------
# Coupled test polynomials for the rank-4 refined family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPairResult:
    """Stripped, normalized coupling of two rank-4 refined entries.

    poly is (entry_j(z^2) + z * entry_i(z^2)) / (z^m * (1+q)) with m the
    largest power of z dividing the numerator.
    """

    i: int
    j: int
    m: int
    poly: QXPoly


def build_C(i: int, j: int) -> CPairResult:
    """Couple entries i < j of the rank-4 refined family into one z-polynomial."""
    if not 0 <= i < j <= 7:
        raise UsageError("build_C needs 0 <= i < j <= 7")
    fam = refined_Tq(4).polys
    m, stripped = _strip_z(_interleave(fam[j], fam[i]))
    try:
        normalized = stripped.exact_div(ONE_PLUS_Q)
    except DivisibilityError as exc:
        raise DivisibilityError(f"coupling ({i},{j}) is not divisible by 1+q") from exc
    return CPairResult(i, j, m, normalized)


# ---------------------------------------------------------------------------
# Positivity of q-polynomials on the positive reals
# ---------------------------------------------------------------------------


def q_positive_on_positive_reals(p: QPoly) -> bool:
    """True iff p(q) > 0 for every q > 0, decided exactly.

    Nonnegative coefficients with at least one positive short-circuit;
    otherwise a Sturm count certifies the absence of roots in (0, bound]
    and one positive sample fixes the sign.
    """
    if p.is_zero():
        raise UsageError("q_positive_on_positive_reals of the zero polynomial")
    if all(c >= 0 for c in p.coeffs):
        return True
    as_x = XPoly(tuple(Fraction(c) for c in p.coeffs))
    radical = _radical(as_x)
    if radical.degree >= 1:
        ints = _int_coeffs(radical)
        chain = _sturm_chain(ints)
        bound = _cauchy_pow2_bound(ints)
        if _count_half_open(chain, Fraction(0), Fraction(bound)) != 0:
            return False
    return p.evaluate(1) > 0


# ---------------------------------------------------------------------------
# Interlacing via stability
# ---------------------------------------------------------------------------


def interlace_via_stability(f: XPoly, g: XPoly) -> InterlacingVerdict:
    """Decide whether f interlaces g through the stability of g(z^2) + z f(z^2).

    A strictly stable coupled polynomial certifies strict interlacing; one
    stable after stripping a z power is weak exactly when f and g share the
    root at zero.  Boundary and degenerate cases fall back to the direct
    root-isolation test, so the two routes always agree.
    """
    for name, p in (("f", f), ("g", g)):
        if p.is_zero():
            raise StabilityInapplicableError(
                f"{name} is zero, so one split part vanishes identically"
            )
        if any(c < 0 for c in p.coeffs):
            raise PreconditionError(f"{name} must have nonnegative coefficients")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise PreconditionError("interlace_via_stability requires real-rooted inputs")
    df, dg = f.degree, g.degree
    if df == 0 or dg == 0 or dg - df not in (0, 1):
        return interlaces(f, g)

    m, stripped = _strip_z(_interleave(g, f))
    report = hurwitz_determinants(stripped)
    if report.verdict == HURWITZ_STABLE:
        if m == 0:
            return InterlacingVerdict(STRICT)
        shared = poly_gcd(f, g)
        return InterlacingVerdict(WEAK if shared.degree >= 1 else STRICT)
    return interlaces(f, g)
