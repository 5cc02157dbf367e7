"""Even/odd splits, Hurwitz determinants, and stability-based interlacing.

The Hurwitz matrix of p(z) = a_0 z^n + a_1 z^(n-1) + ... + a_n is
H[r][c] = a_{2c - r + 1} (0-based, entries outside 0..n read as zero);
Delta_k is its k-th leading principal minor.  Every minor comes from
Routh's array, fraction-free, on Python ints.  Its rows start
R_0 = (a_0, a_2, ...) and R_1 = (a_1, a_3, ...), and

    R_{k+1}[j] = (R_k[0] R_{k-1}[j+1] - R_{k-1}[0] R_k[j+1]) / d_k,

with d_1 = d_2 = 1 and d_k = Delta_{k-2} for k >= 3; then Delta_k = R_k[0].
Each R_k is Delta_{k-1} times the rational Routh row k, and its entries are
minors of H, so every division is exact, and a remainder raises
DivisibilityError.  That is O(n^2) integer operations for all n minors.

Numeric p is scaled by the lcm D of its denominators: Delta_k(D p) =
D^k Delta_k(p).  Symbolic p, over Z[q], is packed at q = 2^W (Kronecker
substitution).  That is a ring map, so the array yields the packed minors,
and every division exact over Z[q] stays exact.  Row r of H holds each a_i
with i = r + 1 (mod 2) at most once, so on |q| = 1 no Delta_k exceeds the
product over the n rows of max(1, sqrt(sum ||a_i||_1^2)) (Hadamard), and
neither does any coefficient of it (Cauchy's estimate).  With W whole bytes
and 2^(W-1) above that bound, ``exactpoly._digits`` reads each minor as the
balanced base-2^W digits of its packed value, zero exactly when it is.

The array divides by Delta_{k-2}, so a zero Delta_k with k < n would stop
it.  It then reruns on p + eps (z+1)^n over Z[eps], with the coefficients
still packed.  H is linear in the coefficients of p, so
Delta_j(p + eps (z+1)^n) is a polynomial in eps with constant term
Delta_j(p) and eps^j coefficient Delta_j((z+1)^n) > 0, since (z+1)^n is
stable.  No lifted minor is zero, the lifted entries are still minors, so
each division stays exact, and the constant terms of the lifted
Delta_{k+1}, ..., Delta_n are the remaining minors of p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, isqrt

from .errors import DivisibilityError, PreconditionError, StabilityInapplicableError, UsageError
from .exactpoly import ONE_PLUS_Q, QPoly, QXPoly, XPoly, _clear_denominators, _digits, _int_quot, _univariate
from .realroots import STRICT, WEAK, InterlacingVerdict, interlaces, isolate_roots
from .record import Record
from .recurrences import refined_Tq

HURWITZ_STABLE = "hurwitz_stable"
NOT_STABLE = "not_stable"
BOUNDARY = "boundary"


# ---------------------------------------------------------------------------
# Even/odd split
# ---------------------------------------------------------------------------


class HBSplit(Record):
    """Even/odd coefficient split: p(z) = even(z^2) + z * odd(z^2)."""

    even_part: XPoly
    odd_part: XPoly

    def reconstruct(self) -> XPoly:
        if not (self.even_part or self.odd_part):
            return XPoly()
        m, c = _interleave(self.even_part.coeffs, self.odd_part.coeffs)
        return XPoly(c).shift_up(m)


def _interleave(even, odd):
    """(m, c) with even(z^2) + z * odd(z^2) = z^m * (c[0] + c[1] z + ...).

    even and odd are trimmed coefficient tuples of one ring, not both
    empty; c is a list with c[0] and c[-1] nonzero.
    """
    c = list(itertools.chain.from_iterable(itertools.zip_longest(even, odd, fillvalue=0)))
    if not c[-1]:  # the fill after the last coefficient of a longer even part
        c.pop()
    m = 0
    while not c[m]:
        m += 1
    return m, c[m:]


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


class StabilityReport(Record):
    """Hurwitz determinants Delta_1..Delta_n plus a verdict (numeric only)."""

    determinants: tuple
    verdict: str | None

    def to_json(self) -> dict:
        dets = []
        for d in self.determinants:
            if isinstance(d, Fraction):
                dets.append([str(d.numerator), str(d.denominator)])
            else:
                dets.append([str(c) for c in d.coeffs])
        return {"determinants": dets, "verdict": self.verdict}


def _routh_minors(a):
    """Delta_1, ..., Delta_n of a[0] z^n + ... + a[n], in order, from the fraction-free Routh array.

    The entries are ints.  At the first zero Delta_k with k < n the array
    reruns on p + eps (z+1)^n, with QPoly entries read as integer
    polynomials in eps, whose minors are never zero; the constant terms of
    its Delta_{k+1}, ..., Delta_n follow.
    """
    zero, quot = (0, _int_quot) if type(a[0]) is int else (QPoly(), QPoly.exact_div)
    n = len(a) - 1
    older, row = list(a[0::2]), list(a[1::2])
    minors = [row[0]]
    yield row[0]
    for k in range(1, n):
        if not row[0]:
            lifted = _routh_minors([QPoly((c, comb(n, i))) for i, c in enumerate(a)])
            for d in itertools.islice(lifted, k, None):
                yield d.coeff(0)
            return
        new = [row[0] * x - older[0] * y for x, y in zip(older[1:], row[1:] + [zero])]
        if k >= 3:  # d_k = Delta_{k-2}; d_1 = d_2 = 1
            new = [quot(v, minors[k - 3]) for v in new]
        older, row = row, new
        minors.append(row[0])
        yield row[0]


def _kronecker_bytes(a) -> int:
    """W / 8, from the Hadamard bound of the module docstring; rows of H start with odd-index a_i."""
    norms = [max(sum(sum(map(abs, c.coeffs)) ** 2 for c in a[par::2]), 1) for par in (1, 0)]
    n = len(a) - 1
    squared = norms[0] ** ((n + 1) // 2) * norms[1] ** (n // 2)
    return (isqrt(squared).bit_length() + 8) >> 3  # 2^(W - 1) > the bound


def hurwitz_determinants(p: XPoly | QXPoly) -> StabilityReport:
    """All leading Hurwitz minors of p, read as a polynomial in z.

    Rational coefficients get a verdict: stable when every minor is
    positive, not stable when any is negative, boundary when zeros appear
    without negatives.  Symbolic (q-polynomial) coefficients get verdict
    None.
    """
    if p.is_zero():
        raise UsageError("hurwitz_determinants of the zero polynomial")
    if p.degree < 1:
        raise UsageError("hurwitz_determinants needs degree >= 1")
    a = p.coeffs[::-1]
    if isinstance(p, QXPoly):
        nb = _kronecker_bytes(a)
        packed = _routh_minors([sum(x << 8 * nb * i for i, x in enumerate(c.coeffs)) for c in a])
        return StabilityReport(tuple(QPoly(_digits(d, nb)) for d in packed), None)
    if a[0] <= 0:
        raise PreconditionError("leading coefficient must be positive")
    # Delta_k(den * p) = den**k * Delta_k(p)
    den, ints = _clear_denominators(a)
    dets = tuple(Fraction(d, den**k) for k, d in enumerate(_routh_minors(ints), start=1))
    if all(d > 0 for d in dets):
        verdict = HURWITZ_STABLE
    elif any(d < 0 for d in dets):
        verdict = NOT_STABLE
    else:
        verdict = BOUNDARY
    return StabilityReport(dets, verdict)


# ---------------------------------------------------------------------------
# Coupled test polynomials for the rank-4 refined family
# ---------------------------------------------------------------------------


class CPairResult(Record):
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
    m, c = _interleave(fam[j].coeffs, fam[i].coeffs)
    try:
        normalized = QXPoly(c).exact_div(ONE_PLUS_Q)
    except DivisibilityError as exc:
        raise DivisibilityError(f"coupling ({i},{j}) is not divisible by 1+q") from exc
    return CPairResult(i, j, m, normalized)


# ---------------------------------------------------------------------------
# Positivity of q-polynomials on the positive reals
# ---------------------------------------------------------------------------


def q_positive_on_positive_reals(p: QPoly) -> bool:
    """True iff p(q) > 0 for every q > 0, decided exactly.

    Nonnegative coefficients with at least one positive short-circuit.
    Otherwise p needs a positive leading coefficient and no root in (0, inf).
    Every isolating interval at most 1 wide is (k 2^w, (k+1) 2^w], k an
    integer, so a root is positive exactly when its interval ends above 0.
    """
    if _univariate(p, "p").is_zero():
        raise UsageError("q_positive_on_positive_reals of the zero polynomial")
    if all(c >= 0 for c in p.coeffs):
        return True
    return p.leading > 0 and all(r.hi <= 0 for r in isolate_roots(p, 1).intervals)


# ---------------------------------------------------------------------------
# Interlacing via stability
# ---------------------------------------------------------------------------


def interlace_via_stability(f: XPoly, g: XPoly) -> InterlacingVerdict:
    """Decide whether f interlaces g through the stability of P = g(z^2) + z f(z^2).

    If P / z^m is strictly stable, with z^m the largest power of z dividing
    P, then f interlaces g, weakly iff z^2 divides P.  A shared root r < 0
    would put the roots +-i sqrt(-r) of P on the imaginary axis, so the only
    root f and g can share is 0, and f(0) = g(0) = 0 exactly when m >= 2.
    Boundary and degenerate cases fall back to the direct root-isolation
    test, so the two routes always agree.  Stability itself makes f and g
    real-rooted (Hermite-Biehler), so only the fallback checks that, and
    raises PreconditionError otherwise.
    """
    for name, p in (("f", f), ("g", g)):
        if _univariate(p, name).is_zero():
            raise StabilityInapplicableError(
                f"{name} is zero, so one split part vanishes identically"
            )
        if any(c.numerator < 0 for c in p.coeffs):  # cheaper than a Fraction comparison
            raise PreconditionError(f"{name} must have nonnegative coefficients")
    df, dg = f.degree, g.degree
    if df == 0 or dg == 0 or dg - df not in (0, 1):
        return interlaces(f, g)

    m, c = _interleave(g.coeffs, f.coeffs)
    # den**k * Delta_k has the sign of Delta_k; all() stops at the first
    # minor that is not positive, before any lift.
    if all(d > 0 for d in _routh_minors(_clear_denominators(c[::-1])[1])):
        return InterlacingVerdict(WEAK if m >= 2 else STRICT)
    return interlaces(f, g)
