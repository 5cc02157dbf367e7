"""Certified real-root counting, isolation, and interlacing over exact rationals.

Everything here runs on the integer kernel of ``exactpoly``: each public
entry reduces its input once to its canonical integer form ``_canonical``.
Root counts use the half-open convention: a variation difference
V(lo) - V(hi) counts distinct roots in (lo, hi].  Sturm chains have integer
coefficients: the chain of p is ``_prs(p, p')``, the kernel's one primitive
polynomial remainder sequence (Collins 1967, Brown 1971), whose
pseudo-remainders scale by a positive power of the divisor's leading
coefficient, so sign variations are preserved.  Sign evaluations at a
rational point num/den run on the kernel's integer Horner ``_horner``, with
shifts in place of the powers of den at a dyadic point.

Square-free part.  Euclid's algorithm modulo the prime l = 2^61 - 1 first
computes gcd(p, p') mod l.  When l divides neither leading coefficient, its
degree is at least that of the gcd over the rationals (Brown 1971), so a
constant proves p square-free: p is its own radical, with no remainder
sequence.  Otherwise gcd(p, p') is the last member of p's Sturm chain; if
it is not a constant, Yun's algorithm, seeded with it, runs on primitive
integer tuples and gives the radical p / gcd(p, p') and the square-free
factors, its exact quotients integral by Gauss's lemma.  A constant p has
the radical 1 and no cell.

Isolation counts sign variations of Taylor coefficients (Budan-Fourier).
The radical is bisected from the bracket (-2^f, 2^f], where 2^f is above
Fujiwara's root bound, so by Gauss-Lucas every real root of every
derivative lies inside it too: the count is d at -2^f and 0 at 2^f.  Every
cell is dyadic, (i 2^w - 2^f, (i+1) 2^w - 2^f], and every cell whose count
is at least two is split, lower half first, so the cells come out in
ascending order.  At a bisection point num/2^e one Horner pass of
2^(e d) p((num + u) / 2^e) at u = 2^W, W whole bytes above the bound
sum |c_k| (2^e + |num|)^d on every coefficient, packs all d + 1 scaled
Taylor coefficients, read back by ``exactpoly._digits`` as balanced
base-2^W digits.  V(lo) - V(hi) is at least
the number of roots in (lo, hi], counted with multiplicity, and has the
same parity.  The excess is never negative and adds up over the real line,
where the count is d; so for a real-rooted radical it is zero everywhere,
every count is exact, and the cells are those full Sturm counts give.  If
the radical is not real-rooted, each cell whose count exceeds its roots has
a child that does too, and such a path never ends; so at each point the
Taylor coefficients are tested for what a real-rooted square-free radical
must satisfy: Newton's inequalities, no two adjacent zeros, and that a cell
whose count is at least two holds two roots, which fails once the
coefficients at its midpoint keep p, or p', from vanishing on it.  A
failure proves the radical not real-rooted, and every path that would not
end reaches one, since p or p' is nonzero at its limit.  Isolation then
restarts on Sturm counts, and only then builds the radical's chain, whose
counts at the bracket's ends are read from its leading coefficients.  Each
root's multiplicity is one Sturm count per Yun factor.  The root profile of
a polynomial (radical, factors, cells) is cached in a bounded LRU keyed by
the canonical form, so a polynomial and its nonzero rational multiples
share one entry; it never changes once built, and real-rootedness is read
from it.

Refinement is sign-only.  A cell holding one root of the square-free radical
holds a simple root, so the radical's sign at the midpoint, against its sign
at hi (kept with the cell), picks the half: the upper half when the radical
vanishes at hi, otherwise the lower half when the midpoint sign is 0 or
equals the sign at hi.  A root exactly at a midpoint thus goes to the lower
half, as in the half-open Sturm count, so every cell is the one a full Sturm
count would choose.  ``isolate_roots`` reports, for each root, the coarsest
cell of its bisection path that is at most ``width`` wide.  Each call
refines fresh copies of the cached cells, so the report depends only on the
polynomial and the width.

Interlacing.  ``interlaces`` and ``mutually_interlacing`` share one merged
sweep.  The initial cells of every member are copied, sorted, and only
neighbours whose cells overlap are worked on: the wider cell is halved until
both are equally wide; then the gcd of the two radicals, computed once per
pair of members and only for a pair whose cells still overlap, decides with
one Sturm count on the overlap whether they hold the same root; distinct
roots are halved until their cells part.  The result is the ascending order
of all distinct roots, with exact ties.  Each relation is read off it by
one pairwise test of the alternation chain (Fisk, *Polynomials, roots, and
interlacing*, arXiv:math/0612833); ``mutually_interlacing`` runs that test
on the pairs (i, j) in order and stops at the first that fails.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError, UsageError, WeylPolyError
from .exactpoly import QPoly, XPoly, _canonical, _derivative, _digits, _horner, _int_gcd, _prs
from .exactpoly import _rational, _univariate
from .record import Record

DEFAULT_WIDTH = Fraction(1, 2**30)


# ---------------------------------------------------------------------------
# Integer-level primitives
# ---------------------------------------------------------------------------


def _sign_at(ints: Sequence[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), by the integer ``_horner``."""
    v = _horner(ints, num, den)
    return (v > 0) - (v < 0)


def _dyadic(n: int, e: int, b: int) -> tuple[int, int]:
    """(num, den) of the grid point n 2^e - 2^b, den a power of two."""
    if e >= 0:
        return (n << e) - (1 << b), 1
    return n - (1 << (b - e)), 1 << -e


def _floor_log2(width: Fraction) -> int:
    """The largest e with 2^e <= width (width > 0)."""
    e = width.numerator.bit_length() - width.denominator.bit_length()  # 2^(e-1) < width < 2^(e+1)
    return e if Fraction(2) ** e <= width else e - 1


def _sturm_chain(ints: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return _prs(ints, _derivative(ints))


def _variations(values: Sequence[int]) -> int:
    """Sign variations of a sequence of integers, zeros skipped."""
    out = 0
    prev = 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                out += 1
            prev = v
    return out


def _var_at(chain, num: int, den: int) -> int:
    return _variations([_sign_at(m, num, den) for m in chain])


def _count_half_open(chain, lo: Fraction, hi: Fraction) -> int:
    return _var_at(chain, lo.numerator, lo.denominator) - _var_at(chain, hi.numerator, hi.denominator)


def _fujiwara_exp(ints: Sequence[int]) -> int:
    """An f >= 1 with every root |z| < 2^f.

    Fujiwara's bound |z| < 2 max_k |a_(d-k) / a_d|^(1/k) gives it once
    |a_(d-k)| <= |a_d| 2^((f-1) k) for every k.
    """
    d = len(ints) - 1
    lead = abs(ints[-1])
    e = 0
    for k in range(1, d + 1):
        while abs(ints[d - k]) > lead << (e * k):
            e += 1
    return e + 1


# ---------------------------------------------------------------------------
# Square-free decomposition (Yun) over the integers
# ---------------------------------------------------------------------------

_ELL = (1 << 61) - 1  # a Mersenne prime


def _coprime_mod_ell(f: Sequence[int], g: Sequence[int]) -> bool:
    """True only if gcd(f, g) over the rationals is a constant (f, g nonzero).

    Euclid's algorithm over GF(l), l = 2^61 - 1.  When l divides neither
    leading coefficient, deg gcd(f mod l, g mod l) >= deg gcd(f, g) (Brown
    1971), so a constant gcd mod l proves it; otherwise the answer is False.
    """
    if f[-1] % _ELL == 0 or g[-1] % _ELL == 0:
        return False
    a, b = [c % _ELL for c in f], [c % _ELL for c in g]
    while len(b) > 1:
        inv = pow(b[-1], -1, _ELL)
        low = [c * inv % _ELL for c in b[:-1]]  # b made monic, top term dropped
        while len(a) >= len(b):
            t = a.pop()
            if t:
                off = len(a) - len(low)
                a[off:] = [(x - t * y) % _ELL for x, y in zip(a[off:], low)]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(b) == 1


def _yun(ints: tuple[int, ...], g: tuple[int, ...]):
    """Radical and Yun factors of p from g = gcd(p, p'), nonconstant, primitive with lc > 0.

    Returns (r, ((m, f_m), ...)) with p = prod f_m ** m and r = p / g, each
    primitive with a positive leading coefficient.  Every divisor is
    primitive, so by Gauss's lemma each exact quotient over the rationals is
    an integer polynomial.
    """
    g = QPoly(g)
    w = QPoly(ints).exact_div(g)
    radical = w.coeffs
    z = QPoly(_derivative(ints)).exact_div(g) - QPoly(_derivative(radical))
    factors = []
    m = 1
    while w.degree >= 1:
        if z.is_zero():
            factors.append((m, w.coeffs))
            break
        a = QPoly(_int_gcd(w.coeffs, z.coeffs))
        if a.degree >= 1:
            factors.append((m, a.coeffs))
        w = w.exact_div(a)
        z = z.exact_div(a) - QPoly(_derivative(w.coeffs))
        m += 1
    return radical, tuple(factors)


def _square_free(ints: tuple[int, ...]):
    """Radical and Yun factors (r, ((m, f_m), ...)) of p, primitive with lc > 0.

    A constant gcd(p, p') mod l proves p square-free without a remainder
    sequence; otherwise gcd(p, p') comes from p's Sturm chain and, when it
    is not a constant, seeds ``_yun``.
    """
    deriv = _derivative(ints)
    if len(ints) <= 2 or _coprime_mod_ell(ints, deriv):
        return ints, ((1, ints),)
    g = _int_gcd(ints, deriv)
    return (ints, ((1, ints),)) if len(g) == 1 else _yun(ints, g)


# ---------------------------------------------------------------------------
# Budan-Fourier counts from one packed Taylor expansion
# ---------------------------------------------------------------------------


class _NotRealRooted(Exception):
    """A Taylor expansion proved the square-free radical not real-rooted."""


def _taylor(ints: Sequence[int], num: int, e: int) -> list[int]:
    """The coefficients b_k of 2^(e d) p((num + u) / 2^e) = sum b_k u^k, degree d >= 1.

    b_k = 2^(e (d - k)) p^(k)(x) / k! at x = num / 2^e: the Taylor
    coefficients at x, all scaled by the same power of two as Newton's
    inequalities need.  Every |b_k| is at most B = sum |c_j| (2^e + |num|)^d,
    so with W whole bytes and 2^(W-1) > B, one Horner pass on
    sum c_j 2^(e (d - j)) (num + u)^j at u = 2^W packs them all, and the
    d + 1 balanced base-2^W digits of the result are the b_k.
    """
    d = len(ints) - 1
    bound = sum(map(abs, ints)) * ((1 << e) + abs(num)) ** d
    nb = (bound.bit_length() + 8) >> 3  # bytes per digit: 2^(8 nb - 1) > bound
    w = nb << 3
    acc = ints[-1]
    for s in range(1, d + 1):
        acc = acc * num + (acc << w) + (ints[d - s] << e * s)
    return _digits(acc, nb, d + 1)


def _newton_holds(b: Sequence[int]) -> bool:
    """Newton's inequalities k (d-k) b_k^2 >= (k+1) (d-k+1) b_(k-1) b_(k+1), and no two
    adjacent zeros: both hold for the Taylor coefficients of a real-rooted
    square-free polynomial at every point (a common scale changes neither).
    """
    d = len(b) - 1
    for k in range(1, d):
        if k * (d - k) * b[k] * b[k] < (k + 1) * (d - k + 1) * b[k - 1] * b[k + 1]:
            return False
    return all(b[k] or b[k + 1] for k in range(d))


def _at_most_one_root(b: Sequence[int], s: int) -> bool:
    """Whether the scaled Taylor coefficients b (degree >= 2) at a cell's midpoint prove at
    most one root in it.

    With the cell's half-width r, b_k 2^(s k) is a common multiple of
    a_k r^k, a_k the unscaled coefficients.  |a_0| > sum_(k>=1) |a_k| r^k
    leaves p no zero on the closed cell; |a_1| > sum_(k>=2) k |a_k| r^(k-1)
    leaves p' none, so p is monotone there.
    """
    a0, a1 = abs(b[0]), abs(b[1])
    if a0 > a1 << s and a0 > sum(abs(c) << s * k for k, c in enumerate(b) if k):
        return True
    return a1 > abs(b[2]) << s + 1 and a1 > sum(k * abs(c) << s * (k - 1) for k, c in enumerate(b) if k > 1)


# ---------------------------------------------------------------------------
# Public result types
# ---------------------------------------------------------------------------


class RootInterval(Record):
    """Half-open isolating interval (lo, hi] holding one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi), "multiplicity": self.multiplicity}


class RootIsolation(Record):
    """Certified disjoint isolating intervals for all distinct real roots."""

    intervals: tuple[RootInterval, ...]
    degree_covered: int

    @property
    def real_root_count(self) -> int:
        """Number of real roots counted with multiplicity."""
        return sum(r.multiplicity for r in self.intervals)

    def to_json(self) -> dict:
        return {
            "degree_covered": self.degree_covered,
            "intervals": [r.to_json() for r in self.intervals],
        }


STRICT = "strict"
WEAK = "weak"
NONE = "none"
INCOMPARABLE = "incomparable"


class InterlacingVerdict(Record):
    """Outcome of an ordered interlacing test (first argument vs second)."""

    __slots__ = ("relation", "witness")

    def __init__(self, relation: str,
                 witness: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None = None):
        self._setters[0](self, relation)
        self._setters[1](self, witness)

    @property
    def holds(self) -> bool:
        return self.relation in (STRICT, WEAK)


# ---------------------------------------------------------------------------
# Cached per-polynomial root profile
# ---------------------------------------------------------------------------


class _Rec(Record):
    """The cell (i 2^w - 2^b, (i+1) 2^w - 2^b] of the bracket (-2^b, 2^b] holding one root of the
    radical, whose sign at hi is s_hi; refined in place, so unlike the other records mutable."""

    __slots__ = ("b", "i", "w", "s_hi", "mult")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, b: int, i: int, w: int, s_hi: int, mult: int = 1):
        self.b, self.i, self.w, self.s_hi, self.mult = b, i, w, s_hi, mult

    def copy(self) -> "_Rec":
        return _Rec(self.b, self.i, self.w, self.s_hi, self.mult)

    def end(self, upper: int) -> tuple[int, int]:
        """(num, den) of the low (upper=0) or high (upper=1) end."""
        return _dyadic(self.i + upper, self.w, self.b)

    @property
    def lo(self) -> Fraction:
        return Fraction(*self.end(0))

    @property
    def hi(self) -> Fraction:
        return Fraction(*self.end(1))


def _bisect(rad: tuple[int, ...], outside, at) -> list[_Rec]:
    """Cells of the square-free ``rad`` from the bracket (-2^f, 2^f], lower half first.

    Every root lies in |z| < 2^f, f from ``_fujiwara_exp``.  ``outside``
    holds the (count, sign) pairs at -2^f and 2^f, and at(num, den, e) the
    pair at the midpoint num/den of a cell of half-width 2^e: a variation
    count whose differences count the distinct roots in (lo, hi], and the
    sign of ``rad``.  Every cell whose count is at least two is split at its
    midpoint.
    """
    f = _fujiwara_exp(rad)
    stack = [(0, f + 1, *outside)]
    out: list[_Rec] = []
    while stack:  # the lower half pops first, so cells come out ascending
        i, w, low, high = stack.pop()
        count = low[0] - high[0]
        if count == 1:
            out.append(_Rec(f, i, w, high[1]))
        elif count > 1:
            mid = at(*_dyadic(2 * i + 1, w - 1, f), w - 1)
            stack.append((2 * i + 1, w - 1, mid, high))
            stack.append((2 * i, w - 1, low, mid))
    return out


def _isolate(rad: tuple[int, ...]) -> list[_Rec]:
    """Cells of the square-free ``rad`` (lc > 0) by Budan-Fourier counts, or by
    ``_sturm_cells`` once a Taylor expansion proves ``rad`` not real-rooted.

    At -2^f the count is d and the sign (-1)^d; at 2^f, 0 and 1.
    """
    d = len(rad) - 1
    if d < 1:
        return []

    def budan_fourier(num: int, den: int, e: int) -> tuple[int, int]:
        c = _taylor(rad, num, den.bit_length() - 1)
        if not _newton_holds(c) or _at_most_one_root(c, max(e, 0)):
            raise _NotRealRooted
        return _variations(c), (c[0] > 0) - (c[0] < 0)

    try:
        return _bisect(rad, ((d, (-1) ** d), (0, 1)), budan_fourier)
    except _NotRealRooted:
        return _sturm_cells(rad)


def _sturm_cells(rad: tuple[int, ...]) -> list[_Rec]:
    """Cells of the square-free ``rad`` by Sturm counts, from its chain built here; at the
    bracket's ends they are the counts at -inf and inf, read from the leading coefficients."""
    chain = _sturm_chain(rad)
    leads = [((m[-1] > 0) - (m[-1] < 0), len(m) - 1) for m in chain]
    outside = tuple((_variations([s * t**k for s, k in leads]), t ** (len(rad) - 1)) for t in (-1, 1))

    def sturm(num: int, den: int, _: int) -> tuple[int, int]:
        signs = [_sign_at(m, num, den) for m in chain]
        return _variations(signs), signs[0]

    return _bisect(rad, outside, sturm)


class _Profile:
    """Radical, Yun factors and isolating cells of a nonzero ``_canonical`` form.

    A profile does not change after construction: ``records`` are the cells
    of the initial isolation, and every caller refines copies of them.
    """

    def __init__(self, ints: tuple[int, ...]):
        self.rad_ints, self.factors = _square_free(ints)
        self.records: list[_Rec] = _isolate(self.rad_ints)
        self._assign_multiplicities()
        # real-rooted: the real roots, counted with multiplicity, exhaust the degree
        self.real_rooted = sum(rec.mult for rec in self.records) == len(ints) - 1

    def _assign_multiplicities(self) -> None:
        if len(self.factors) == 1 and self.factors[0][0] == 1:
            return
        factor_chains = [(mult, _sturm_chain(fac)) for mult, fac in self.factors]
        for rec in self.records:
            for mult, chain in factor_chains:
                if _var_at(chain, *rec.end(0)) - _var_at(chain, *rec.end(1)) == 1:
                    rec.mult = mult
                    break

    def refine_once(self, rec: _Rec) -> None:
        """Halve rec's cell, keeping the half that holds its root (sign-only)."""
        n, w = 2 * rec.i, rec.w - 1
        if rec.s_hi:
            s = _sign_at(self.rad_ints, *_dyadic(n + 1, w, rec.b))
            if s == 0 or s == rec.s_hi:  # no sign change on (mid, hi]
                rec.i, rec.w, rec.s_hi = n, w, s
                return
        rec.i, rec.w = n + 1, w

    def intervals(self, width: Fraction) -> tuple[RootInterval, ...]:
        """For each root, the coarsest cell of its bisection path at most ``width`` wide."""
        top = _floor_log2(width)
        out = []
        for rec in self.records:
            cell = rec.copy()
            while cell.w > top:
                self.refine_once(cell)
            out.append(RootInterval(cell.lo, cell.hi, rec.mult))
        return tuple(out)


_profile = lru_cache(maxsize=4096)(_Profile)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def square_free(p: XPoly) -> tuple[XPoly, tuple[RootInterval, ...]]:
    """Monic radical of p plus isolating intervals tagged with multiplicities.

    The interval list covers the real roots only; complex conjugate pairs do
    not appear.
    """
    if _univariate(p, "p").is_zero():
        raise UsageError("square_free of the zero polynomial")
    prof = _profile(_canonical(p))
    return XPoly(prof.rad_ints).monic(), prof.intervals(DEFAULT_WIDTH)


def count_roots_in(p: XPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact number of distinct real roots of square-free p in (lo, hi]."""
    if _univariate(p, "p").is_zero():
        raise UsageError("count_roots_in of the zero polynomial")
    lo, hi = _rational(lo, "lo"), _rational(hi, "hi")
    if not lo < hi:
        raise UsageError("count_roots_in requires lo < hi")
    chain = _sturm_chain(_canonical(p))
    if len(chain[-1]) > 1:  # the chain ends in gcd(p, p')
        raise UsageError("count_roots_in requires a square-free polynomial")
    return _count_half_open(chain, lo, hi)


def isolate_roots(p: XPoly, width: Fraction = DEFAULT_WIDTH) -> RootIsolation:
    """Disjoint rational isolating intervals for all distinct real roots.

    Each interval is the coarsest cell of its root's bisection path that is
    at most ``width`` wide (``width`` > 0), so the result depends only on p
    and ``width``.
    """
    if _univariate(p, "p").is_zero():
        raise UsageError("isolate_roots of the zero polynomial")
    width = _rational(width, "width")
    if width <= 0:
        raise UsageError("isolate_roots requires a positive width")
    return RootIsolation(_profile(_canonical(p)).intervals(width), int(p.degree))


def is_real_rooted(p: XPoly) -> bool:
    """True iff the real roots, counted with multiplicity, exhaust the degree."""
    if _univariate(p, "p").is_zero():
        raise UsageError("is_real_rooted of the zero polynomial")
    return _profile(_canonical(p)).real_rooted


# ---------------------------------------------------------------------------
# Interlacing: one merged sweep over the roots of every member
# ---------------------------------------------------------------------------

_MAX_SEPARATION_BISECTIONS = 4000  # halvings of one cell in one sweep before it gives up


def _below(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """p < q for grid points given as (num, den)."""
    return p[0] * q[1] < q[0] * p[1]


def _merged_positions(profiles: Sequence[_Profile]) -> list[list[tuple[int, _Rec]]]:
    """Per member profile, (position in the merged root order, cell) for each root.

    Roots are listed with multiplicity and ascending; equal positions mean
    the same root.  The sweep works on copies of the cached initial cells.
    A group [owner, cell, members, start] is one distinct root: ``cell``,
    held by member ``owner`` and refined from level ``start``, is the one
    compared with the neighbours.  ``order`` stays sorted by the low ends of
    the cells, and every group left of index k lies wholly left of all the
    groups after it.
    """
    order = []
    for owner, prof in enumerate(profiles):
        for rec in prof.records:
            cell = rec.copy()
            order.append([owner, cell, [(owner, cell)], cell.w])
    order.sort(key=lambda group: group[1].lo)
    common: dict[tuple[int, int], tuple] = {}
    k = 0
    while k + 1 < len(order):
        a, b = order[k], order[k + 1]
        ca, cb = a[1], b[1]
        if not _below(cb.end(0), ca.end(1)):
            k += 1
            continue
        if ca.w == cb.w and _same_root(profiles, common, a[0], ca, b[0], cb):
            a[2].extend(b[2])
            del order[k + 1]
            continue
        wide = max(ca.w, cb.w)
        del order[k : k + 2]
        for group in (a, b):
            cell = group[1]
            if cell.w == wide:
                profiles[group[0]].refine_once(cell)
                if group[3] - cell.w >= _MAX_SEPARATION_BISECTIONS:
                    raise WeylPolyError("root separation did not converge within the bisection budget")
            j, lo = k, cell.end(0)
            while j < len(order) and _below(order[j][1].end(0), lo):
                j += 1
            order.insert(j, group)
    positions: list[list[tuple[int, _Rec]]] = [[] for _ in profiles]
    for idx, (_, _, members, _) in enumerate(order):
        for owner, cell in members:
            positions[owner].extend([(idx, cell)] * cell.mult)
    return positions


def _same_root(profiles, common, x: int, cx: _Rec, y: int, cy: _Rec) -> bool:
    """Whether equally wide, overlapping cells of members x and y hold the same root.

    A radical that vanishes at the cells' common upper end has its root
    there, so then the cells share their root iff both radicals vanish.
    Otherwise the gcd of the two radicals, computed once per pair of
    members, decides: a root of it in the overlap is the one root of each
    cell.
    """
    if (cx.s_hi == 0 or cy.s_hi == 0) and cx.hi == cy.hi:
        return cx.s_hi == cy.s_hi
    key = (min(x, y), max(x, y))
    if key not in common:
        g = _int_gcd(profiles[x].rad_ints, profiles[y].rad_ints)
        common[key] = _sturm_chain(g) if len(g) >= 2 else ()
    chain = common[key]
    return bool(chain) and _count_half_open(chain, max(cx.lo, cy.lo), min(cx.hi, cy.hi)) == 1


def _relation(v, u) -> InterlacingVerdict:
    """Whether g interlaces f, from the merged positions v of g's roots and u of f's."""
    dg, df = len(v), len(u)
    if (dg == 0 and df == 0) or df - dg not in (0, 1):
        return InterlacingVerdict(INCOMPARABLE)
    if dg == 0:
        return InterlacingVerdict(WEAK)
    chain = [u[0]] if df > dg else []
    for k in range(dg):
        chain += [v[k], u[k + df - dg]]
    strict = True
    for (ia, ra), (ib, rb) in zip(chain, chain[1:]):
        if ia > ib:
            return InterlacingVerdict(NONE, ((ra.lo, ra.hi), (rb.lo, rb.hi)))
        strict = strict and ia < ib
    return InterlacingVerdict(STRICT if strict else WEAK)


def interlaces(g: XPoly, f: XPoly) -> InterlacingVerdict:
    """Decide whether g interlaces f (the roots of g sit below/between f's).

    Admissible degree patterns are deg f == deg g and deg f == deg g + 1;
    any other gap is incomparable.  Equalities anywhere in the alternation
    chain downgrade strict to weak.  A positive constant weakly interlaces
    any real-rooted polynomial of degree one; two constants are
    incomparable.

    This is the two-member case of the merged sweep: the roots of g and f
    are put in one order by sign-only halving of copies of their cells (a
    root exactly at a midpoint stays in the lower half).  gcd(radical g,
    radical f) is computed only if two equally wide cells still overlap and
    neither radical vanishes at their common upper end.  A ``none`` witness
    holds the cells of the first two roots out of order.
    """
    for name, p in (("g", g), ("f", f)):
        if _univariate(p, name).is_zero():
            raise PreconditionError(f"{name} must be nonzero")
        if p.leading <= 0:
            raise PreconditionError(f"{name} must have a positive leading coefficient")
    profiles = [_profile(_canonical(p)) for p in (g, f)]
    if not all(prof.real_rooted for prof in profiles):
        raise PreconditionError("interlaces requires real-rooted inputs")
    return _relation(*_merged_positions(profiles))


def mutually_interlacing(fs: Sequence[XPoly]) -> tuple[bool, tuple[int, int] | None]:
    """Check f_i interlaces f_j for every i < j.

    Entries must be real-rooted with nonnegative coefficients, or positive
    constants.  Returns (True, None) or (False, first failing index pair).

    One merged sweep orders the roots of all entries, halving only cells
    that overlap a neighbour's and computing the gcd of two entries'
    radicals only for a pair whose equally wide cells still overlap (see
    ``interlaces``).  The pairs (i, j) are then tested in order on those
    positions, each by the alternation chain that ``interlaces`` reads, and
    the first that fails is returned.
    """
    if not fs:
        raise UsageError("mutually_interlacing of an empty sequence")
    profiles = []
    for k, p in enumerate(fs):
        if _univariate(p, f"entry {k}").is_zero():
            raise PreconditionError(f"entry {k} is the zero polynomial")
        if p.degree == 0 and p.leading <= 0:
            raise PreconditionError(f"entry {k} is a nonpositive constant")
        if any(c < 0 for c in p.coeffs):
            raise PreconditionError(f"entry {k} has negative coefficients")
        profiles.append(_profile(_canonical(p)))
        if not profiles[-1].real_rooted:
            raise PreconditionError(f"entry {k} is not real-rooted")
    positions = _merged_positions(profiles)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not _relation(positions[i], positions[j]).holds:
                return False, (i, j)
    return True, None
