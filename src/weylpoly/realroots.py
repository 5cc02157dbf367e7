"""Certified real-root counting, isolation, and interlacing over exact rationals.

Everything here is driven by Sturm chains with integer coefficients, built
on the integer kernel of ``exactpoly``: each public entry reduces its input
once to its canonical integer form ``_canonical``, and the chain of p is
``_prs(p, p')``, the kernel's one primitive polynomial remainder sequence
(Collins 1967, Brown 1971).  The pseudo-remainder scales by a positive power
of the divisor's leading coefficient, so sign variations are preserved.  Sign evaluations at
a rational point num/den run on the kernel's integer Horner ``_horner``,
with shifts in place of the powers of den at a dyadic point.  Root counts
use the half-open convention: the Sturm variation difference V(lo) - V(hi)
counts distinct roots in (lo, hi].

Isolation.  The Sturm chain of p ends in gcd(p, p'); when that is a
constant, p is its own square-free radical and that chain is the radical's
(a constant p has the radical 1 and no cell).  Otherwise Yun's algorithm,
seeded with that last chain member, runs on primitive integer tuples and
gives the radical p / gcd(p, p') and the square-free factors; its exact
quotients stay integral by Gauss's lemma, and the radical gets a chain of
its own.  The radical is bisected from the bracket (-2^b, 2^b], where 2^b is
at least the Cauchy bound 1 + max|a_i / a_n|.  Every cell is dyadic:
(i 2^w - 2^b, (i+1) 2^w - 2^b].  Full Sturm counts split the bracket, lower
half first, until each cell holds one root, so the cells come out in
ascending order, and decide each root's multiplicity (one count per Yun
factor); at a point beyond Fujiwara's root bound the count is read from the
leading coefficients of the chain.  The root profile of a polynomial
(radical, chain, cells) is cached in a bounded LRU keyed by the canonical
form, so a polynomial and its nonzero rational multiples share one entry; it
never changes once built, and real-rootedness is read from it.

Refinement is sign-only.  A cell holding one root of the square-free radical
holds a simple root, so the radical's sign at the midpoint, against its sign
at hi (kept with the cell), picks the half: the upper half when the radical
vanishes at hi, otherwise the lower half when the midpoint sign is 0 or
equals the sign at hi.  A root exactly at a midpoint thus goes to the lower
half, as in the half-open Sturm count, so every cell is the one a full Sturm
count would choose.  ``isolate_roots`` reports, for each root, the coarsest
cell of its bisection path that is at most ``width`` wide.  That path
depends only on the root, and each call refines fresh copies of the cached
cells, so the report depends only on the polynomial and the width.

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

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import PreconditionError, UsageError, WeylPolyError
from .exactpoly import QPoly, XPoly, _canonical, _derivative, _horner, _int_gcd, _positive_primitive, _prs
from .exactpoly import _rational
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


def _variations(signs: Sequence[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _var_at(chain, num: int, den: int) -> int:
    return _variations([_sign_at(m, num, den) for m in chain])


def _count_half_open(chain, lo: Fraction, hi: Fraction) -> int:
    return _var_at(chain, lo.numerator, lo.denominator) - _var_at(chain, hi.numerator, hi.denominator)


def _cauchy_pow2_bound(ints: Sequence[int]) -> int:
    """The least power of two b with b |a_n| >= |a_n| + max|a_i|.

    So b >= 1 + max|a_i / a_n|, the Cauchy bound, and b exceeds every root.
    """
    lead = abs(ints[-1])
    need = lead + max((abs(c) for c in ints[:-1]), default=0)
    return 1 << (-(-need // lead) - 1).bit_length()


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


def _square_free(ints: tuple[int, ...]):
    """Radical, Yun factors and the radical's Sturm chain of p, primitive
    with lc > 0.

    Returns (r, ((m, f_m), ...), chain) with p = prod f_m ** m and
    r = p / gcd(p, p'); r and every f_m are primitive with a positive leading
    coefficient.  The loop starts from gcd(p, p'), the last member of p's
    Sturm chain, which is also r's chain when p is square-free, and divides
    exactly over the integers: every divisor is primitive, so by Gauss's
    lemma each quotient over the rationals is an integer polynomial.
    """
    chain = _sturm_chain(ints)
    g = _positive_primitive(chain[-1])
    if len(g) == 1:
        return ints, ((1, ints),), chain
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
    return radical, tuple(factors), _sturm_chain(radical)


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
                 witness: Optional[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]] = None):
        self._setters[0](self, relation)
        self._setters[1](self, witness)

    @property
    def holds(self) -> bool:
        return self.relation in (STRICT, WEAK)


# ---------------------------------------------------------------------------
# Cached per-polynomial root profile
# ---------------------------------------------------------------------------


class _Rec(Record):
    """The cell (i 2^w - 2^b, (i+1) 2^w - 2^b] holding one root of the radical, whose
    sign at hi is s_hi; refined in place, so unlike the other records mutable and unhashable."""

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


class _Profile:
    """Radical, Sturm chain, and isolating cells of a nonzero ``_canonical`` form.

    A profile does not change after construction: ``records`` are the cells
    of the initial isolation, and every caller refines copies of them.
    """

    def __init__(self, ints: tuple[int, ...]):
        self.rad_ints, self.factors, self.chain = _square_free(ints)
        self.records: list[_Rec] = self._isolate()
        self._assign_multiplicities()
        # real-rooted: the real roots, counted with multiplicity, exhaust the degree
        self.real_rooted = sum(rec.mult for rec in self.records) == len(ints) - 1

    def _isolate(self) -> list[_Rec]:
        b = _cauchy_pow2_bound(self.rad_ints).bit_length() - 1
        f = _fujiwara_exp(self.rad_ints)
        leads = [((m[-1] > 0) - (m[-1] < 0), len(m) - 1) for m in self.chain]
        at_inf = [_variations([s * t**d for s, d in leads]) for t in (-1, 1)]

        def var(n: int, e: int) -> int:
            num, den = _dyadic(n, e, b)
            if abs(num) >= den << f:  # beyond every root: the count at -inf or +inf
                return at_inf[num > 0]
            return _var_at(self.chain, num, den)

        stack = [(0, b + 1, var(0, b + 1), var(1, b + 1))]
        out: list[_Rec] = []
        while stack:  # the lower half pops first, so cells come out ascending
            i, w, vl, vh = stack.pop()
            count = vl - vh
            if count == 1:
                out.append(_Rec(b, i, w, _sign_at(self.rad_ints, *_dyadic(i + 1, w, b))))
            elif count > 1:
                vm = var(2 * i + 1, w - 1)
                stack.append((2 * i + 1, w - 1, vm, vh))
                stack.append((2 * i, w - 1, vl, vm))
        return out

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
    if p.is_zero():
        raise UsageError("square_free of the zero polynomial")
    prof = _profile(_canonical(p))
    return XPoly(prof.rad_ints).monic(), prof.intervals(DEFAULT_WIDTH)


def count_roots_in(p: XPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact number of distinct real roots of square-free p in (lo, hi]."""
    if p.is_zero():
        raise UsageError("count_roots_in of the zero polynomial")
    chain = _sturm_chain(_canonical(p))
    if len(chain[-1]) > 1:  # the chain ends in gcd(p, p')
        raise UsageError("count_roots_in requires a square-free polynomial")
    lo, hi = _rational(lo, "lo"), _rational(hi, "hi")
    if not lo < hi:
        raise UsageError("count_roots_in requires lo < hi")
    return _count_half_open(chain, lo, hi)


def isolate_roots(p: XPoly, width: Fraction = DEFAULT_WIDTH) -> RootIsolation:
    """Disjoint rational isolating intervals for all distinct real roots.

    Each interval is the coarsest cell of its root's bisection path that is
    at most ``width`` wide (``width`` > 0), so the result depends only on p
    and ``width``.
    """
    if p.is_zero():
        raise UsageError("isolate_roots of the zero polynomial")
    width = _rational(width, "width")
    if width <= 0:
        raise UsageError("isolate_roots requires a positive width")
    return RootIsolation(_profile(_canonical(p)).intervals(width), int(p.degree))


def is_real_rooted(p: XPoly) -> bool:
    """True iff the real roots, counted with multiplicity, exhaust the degree."""
    if p.is_zero():
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
        if p.is_zero():
            raise PreconditionError(f"{name} must be nonzero")
        if p.leading <= 0:
            raise PreconditionError(f"{name} must have a positive leading coefficient")
    profiles = [_profile(_canonical(p)) for p in (g, f)]
    if not all(prof.real_rooted for prof in profiles):
        raise PreconditionError("interlaces requires real-rooted inputs")
    return _relation(*_merged_positions(profiles))


def mutually_interlacing(fs: Sequence[XPoly]) -> tuple[bool, Optional[tuple[int, int]]]:
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
        if p.is_zero():
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
