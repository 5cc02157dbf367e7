"""Certified real-root counting, isolation, and interlacing over exact rationals.

Everything here runs on the integer kernel of ``exactpoly``: each public
entry reduces its input once to its canonical integer form ``_canonical``.
Root counts use the half-open convention: a variation difference
V(lo) - V(hi) counts distinct roots in (lo, hi].  Sign evaluations at a
rational point num/den run on the kernel's integer Horner ``_horner``, with
shifts in place of the powers of den at a dyadic point.

Square-free part.  Every gcd here is the kernel's ``_int_gcd``, which
returns the gcd with its cofactors, the quotients its trial division proved
it by.  Yun's algorithm runs on those cofactors, from gcd(p, p'), with no
division of its own, and gives the radical p / gcd(p, p') and the
square-free factors, integral by Gauss's lemma.  A constant gcd(p, p'),
proved by one packed integer gcd with no trial division, makes p its own
radical.  A constant p has the radical 1 and no cell.

Isolation counts sign variations of Taylor coefficients (Budan-Fourier).
The radical is bisected from (-2^f, 0] and (0, 2^f], where 2^f is above
Fujiwara's root bound, so by Gauss-Lucas every real root of every derivative
lies inside too: the count is d at -2^f and 0 at 2^f.  Every cell of every
polynomial is (i 2^w, (i+1) 2^w] on one dyadic grid, so any two are nested
or disjoint; cells are split lower half first, so they come out in
ascending order.  At each bisection point one packed Horner pass
(``_taylor``) gives all d + 1 scaled Taylor coefficients.
V(lo) - V(hi) is at least the number of roots in (lo, hi], counted with
multiplicity, and has the same parity.  The excess is never negative and
adds up over the real line, where the count is d; so for a real-rooted
radical it is zero everywhere and every count is exact.  A cell whose count
is at least two is split at its midpoint, unless the Taylor coefficients
there keep p, or p', from vanishing on it (``_at_most_one_root``): such a
cell holds at most one root, so the parity of its count decides, one root if
odd and none if even, as for a cell whose count is 0 or 1.  Every path of
splits ends, since p or p' is nonzero at its limit.  Where the radical is
not real-rooted a cell may end below the one full Sturm counts give, so each
cell then climbs to its coarsest ancestor of width at most 2^f that holds
neither adjacent cell.  An ancestor holds another root iff it holds that
root's cell: the climb ends at the coarsest ancestor holding one root, the
cell full Sturm counts give, and no Sturm chain is built.  Whether a cell
holds the root of a square-free polynomial with at most one root there is
read from signs at its ends (``_holds_root``), and a root's multiplicity is
that of the one coprime Yun factor that holds it.
The root profile of a polynomial (radical, factors, cells) is cached in a
bounded LRU keyed by the canonical form, so a polynomial and its nonzero
rational multiples share one entry; it never changes once built, and
real-rootedness is read from it.

Refinement is sign-only.  A cell holding one root of the square-free radical
holds a simple root, so the radical's sign at the midpoint, against its sign
at hi (kept with the cell), picks the half: the upper half when the radical
vanishes at hi, otherwise the lower half when the midpoint sign is 0 or
equals the sign at hi.  A root exactly at a midpoint thus goes to the lower
half, as in the half-open Sturm count, so every cell is the one a full Sturm
count would choose.  ``isolate_roots`` reports, for each root, the coarsest
cell of its bisection path that is at most ``width`` wide; a root alone in
its bracket is reported as its half-bracket at widths of 2^(f+1) or more.
Each call refines fresh copies of the cached cells, so the report depends
only on the polynomial and the width.

Interlacing.  ``interlaces`` runs one merged sweep, which walks the dyadic
tree over copies of the initial cells of every member.  A cell wider than
another it overlaps contains it and is halved until the two are identical.
Then ``_holds_root`` on the gcd of the two radicals, computed once per pair
of members, decides whether they hold the same root; distinct roots are
halved until their cells part, with no budget on the halvings.  The result
is the ascending order of all distinct roots, with exact ties.  Each
relation is read off it by one pairwise test of the alternation chain
(Fisk, *Polynomials, roots, and interlacing*, arXiv:math/0612833).

``mutually_interlacing`` first tries to prove a True verdict from m pair
decisions (``_pair_relation``), with no root isolation.  Let N_f(t) count
the roots of f in [t, oo) with multiplicity.  For real-rooted f and g, not
both constant, f interlaces g iff 0 <= N_g(t) - N_f(t) <= 1 for every real
t: with the roots in descending order, padded with -oo, that is
r_(g,k) >= r_(f,k) >= r_(g,k+1), the alternation chain with its degree rule.

* Chain lemma.  f_0, ..., f_(m-1) are mutually interlacing iff f_i
  interlaces f_(i+1) for every i and f_0 interlaces f_(m-1).  With
  D_ij = N_(f_j) - N_(f_i), each D_(i,i+1) >= 0, so for i < j, D_ij is a sum
  of them and D_ij >= 0, and D_ij <= D_0i + D_ij + D_(j,m-1) = D_(0,m-1) <= 1.
  Degrees do not fall along the chain, so two constant entries would leave
  two constant neighbours, a pair that fails.
* Pair lemma.  If every Hurwitz minor of (g(z^2) + z f(z^2)) / z^m is
  positive, f interlaces g and both are real-rooted (Hermite-Biehler; the
  kernel's ``_routh_pair``), weakly iff m >= 2.  A shared root r != 0 puts
  +-i sqrt(-r) on the imaginary axis, so such a pair is decided through
  h = gcd(f, g) and its cofactors, weakly.  h must be real-rooted: linear,
  or h' interlaces h by the same test.  Then f = h a interlaces g = h b iff
  a interlaces b, since h adds N_h to both counts and keeps their
  difference.  Two constant cofactors hold, and so do a constant and a
  linear one.  ``stability.interlace_via_stability`` makes the same pair
  decision.

Every entry then belongs to a proven pair, so it is real-rooted, and the
sweep would return (True, None) too.  Everything else goes to the sweep,
which reads the pairs (i, j) in order and stops at the first that fails: a
pair the lemmas leave open, an entry that fails a check, a single entry,
and a family whose largest Hurwitz minor may exceed B = 2048 bits by the
bound (2d + 1) b, d the largest degree and b the largest coefficient bit
length of the canonical forms.  So the verdict, the failing pair and every
error do not depend on the route.  B comes from the chain's time against
the sweep's, cold, on one 2 vCPU host (CPython 3.11):

    (2d + 1) b     306-1276   1500-1782   2175-2368   2937-3034   3780-4060   4655-4704   7029
    chain/sweep    0.18-0.40  0.28-0.35   0.38-0.98   0.58-0.65   0.84-2.45   1.10-1.20   4.96

over refined_T1 and refined_K at 8-24, refined_Tq at q = 5/7 at 8-16, and
planted families of wide rational roots, which give the high ratios.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import PreconditionError, UsageError, WeylPolyError
from .exactpoly import QPoly, XPoly, _canonical, _derivative, _digit_bytes, _digits, _horner, _int_gcd
from .exactpoly import _rational, _routh_pair, _univariate
from .record import Record

DEFAULT_WIDTH = Fraction(1, 2**30)


# ---------------------------------------------------------------------------
# Integer-level primitives
# ---------------------------------------------------------------------------


def _sign_at(ints: Sequence[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), by the integer ``_horner``."""
    v = _horner(ints, num, den)
    return (v > 0) - (v < 0)


def _dyadic(n: int, e: int) -> tuple[int, int]:
    """(num, den) of the grid point n 2^e, den a power of two."""
    return (n << e, 1) if e >= 0 else (n, 1 << -e)


def _floor_log2(width: Fraction) -> int:
    """The largest e with 2^e <= width (width > 0)."""
    e = width.numerator.bit_length() - width.denominator.bit_length()  # 2^(e-1) < width < 2^(e+1)
    return e if Fraction(2) ** e <= width else e - 1


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


def _holds_root(f: Sequence[int], df: Sequence[int], lo: tuple[int, int], hi: tuple[int, int]) -> bool:
    """Whether the square-free f, with at most one root in (lo, hi] ((num, den) pairs), has one.

    A root at lo is simple, so just above lo f has the sign of df = f'(lo).
    """
    s_hi = _sign_at(f, *hi)
    return s_hi == 0 or (_sign_at(f, *lo) or _sign_at(df, *lo)) * s_hi < 0


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
    """Radical and Yun factors (r, ((m, f_m), ...)) of p, primitive with lc > 0.

    Yun's algorithm on the cofactors of each ``_int_gcd``: with g = gcd(p, p'),
    w = p / g is the radical r and z = p' / g - w'; then each step takes
    (a, w / a, z / a) = gcd(w, z), keeps a as f_m if it is nonconstant, and
    sets z = z / a - (w / a)'.  Every gcd is primitive, so by Gauss's lemma
    each cofactor is an integer polynomial, and none needs a division of its
    own.  A constant gcd(p, p') leaves z = 0, so p is its own radical.
    """
    _, w, z = _int_gcd(ints, _derivative(ints))
    radical, factors, m = w, [], 1
    while len(w) > 1:
        z = (QPoly._trusted(z) - QPoly(_derivative(w))).coeffs
        if not z:
            factors.append((m, w))
            break
        a, w, z = _int_gcd(w, z)
        if len(a) > 1:
            factors.append((m, a))
        m += 1
    return radical, tuple(factors)


# ---------------------------------------------------------------------------
# Budan-Fourier counts from one packed Taylor expansion
# ---------------------------------------------------------------------------


def _taylor(ints: Sequence[int], num: int, e: int) -> list[int]:
    """The coefficients b_k of 2^(e d) p((num + u) / 2^e) = sum b_k u^k, degree d >= 1.

    b_k = 2^(e (d - k)) p^(k)(x) / k! at x = num / 2^e: the Taylor
    coefficients at x, each scaled by a power of two.  Every |b_k| is at
    most B = sum |c_j| (2^e + |num|)^d, so with W whole bytes, at least 64
    (the width ``_digits`` reads as signed words), and 2^(W-1) > B, one
    Horner pass on sum c_j 2^(e (d - j)) (num + u)^j at u = 2^W packs them
    all, and the d + 1 balanced base-2^W digits of the result are the b_k.
    """
    d = len(ints) - 1
    bound = sum(map(abs, ints)) * ((1 << e) + abs(num)) ** d
    nb = max(8, _digit_bytes(bound))
    w = nb << 3
    acc = ints[-1]
    for s in range(1, d + 1):
        acc = acc * num + (acc << w) + (ints[d - s] << e * s)
    return _digits(acc, nb, d + 1)


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
    """The dyadic cell (i 2^w, (i+1) 2^w] holding one root of the radical, whose sign at hi is
    s_hi; refined in place, so unlike the other records mutable."""

    __slots__ = ("i", "w", "s_hi", "mult")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, i: int, w: int, s_hi: int, mult: int = 1):
        self.i, self.w, self.s_hi, self.mult = i, w, s_hi, mult

    def copy(self) -> "_Rec":
        return _Rec(self.i, self.w, self.s_hi, self.mult)

    def end(self, upper: int) -> tuple[int, int]:
        """(num, den) of the low (upper=0) or high (upper=1) end."""
        return _dyadic(self.i + upper, self.w)

    @property
    def lo(self) -> Fraction:
        return Fraction(*self.end(0))

    @property
    def hi(self) -> Fraction:
        return Fraction(*self.end(1))


def _isolate(rad: tuple[int, ...]) -> list[_Rec]:
    """Cells of the square-free ``rad`` (lc > 0) from (-2^f, 0] and (0, 2^f], ascending.

    Every root lies in |z| < 2^f, f from ``_fujiwara_exp``.  A stack entry
    holds a cell's variation counts at lo and hi and the sign of ``rad`` at
    hi: d at -2^f, the coefficients' at 0, 0 and the sign 1 at 2^f.  A cell
    whose count is at least two is split at its midpoint unless the Taylor
    coefficients there prove at most one root in it; then, as everywhere
    else, an odd count means one root.  Each cell then climbs to its
    coarsest ancestor up to level f that holds neither adjacent cell.
    """
    d = len(rad) - 1
    f = _fujiwara_exp(rad)
    v_0 = _variations(rad)
    stack = [(0, f, v_0, 0, 1), (-1, f, d, v_0, (rad[0] > 0) - (rad[0] < 0))]
    cells: list[_Rec] = []
    while stack:  # the lower half pops first, so cells come out ascending
        i, w, v_lo, v_hi, s_hi = stack.pop()
        count = v_lo - v_hi
        if count > 1:
            num, den = _dyadic(2 * i + 1, w - 1)
            c = _taylor(rad, num, den.bit_length() - 1)
            if not _at_most_one_root(c, max(w - 1, 0)):
                v_mid = _variations(c)
                stack.append((2 * i + 1, w - 1, v_mid, v_hi, s_hi))
                stack.append((2 * i, w - 1, v_lo, v_mid, (c[0] > 0) - (c[0] < 0)))
                continue
        if count % 2:
            cells.append(_Rec(i, w, s_hi))
    for k, rec in enumerate(cells):
        near = [(n.i, n.w) for n in cells[max(k - 1, 0) : k + 2] if n is not rec]
        i, w = rec.i, rec.w
        # the parent (i >> 1, w + 1) holds the cell (j, v) iff v <= w + 1 and j >> (w + 1 - v) == i >> 1
        while w < f and not any(v <= w + 1 and j >> (w + 1 - v) == i >> 1 for j, v in near):
            i, w = i >> 1, w + 1
        if w != rec.w:
            rec.i, rec.w, rec.s_hi = i, w, _sign_at(rad, *_dyadic(i + 1, w))
    return cells


class _Profile:
    """Radical, Yun factors and isolating cells of a nonzero ``_canonical`` form.

    A profile does not change after construction: ``records`` are the cells
    of the initial isolation, and every caller refines copies of them.
    """

    def __init__(self, ints: tuple[int, ...]):
        self.rad_ints, self.factors = _square_free(ints)
        self.records: list[_Rec] = _isolate(self.rad_ints)
        if self.factors != ((1, self.rad_ints),):  # a cell's root is a root of exactly one coprime Yun factor
            factors = [(mult, fac, _derivative(fac)) for mult, fac in self.factors]
            for rec in self.records:
                lo, hi = rec.end(0), rec.end(1)
                rec.mult = next(mult for mult, fac, dfac in factors if _holds_root(fac, dfac, lo, hi))
        # real-rooted: the real roots, counted with multiplicity, exhaust the degree
        self.real_rooted = sum(rec.mult for rec in self.records) == len(ints) - 1

    def refine_once(self, rec: _Rec) -> None:
        """Halve rec's cell, keeping the half that holds its root (sign-only)."""
        n, w = 2 * rec.i, rec.w - 1
        if rec.s_hi:
            s = _sign_at(self.rad_ints, *_dyadic(n + 1, w))
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
    """Exact number of distinct real roots of square-free p in (lo, hi], one
    ``_holds_root`` per cached cell that overlaps it."""
    if _univariate(p, "p").is_zero():
        raise UsageError("count_roots_in of the zero polynomial")
    lo, hi = _rational(lo, "lo"), _rational(hi, "hi")
    if not lo < hi:
        raise UsageError("count_roots_in requires lo < hi")
    ints = _canonical(p)
    prof = _profile(ints)
    if prof.rad_ints != ints:
        raise UsageError("count_roots_in requires a square-free polynomial")
    deriv = _derivative(ints)
    count = 0
    for rec in prof.records:
        a, b = max(lo, rec.lo), min(hi, rec.hi)
        if a < b:
            count += _holds_root(ints, deriv, (a.numerator, a.denominator), (b.numerator, b.denominator))
    return count


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
# Interlacing: one merged sweep over the roots of every member, and a chain of Routh pairs
# ---------------------------------------------------------------------------

def _merged_positions(profiles: Sequence[_Profile]) -> list[list[tuple[int, _Rec]]]:
    """Per member profile, (position in the merged root order, cell) for each root.

    Roots are listed with multiplicity and ascending; equal positions mean
    the same root.  The sweep works on copies of the cached initial cells.
    A group [owner, cell, members] is one distinct root: ``cell``, held by
    member ``owner``, is the one compared with the others.  The sweep walks
    the dyadic tree, lower child first, each node with the groups whose
    cells it contains: one group is finished; if every cell equals the node,
    neighbours sharing a root merge (a pair once shown to hold two roots is
    not tested again); else the cells equal to the node are halved and the
    groups go down.

    The walk ends, with no budget on the halvings.  Sign-only halving keeps
    two cells of one root identical, and ``_same_root`` merges them once
    they are neighbours in a node.  Two distinct roots part once the node is
    narrower than their distance.  So below the width of every initial cell
    and the least distance between distinct roots, each node holds the
    groups of one root, all in cells equal to it, and they merge into one.
    """
    groups = []
    for owner, prof in enumerate(profiles):
        for rec in prof.records:
            cell = rec.copy()
            groups.append([owner, cell, [(owner, cell)]])
    top = max((group[1].w for group in groups), default=0)
    nodes: dict[int, list] = {}
    for group in groups:
        nodes.setdefault(group[1].i >> (top - group[1].w), []).append(group)
    stack = [(top, nodes[n]) for n in sorted(nodes, reverse=True)]
    common: dict[tuple[int, int], tuple] = {}
    distinct: set[tuple[int, int]] = set()  # ids of neighbouring groups shown to hold two roots
    order = []
    while stack:
        w, node = stack.pop()
        if len(node) > 1 and all(group[1].w == w for group in node):
            merged = node[:1]
            for b in node[1:]:
                a = merged[-1]
                pair = (id(a), id(b))
                if pair not in distinct and _same_root(profiles, common, a[0], a[1], b[0], b[1]):
                    a[2].extend(b[2])
                else:
                    distinct.add(pair)
                    merged.append(b)
            node = merged
        if len(node) == 1:
            order.append(node[0])
            continue
        halves: tuple[list, list] = ([], [])
        for group in node:
            cell = group[1]
            if cell.w == w:
                profiles[group[0]].refine_once(cell)
            halves[cell.i >> (w - 1 - cell.w) & 1].append(group)
        stack += [(w - 1, half) for half in reversed(halves) if half]
    positions: list[list[tuple[int, _Rec]]] = [[] for _ in profiles]
    for idx, (_, _, members) in enumerate(order):
        for owner, cell in members:
            positions[owner].extend([(idx, cell)] * cell.mult)
    return positions


def _same_root(profiles, common, x: int, cx: _Rec, y: int, cy: _Rec) -> bool:
    """Whether the identical cells cx of member x and cy of member y hold the same root.

    A radical that vanishes at the cells' upper end has its root there, so
    then the roots are one iff both vanish.  Otherwise the gcd g of the two
    radicals (with g', once per pair of members) divides both, so it holds
    the cell's one root iff that root is common.
    """
    if cx.s_hi == 0 or cy.s_hi == 0:
        return cx.s_hi == cy.s_hi
    key = (min(x, y), max(x, y))
    if key not in common:  # a constant g holds no root
        g = _int_gcd(profiles[x].rad_ints, profiles[y].rad_ints)[0]
        common[key] = g, _derivative(g)
    return _holds_root(*common[key], cx.end(0), cx.end(1))


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
    radical f) is computed only if two cells are identical and neither
    radical vanishes at their upper end.  A ``none`` witness holds the cells
    of the first two roots out of order.
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


_MAX_CHAIN_BITS = 2048  # B: above (2d + 1) b bits the merged sweep is the faster route


def _pair_relation(f: tuple[int, ...], g: tuple[int, ...]) -> str | None:
    """STRICT or WEAK when Routh arrays prove that f interlaces g, both real-rooted; None
    leaves it open.

    f and g are ``_canonical`` forms with nonnegative coefficients, g not a
    constant.  Stability of g(z^2) + z f(z^2) over its largest power z^m
    proves it (``_routh_pair``), weakly iff m >= 2.  A shared root r != 0
    puts +-i sqrt(-r) on the imaginary axis, so a pair with one is decided
    by h = gcd(f, g) and its cofactors, weakly: h must be real-rooted, as it
    is when linear or when ``_routh_pair`` proves that h' interlaces h; then
    the pair holds iff its cofactors do.  Two constant cofactors hold, and so
    do a constant and a linear one.
    """
    m, stable = _routh_pair(f, g)
    if stable:
        return WEAK if m >= 2 else STRICT
    h, f, g = _int_gcd(f, g)
    if len(h) == 1 or len(h) > 2 and not _routh_pair(_derivative(h), h)[1]:
        return None
    return WEAK if (len(g) <= 2 if len(f) == 1 else _routh_pair(f, g)[1]) else None


def _chain_holds(ints: Sequence[tuple[int, ...]]) -> bool:
    """Whether the chain lemma proves the ``_canonical`` forms ints (two or more, nonnegative
    coefficients) mutually interlacing and real-rooted; False leaves it to the merged sweep.

    The pairs are (i, i + 1) for every i, then (0, m - 1), each by
    ``_pair_relation``; a constant never interlaces a constant.  Families whose
    largest Hurwitz minor may have more than ``_MAX_CHAIN_BITS`` bits, by
    the bound (2d + 1) b with d the largest degree and b the largest
    coefficient bit length, are left to the sweep unread.
    """
    d = max(map(len, ints)) - 1
    b = max(c.bit_length() for p in ints for c in p)
    if (2 * d + 1) * b > _MAX_CHAIN_BITS:
        return False
    pairs = [*zip(ints, ints[1:]), (ints[0], ints[-1])]
    return all(len(g) > 1 and _pair_relation(f, g) for f, g in pairs)


def _entry(k: int, p) -> tuple[int, ...]:
    """The ``_canonical`` form of entry k of ``mutually_interlacing``, after the checks that
    need no roots."""
    if _univariate(p, f"entry {k}").is_zero():
        raise PreconditionError(f"entry {k} is the zero polynomial")
    if p.degree == 0 and p.leading <= 0:
        raise PreconditionError(f"entry {k} is a nonpositive constant")
    if any(c.numerator < 0 for c in p.coeffs):  # cheaper than a Fraction comparison
        raise PreconditionError(f"entry {k} has negative coefficients")
    return _canonical(p)


def mutually_interlacing(fs: Sequence[XPoly]) -> tuple[bool, tuple[int, int] | None]:
    """Check f_i interlaces f_j for every i < j.

    Entries must be real-rooted with nonnegative coefficients, or positive
    constants.  Returns (True, None) or (False, first failing index pair).

    A True verdict comes from m pair decisions when they prove it
    (``_chain_holds``; the module docstring gives both lemmas).  Anything
    else, a single entry, or an entry that fails a check goes to one merged
    sweep that orders the roots of all entries (see ``interlaces``).  The
    pairs (i, j) are then tested in order on those positions, each by the
    alternation chain that ``interlaces`` reads, and the first that fails
    is returned; an entry that is not real-rooted raises there.
    """
    if not isinstance(fs, Sequence) or not fs:
        raise UsageError(f"fs must be a nonempty sequence of polynomials, got {fs!r:.60}")
    try:
        ints = [_entry(k, p) for k, p in enumerate(fs)]
    except WeylPolyError:  # raised again below, in entry order with real-rootedness
        ints = None
    else:
        if len(ints) > 1 and _chain_holds(ints):
            return True, None
    profiles = []
    for k, p in enumerate(fs):
        profiles.append(_profile(ints[k] if ints else _entry(k, p)))
        if not profiles[-1].real_rooted:
            raise PreconditionError(f"entry {k} is not real-rooted")
    positions = _merged_positions(profiles)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if not _relation(positions[i], positions[j]).holds:
                return False, (i, j)
    return True, None
