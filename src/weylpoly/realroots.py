"""Certified real-root counting, isolation, and interlacing over exact rationals.

Everything here is driven by Sturm chains with integer coefficients, built
on the integer kernel of ``exactpoly``: input polynomials are cleared of
denominators and made primitive, and each chain member is the primitive part
of minus a pseudo-remainder, a primitive polynomial remainder sequence
(Collins 1967, Brown 1978).  The pseudo-remainder scales by a positive power
of the divisor's leading coefficient, so sign variations are preserved.  Sign
evaluations at a rational point num/den run entirely in integer arithmetic.
Root counts use the half-open convention: the Sturm variation difference
V(lo) - V(hi) counts distinct roots in (lo, hi].

Isolating intervals start from a power-of-two bracket at least as large as
the Cauchy bound 1 + max|a_i / a_n|, so every bisection midpoint is dyadic
and stays cheap to evaluate.  Multiplicities come from a Yun square-free
decomposition, whose gcds run on the same primitive remainder sequence.
Each polynomial's root profile is cached in a bounded LRU, and
real-rootedness is read from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import PreconditionError, UsageError, WeylPolyError
from .exactpoly import X_ONE, XPoly, _int_coeffs, _prem, _primitive, exact_divide, poly_gcd

DEFAULT_WIDTH = Fraction(1, 2**30)


# ---------------------------------------------------------------------------
# Integer-level primitives
# ---------------------------------------------------------------------------


def _int_derivative(ints: Sequence[int]) -> tuple[int, ...]:
    return tuple(k * c for k, c in enumerate(ints) if k >= 1)


def _sign_at(ints: Sequence[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), integer arithmetic only."""
    if not ints:
        return 0
    acc = ints[-1]
    dp = 1
    for k in range(len(ints) - 2, -1, -1):
        dp *= den
        acc = acc * num + ints[k] * dp
    return (acc > 0) - (acc < 0)


@lru_cache(maxsize=4096)
def _sturm_chain(ints: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    chain = [ints, _int_derivative(ints)]
    while len(chain[-1]) >= 2:
        nxt = _primitive([-c for c in _prem(chain[-2], chain[-1])])
        if not nxt:
            break
        chain.append(nxt)
    if not chain[-1]:
        chain.pop()
    return tuple(chain)


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


def _var_at(chain, point: Fraction) -> int:
    num, den = point.numerator, point.denominator
    return _variations([_sign_at(m, num, den) for m in chain])


def _count_half_open(chain, lo: Fraction, hi: Fraction) -> int:
    return _var_at(chain, lo) - _var_at(chain, hi)


def _cauchy_pow2_bound(ints: Sequence[int]) -> int:
    """Power of two at least 1 + max|a_i/a_n|, so it exceeds every root."""
    lead = abs(ints[-1])
    top = max((abs(c) for c in ints[:-1]), default=0)
    bound = 1 + Fraction(top, lead)
    b = 1
    while b < bound:
        b *= 2
    return b


# ---------------------------------------------------------------------------
# Square-free decomposition (Yun) over the rationals
# ---------------------------------------------------------------------------


def _yun(p: XPoly) -> list[tuple[int, XPoly]]:
    """Monic square-free factors with multiplicities: p ~ prod f_m ** m."""
    g = _gcd_with_derivative(p)
    if g.degree == 0:
        return [(1, p.monic())]
    out: list[tuple[int, XPoly]] = []
    w = exact_divide(p, g)
    y = exact_divide(p.derivative(), g)
    z = y - w.derivative()
    m = 1
    while w.degree >= 1:
        if z.is_zero():
            out.append((m, w.monic()))
            break
        a = poly_gcd(w, z)
        if a.degree >= 1:
            out.append((m, a))
        w = exact_divide(w, a)
        y = exact_divide(z, a)
        z = y - w.derivative()
        m += 1
    return out


def _gcd_with_derivative(p: XPoly) -> XPoly:
    d = p.derivative()
    if d.is_zero():
        return X_ONE
    return poly_gcd(p, d)


def _radical(p: XPoly) -> XPoly:
    out = X_ONE
    for _, fac in _yun(p):
        out = out * fac
    return out


def is_square_free(p: XPoly) -> bool:
    if p.is_zero():
        return False
    if p.degree == 0:
        return True
    return _gcd_with_derivative(p).degree == 0


# ---------------------------------------------------------------------------
# Public result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootInterval:
    """Half-open isolating interval (lo, hi] holding one distinct real root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi), "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class RootIsolation:
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


@dataclass(frozen=True)
class InterlacingVerdict:
    """Outcome of an ordered interlacing test (first argument vs second)."""

    relation: str
    witness: Optional[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]] = None

    @property
    def holds(self) -> bool:
        return self.relation in (STRICT, WEAK)


# ---------------------------------------------------------------------------
# Cached per-polynomial root profile
# ---------------------------------------------------------------------------


@dataclass
class _Rec:
    lo: Fraction
    hi: Fraction
    v_lo: int
    v_hi: int
    mult: int = 1


class _Profile:
    """Radical, Sturm chain, and isolating records for one polynomial."""

    def __init__(self, p: XPoly):
        if p.is_zero():
            raise UsageError("the zero polynomial has no root profile")
        self.poly = p
        self.factors = _yun(p)
        self.radical = X_ONE
        for _, fac in self.factors:
            self.radical = self.radical * fac
        self.rad_ints = _int_coeffs(self.radical) if self.radical.degree >= 1 else ()
        self.chain = _sturm_chain(self.rad_ints) if self.rad_ints else ()
        self.records: list[_Rec] = self._isolate() if self.rad_ints else []
        self._assign_multiplicities()

    def _isolate(self) -> list[_Rec]:
        if len(self.rad_ints) - 1 < 1:
            return []
        bound = _cauchy_pow2_bound(self.rad_ints)
        lo, hi = Fraction(-bound), Fraction(bound)
        v_lo, v_hi = _var_at(self.chain, lo), _var_at(self.chain, hi)
        stack = [(lo, hi, v_lo, v_hi)]
        out: list[_Rec] = []
        while stack:
            lo, hi, vl, vh = stack.pop()
            count = vl - vh
            if count == 0:
                continue
            if count == 1:
                out.append(_Rec(lo, hi, vl, vh))
                continue
            mid = (lo + hi) / 2
            vm = _var_at(self.chain, mid)
            stack.append((lo, mid, vl, vm))
            stack.append((mid, hi, vm, vh))
        out.sort(key=lambda r: r.lo)
        return out

    def _assign_multiplicities(self) -> None:
        if len(self.factors) == 1 and self.factors[0][0] == 1:
            return
        factor_chains = []
        for mult, fac in self.factors:
            if fac.degree >= 1:
                factor_chains.append((mult, _sturm_chain(_int_coeffs(fac))))
        for rec in self.records:
            for mult, chain in factor_chains:
                if _count_half_open(chain, rec.lo, rec.hi) == 1:
                    rec.mult = mult
                    break

    def refine_once(self, rec: _Rec) -> None:
        mid = (rec.lo + rec.hi) / 2
        vm = _var_at(self.chain, mid)
        if rec.v_lo - vm == 1:
            rec.hi, rec.v_hi = mid, vm
        else:
            rec.lo, rec.v_lo = mid, vm

    def intervals(self, width: Fraction) -> tuple[RootInterval, ...]:
        """The records, each refined to at most ``width``."""
        for rec in self.records:
            while rec.hi - rec.lo > width:
                self.refine_once(rec)
        return tuple(RootInterval(rec.lo, rec.hi, rec.mult) for rec in self.records)

    @property
    def real_root_count(self) -> int:
        return sum(rec.mult for rec in self.records)


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
    prof = _profile(p)
    return prof.radical if prof.radical.degree >= 1 else X_ONE, prof.intervals(DEFAULT_WIDTH)


def count_roots_in(p: XPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact number of distinct real roots of square-free p in (lo, hi]."""
    if p.is_zero():
        raise UsageError("count_roots_in of the zero polynomial")
    if not is_square_free(p):
        raise UsageError("count_roots_in requires a square-free polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise UsageError("count_roots_in requires lo < hi")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(_int_coeffs(p))
    return _count_half_open(chain, lo, hi)


def isolate_roots(p: XPoly, width: Fraction = DEFAULT_WIDTH) -> RootIsolation:
    """Disjoint rational isolating intervals for all distinct real roots.

    Intervals are refined by bisection until each is at most ``width`` wide.
    """
    if p.is_zero():
        raise UsageError("isolate_roots of the zero polynomial")
    return RootIsolation(_profile(p).intervals(Fraction(width)), int(p.degree))


def is_real_rooted(p: XPoly) -> bool:
    """True iff the real roots, counted with multiplicity, exhaust the degree."""
    if p.is_zero():
        raise UsageError("is_real_rooted of the zero polynomial")
    if p.degree == 0:
        return True
    return _profile(p).real_root_count == p.degree


# ---------------------------------------------------------------------------
# Interlacing
# ---------------------------------------------------------------------------

_F_EVENT, _G_EVENT, _BOTH_EVENT = 0, 1, 2
_MAX_SEPARATION_BISECTIONS = 4000


def _merged_events(f: XPoly, g: XPoly):
    """Ascending merged root events for f and g with exact tie detection.

    Returns a list of (origin, rec_f, rec_g) triples in increasing root
    order, where origin says whether the root value belongs to f, to g, or
    to both.  Ties are decided by counting roots of gcd(radical_f,
    radical_g) inside interval overlaps; distinct roots are separated by
    bisection refinement of the cached records.
    """
    pf, pg = _profile(f), _profile(g)
    common = poly_gcd(pf.radical, pg.radical)
    common_chain = _sturm_chain(_int_coeffs(common)) if common.degree >= 1 else None
    events = []
    i = j = 0
    budget = _MAX_SEPARATION_BISECTIONS
    while i < len(pf.records) or j < len(pg.records):
        if i == len(pf.records):
            events.append((_G_EVENT, None, pg.records[j]))
            j += 1
            continue
        if j == len(pg.records):
            events.append((_F_EVENT, pf.records[i], None))
            i += 1
            continue
        rf, rg = pf.records[i], pg.records[j]
        if rf.hi <= rg.lo:
            events.append((_F_EVENT, rf, None))
            i += 1
        elif rg.hi <= rf.lo:
            events.append((_G_EVENT, None, rg))
            j += 1
        else:
            olo, ohi = max(rf.lo, rg.lo), min(rf.hi, rg.hi)
            if common_chain is not None and _count_half_open(common_chain, olo, ohi) == 1:
                events.append((_BOTH_EVENT, rf, rg))
                i += 1
                j += 1
                continue
            pf.refine_once(rf)
            pg.refine_once(rg)
            budget -= 1
            if budget <= 0:
                raise WeylPolyError("root separation did not converge within the bisection budget")
    return events


def _expand_positions(events, for_f: bool):
    """(event index, record) per root with multiplicity, ascending."""
    out = []
    for idx, (origin, rec_f, rec_g) in enumerate(events):
        rec = rec_f if for_f else rec_g
        if rec is not None:
            out.extend([(idx, rec)] * rec.mult)
    return out


def interlaces(g: XPoly, f: XPoly) -> InterlacingVerdict:
    """Decide whether g interlaces f (the roots of g sit below/between f's).

    Admissible degree patterns are deg f == deg g and deg f == deg g + 1;
    any other gap is incomparable.  Equalities anywhere in the alternation
    chain downgrade strict to weak.  A positive constant weakly interlaces
    any real-rooted polynomial of degree one; two constants are
    incomparable.
    """
    for name, p in (("g", g), ("f", f)):
        if p.is_zero():
            raise PreconditionError(f"{name} must be nonzero")
        if p.leading <= 0:
            raise PreconditionError(f"{name} must have a positive leading coefficient")
    if not is_real_rooted(g) or not is_real_rooted(f):
        raise PreconditionError("interlaces requires real-rooted inputs")
    dg, df = g.degree, f.degree
    if dg == 0 and df == 0:
        return InterlacingVerdict(INCOMPARABLE)
    if df - dg not in (0, 1):
        return InterlacingVerdict(INCOMPARABLE)
    if dg == 0:
        return InterlacingVerdict(WEAK)

    events = _merged_events(f, g)
    u = _expand_positions(events, for_f=True)
    v = _expand_positions(events, for_f=False)
    if len(u) != df or len(v) != dg:
        raise WeylPolyError("root multiplicities must exhaust the degrees")

    def check(pairs):
        strict = True
        for (ia, ra), (ib, rb) in pairs:
            if ia > ib:
                witness = ((ra.lo, ra.hi), (rb.lo, rb.hi))
                return NONE, witness
            if ia == ib:
                strict = False
        return (STRICT if strict else WEAK), None

    if df == dg:
        pairs = []
        for k in range(len(u)):
            pairs.append((v[k], u[k]))
            if k + 1 < len(v):
                pairs.append((u[k], v[k + 1]))
    else:
        pairs = []
        for k in range(len(v)):
            pairs.append((u[k], v[k]))
            pairs.append((v[k], u[k + 1]))
    relation, witness = check(pairs)
    return InterlacingVerdict(relation, witness)


def mutually_interlacing(fs: Sequence[XPoly]) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check f_i interlaces f_j for every i < j.

    Entries must be real-rooted with nonnegative coefficients, or positive
    constants.  Returns (True, None) or (False, first failing index pair).
    """
    if not fs:
        raise UsageError("mutually_interlacing of an empty sequence")
    for k, p in enumerate(fs):
        if p.is_zero():
            raise PreconditionError(f"entry {k} is the zero polynomial")
        if p.degree == 0:
            if p.leading <= 0:
                raise PreconditionError(f"entry {k} is a nonpositive constant")
            continue
        if any(c < 0 for c in p.coeffs):
            raise PreconditionError(f"entry {k} has negative coefficients")
        if not is_real_rooted(p):
            raise PreconditionError(f"entry {k} is not real-rooted")
    n = len(fs)
    for i in range(n):
        for j in range(i + 1, n):
            if not interlaces(fs[i], fs[j]).holds:
                return False, (i, j)
    return True, None
