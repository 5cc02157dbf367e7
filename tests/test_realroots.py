import math
import random
from fractions import Fraction

import pytest
import sympy as sp

from weylpoly import (
    PreconditionError,
    assemble,
    UsageError,
    WeylPolyError,
    XPoly,
    count_roots_in,
    interlaces,
    is_real_rooted,
    isolate_roots,
    mutually_interlacing,
    refined_K,
    refined_T1,
    square_free,
    xpoly,
)
from weylpoly import realroots
from weylpoly.exactpoly import _int_coeffs
from weylpoly.realroots import _cauchy_pow2_bound, _int_derivative, _radical, _sturm_chain, _yun
from weylpoly.tables import K4_TABLE, K4_ROOTS

X = sp.symbols("x")


def to_sympy(p: XPoly) -> sp.Poly:
    return sp.Poly(sum(sp.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(p.coeffs)), X)


def sympy_relation(g: XPoly, f: XPoly) -> str:
    """Independent interlacing oracle: exact algebraic roots via sympy."""
    rg = to_sympy(g).real_roots()
    rf = to_sympy(f).real_roots()

    def cmp(a, b):
        if a < b:
            return -1
        if b < a:
            return 1
        return 0

    df, dg = len(rf), len(rg)
    if df == dg:
        chain = []
        for k in range(df):
            chain.append(cmp(rg[k], rf[k]))
            if k + 1 < dg:
                chain.append(cmp(rf[k], rg[k + 1]))
    elif df == dg + 1:
        chain = []
        for k in range(dg):
            chain.append(cmp(rf[k], rg[k]))
            chain.append(cmp(rg[k], rf[k + 1]))
    else:
        return "incomparable"
    if any(c > 0 for c in chain):
        return "none"
    return "strict" if all(c < 0 for c in chain) else "weak"


class TestSquareFree:
    def test_squared_factor(self):
        radical, intervals = square_free(xpoly(1, 1) * xpoly(1, 1))
        assert radical == xpoly(1, 1)
        assert [r.multiplicity for r in intervals] == [2]

    def test_already_square_free(self):
        radical, intervals = square_free(xpoly(2, 3, 1))
        assert radical == xpoly(2, 3, 1)
        assert [r.multiplicity for r in intervals] == [1, 1]

    def test_coupled_entry_has_distinct_roots(self):
        p = xpoly(0, 2, 32, 50, 12)
        radical, intervals = square_free(p)
        assert radical == p.monic()
        assert all(r.multiplicity == 1 for r in intervals)

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            square_free(XPoly())


class TestCountRoots:
    def test_one_root_right_of_zero(self):
        assert count_roots_in(xpoly(-2, 0, 1), 0, 2) == 1

    def test_no_real_roots(self):
        assert count_roots_in(xpoly(1, 0, 1), -10, 10) == 0

    def test_both_roots(self):
        assert count_roots_in(xpoly(-2, 0, 1), -2, 2) == 2

    def test_half_open_boundary(self):
        p = xpoly(0, 1)
        assert count_roots_in(p, -1, 0) == 1
        assert count_roots_in(p, 0, 1) == 0

    def test_requires_square_free(self):
        with pytest.raises(UsageError):
            count_roots_in(xpoly(1, 2, 1), -5, 5)

    def test_requires_ordered_bounds(self):
        with pytest.raises(UsageError):
            count_roots_in(xpoly(-2, 0, 1), 2, 0)


class TestIsolateRoots:
    def test_coupled_entry_roots(self):
        iso = isolate_roots(K4_TABLE[0], Fraction(1, 10**6))
        mids = [float((r.lo + r.hi) / 2) for r in iso.intervals]
        for mid, printed in zip(mids, K4_ROOTS[0]):
            assert abs(mid - printed) <= 5e-4 * max(1.0, abs(printed))

    def test_origin_root(self):
        iso = isolate_roots(xpoly(0, 1))
        assert len(iso.intervals) == 1
        rec = iso.intervals[0]
        assert rec.lo < 0 <= rec.hi and rec.multiplicity == 1

    def test_multiplicities(self):
        p = xpoly(1, 1) * xpoly(1, 1) * xpoly(2, 1)
        iso = isolate_roots(p)
        assert [r.multiplicity for r in iso.intervals] == [1, 2]
        assert iso.real_root_count == 3 == iso.degree_covered

    def test_width_is_respected(self):
        width = Fraction(1, 10**9)
        iso = isolate_roots(xpoly(-2, 0, 1), width)
        assert all(r.hi - r.lo <= width for r in iso.intervals)

    def test_json(self):
        blob = isolate_roots(xpoly(-1, 0, 1)).to_json()
        assert blob["degree_covered"] == 2
        assert all(isinstance(r["lo"], str) for r in blob["intervals"])

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            isolate_roots(XPoly())


class TestIsRealRooted:
    def test_complex_pair(self):
        assert not is_real_rooted(xpoly(1, 0, 1))

    def test_coupled_entry(self):
        assert is_real_rooted(K4_TABLE[5])

    def test_product_of_linears(self):
        assert is_real_rooted(xpoly(1, 1) * xpoly(1, 2))

    def test_repeated_roots_count_with_multiplicity(self):
        assert is_real_rooted(xpoly(1, 1) ** 3)

    def test_mixed(self):
        assert not is_real_rooted(xpoly(1, 1) * xpoly(1, 0, 1))

    def test_constant(self):
        assert is_real_rooted(xpoly(3))

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            is_real_rooted(XPoly())

    def test_matches_yun_full_line_count_and_sympy(self):
        rng = random.Random(99)
        cases = [assemble("tildeD", n) for n in range(3, 12)]
        cases += [K4_TABLE[5] * xpoly(1, 0, 1), xpoly(1, 1) ** 2 * xpoly(2, -1, 3), xpoly(-1, 0, 0, 0, 1)]
        for _ in range(60):
            p = xpoly(Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)):
                root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                p = p * xpoly(-root, 1) ** rng.randint(1, 3)
            if rng.random() < 0.4:
                p = p * xpoly(rng.randint(1, 5), rng.randint(-2, 2), 1)
            cases.append(p)
        real_rooted = 0
        for p in cases:
            got = is_real_rooted(p)
            assert got == yun_full_line_real_rooted(p), str(p)
            assert got == (len(to_sympy(p).real_roots()) == p.degree), str(p)
            real_rooted += got
        assert 0 < real_rooted < len(cases)

    def test_profile_cache_is_bounded_lru(self):
        cache = realroots._profile
        cache.cache_clear()
        limit = cache.cache_info().maxsize
        assert limit == 4096
        keep = xpoly(1, 1)
        for k in range(limit + 100):
            is_real_rooted(xpoly(k, 1))
            if k % 1000 == 0:
                is_real_rooted(keep)
        assert cache.cache_info().currsize <= limit
        hits = cache.cache_info().hits
        is_real_rooted(keep)
        assert cache.cache_info().hits == hits + 1


class TestSturmChain:
    def test_bit_identical_to_fraction_remainder_reference(self):
        rng = random.Random(11)
        inputs = [assemble("tildeD", n) for n in range(3, 16)]
        inputs += list(refined_K(6, "direct").polys) + list(refined_T1(6))
        for _ in range(80):
            inputs.append(xpoly(*[rng.randint(-30, 30) for _ in range(rng.randint(2, 9))]))
        for p in inputs:
            if p.degree < 1:
                continue
            ints = _int_coeffs(p)
            assert _sturm_chain(ints) == fraction_sturm_chain(ints), str(p)


def _primitive_ref(ints):
    while ints and ints[-1] == 0:
        ints.pop()
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def fraction_sturm_chain(ints):
    """Reference Sturm chain: -rem over Fraction, then primitive integer form."""
    chain = [tuple(ints), _int_derivative(ints)]
    while len(chain[-1]) >= 2:
        f, g = chain[-2], chain[-1]
        rem = [Fraction(c) for c in f]
        while len(rem) >= len(g):
            t = rem[-1] / g[-1]
            shift = len(rem) - len(g)
            for k, c in enumerate(g):
                rem[shift + k] -= t * c
            rem.pop()
        den = math.lcm(*(c.denominator for c in rem))
        nxt = _primitive_ref([int(-c * den) for c in rem])
        if not nxt:
            break
        chain.append(nxt)
    if not chain[-1]:
        chain.pop()
    return tuple(chain)


def yun_full_line_real_rooted(p: XPoly) -> bool:
    """Reference: Yun factors, each counted on the whole line by its Sturm chain."""
    if p.degree == 0:
        return True
    total = 0
    for mult, fac in _yun(p):
        if fac.degree >= 1:
            chain = fraction_sturm_chain(_int_coeffs(fac))
            total += mult * (sign_changes_at_infinity(chain, -1) - sign_changes_at_infinity(chain, 1))
    return total == p.degree


def sign_changes_at_infinity(chain, direction: int) -> int:
    signs = []
    for m in chain:
        s = (m[-1] > 0) - (m[-1] < 0)
        signs.append(s * direction ** (len(m) - 1))
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


class TestInterlaces:
    def test_strict(self):
        v = interlaces(xpoly(2, 1), xpoly(3, 4, 1))
        assert v.relation == "strict" and v.holds

    def test_equal_polynomials_weak(self):
        assert interlaces(xpoly(1, 1), xpoly(1, 1)).relation == "weak"

    def test_shared_root_weak(self):
        assert interlaces(xpoly(1, 1), xpoly(2, 3, 1)).relation == "weak"

    def test_wrong_order_none_with_witness(self):
        v = interlaces(xpoly(1, 1), xpoly(2, 1))
        assert v.relation == "none"
        assert v.witness is not None

    def test_degree_gap_incomparable(self):
        assert interlaces(xpoly(1, 1), xpoly(6, 11, 6, 1)).relation == "incomparable"
        assert interlaces(xpoly(6, 11, 6, 1), xpoly(1, 1)).relation == "incomparable"

    def test_constant_vs_linear(self):
        assert interlaces(xpoly(2), xpoly(1, 1)).relation == "weak"
        assert interlaces(xpoly(1, 1), xpoly(2)).relation == "incomparable"

    def test_two_constants_incomparable(self):
        assert interlaces(xpoly(2), xpoly(3)).relation == "incomparable"

    def test_repeated_root_ties(self):
        sq = xpoly(1, 1) * xpoly(1, 1)
        assert interlaces(sq, sq).relation == "weak"

    def test_non_real_rooted_rejected(self):
        with pytest.raises(PreconditionError):
            interlaces(xpoly(1, 0, 1), xpoly(1, 1))

    def test_negative_lead_rejected(self):
        with pytest.raises(PreconditionError):
            interlaces(xpoly(1, -1), xpoly(1, 1))

    def test_x_multiple_is_strict_when_coprime(self):
        # g has the largest root at 0, f strictly between g's roots
        assert interlaces(xpoly(1, 1), xpoly(0, 3, 1)).relation == "strict"

    def test_exhausted_separation_budget_is_typed(self, monkeypatch):
        monkeypatch.setattr(realroots, "_MAX_SEPARATION_BISECTIONS", 1)
        root = Fraction(7, 3)
        with pytest.raises(WeylPolyError):
            interlaces(xpoly(-root, 1), xpoly(-root - Fraction(1, 10**12), 1))


class TestMutuallyInterlacing:
    def test_coupled_rank4(self):
        ok, failure = mutually_interlacing(list(K4_TABLE))
        assert ok and failure is None

    def test_wrong_order(self):
        ok, failure = mutually_interlacing([xpoly(1, 1), xpoly(2, 1)])
        assert not ok and failure == (0, 1)

    def test_right_order(self):
        ok, failure = mutually_interlacing([xpoly(2, 1), xpoly(1, 1)])
        assert ok

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mutually_interlacing([])

    def test_negative_coeff_rejected(self):
        with pytest.raises(PreconditionError):
            mutually_interlacing([xpoly(-1, 1), xpoly(1, 1)])


class TestInvariants:
    def test_full_bracket_count_matches_interval_count(self):
        for p in K4_TABLE:
            radical = _radical(p)
            bound = Fraction(_cauchy_pow2_bound(_int_coeffs(radical)))
            iso = isolate_roots(p)
            assert count_roots_in(radical, -bound, bound) == len(iso.intervals)

    def test_sign_change_across_each_interval(self):
        for p in (K4_TABLE[0], K4_TABLE[3], xpoly(-2, 0, 1), xpoly(0, 1) * xpoly(1, 1)):
            radical = _radical(p)
            for rec in isolate_roots(p).intervals:
                s_lo = radical.evaluate(rec.lo)
                s_hi = radical.evaluate(rec.hi)
                assert s_lo * s_hi <= 0
                assert count_roots_in(radical, rec.lo, rec.hi) == 1

    def test_nonnegative_family_roots_are_nonpositive(self):
        for fam in (refined_T1(5), refined_K(5, "direct").polys):
            for p in fam:
                radical = _radical(p)
                bound = Fraction(_cauchy_pow2_bound(_int_coeffs(radical)))
                assert count_roots_in(radical, 0, bound) == 0

    def test_partial_sums_of_mutually_interlacing_family(self):
        fam = refined_K(4, "direct").polys
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                total = XPoly()
                for k in range(i, j + 1):
                    total = total + fam[k]
                assert is_real_rooted(total)
                assert interlaces(fam[i], total).holds
                assert interlaces(total, fam[j]).holds

    def test_fuzz_agreement_with_sympy_oracle(self):
        rng = random.Random(2468)
        pool = [Fraction(n, d) for n in range(-6, 1) for d in (1, 2, 3)]

        def random_real_rooted(max_deg):
            p = xpoly(Fraction(rng.randint(1, 3)))
            for _ in range(rng.randint(1, max_deg)):
                r = rng.choice(pool)
                p = p * xpoly(-r, 1)
            return p

        for _ in range(200):
            f = random_real_rooted(4)
            g = random_real_rooted(4)
            assert interlaces(g, f).relation == sympy_relation(g, f), (str(g), str(f))

    def test_agreement_with_sympy_oracle(self):
        pairs = []
        fam_k = refined_K(4, "direct").polys
        fam_t = refined_T1(4)
        for i in range(8):
            for j in range(i + 1, 8):
                pairs.append((fam_k[i], fam_k[j]))
                pairs.append((fam_t[i], fam_t[j]))
        pairs.append((xpoly(1, 1), xpoly(2, 1)))
        pairs.append((xpoly(2, 1), xpoly(1, 1)))
        pairs.append((xpoly(1, 1) * xpoly(1, 1), xpoly(1, 1) * xpoly(2, 1)))
        for g, f in pairs:
            assert interlaces(g, f).relation == sympy_relation(g, f)

    def test_multiplicities_on_random_factor_products(self):
        rng = random.Random(777)
        for _ in range(20):
            p = xpoly(1)
            expected: dict[Fraction, int] = {}
            for _ in range(rng.randint(1, 3)):
                root = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                mult = rng.randint(1, 3)
                p = p * xpoly(-root, 1) ** mult
                expected[root] = expected.get(root, 0) + mult
            if rng.random() < 0.5:
                p = p * xpoly(1, 0, 1)  # complex pair, no real roots
            iso = isolate_roots(p)
            got = {}
            for rec in iso.intervals:
                matching = [r for r in expected if rec.lo < r <= rec.hi]
                assert len(matching) == 1, (rec, expected)
                got[matching[0]] = rec.multiplicity
            assert got == expected

    def test_sympy_real_root_counts_match(self):
        rng = random.Random(42)
        for _ in range(25):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))]
            p = xpoly(*coeffs)
            if p.is_zero() or p.degree < 1:
                continue
            mine = isolate_roots(p).real_root_count
            theirs = sp.Poly(sum(c * X**k for k, c in enumerate(coeffs)), X).real_roots()
            assert mine == len(theirs)
            assert is_real_rooted(p) == (len(theirs) == p.degree)
