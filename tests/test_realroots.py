import json
import math
import random
from fractions import Fraction

import pytest
import sympy as sp

from weylpoly import (
    PreconditionError,
    RootInterval,
    assemble,
    UsageError,
    WeylPolyError,
    QXPoly,
    XPoly,
    count_roots_in,
    interlaces,
    is_real_rooted,
    isolate_roots,
    mutually_interlacing,
    poly_gcd,
    qxpoly,
    refined_K,
    refined_T1,
    refined_Tq,
    square_free,
    xpoly,
)
from weylpoly import exactpoly, realroots
from weylpoly.exactpoly import X_ONE, _canonical, _derivative, exact_divide
from weylpoly.realroots import _fujiwara_exp, _square_free, _sturm_chain
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

    def test_constant(self):
        assert square_free(xpoly(3)) == (X_ONE, ())
        assert square_free(xpoly(Fraction(-2, 7))) == (X_ONE, ())


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

    @pytest.mark.parametrize("lo, hi", [("a", 1), (0, float("nan")), (float("-inf"), 1), (None, 1), ("1/0", 1)])
    def test_non_rational_bounds_rejected(self, lo, hi):
        with pytest.raises(UsageError):
            count_roots_in(xpoly(-2, 0, 1), lo, hi)

    def test_constant_has_no_roots(self):
        assert count_roots_in(xpoly(-4), -10, 10) == 0


class TestIsolateRoots:
    def test_coupled_entry_roots(self):
        iso = isolate_roots(K4_TABLE[0], Fraction(1, 10**6))
        mids = [float((r.lo + r.hi) / 2) for r in iso.intervals]
        for mid, printed in zip(mids, K4_ROOTS[0]):
            assert abs(mid - printed) <= 5e-4 * max(1.0, abs(printed))

    def test_printed_roots_are_exact_decimals(self, monkeypatch):
        from weylpoly import tables, verify

        assert K4_ROOTS[0] == (Fraction(-3396, 1000), Fraction(-7008, 10**4), Fraction(-7004, 10**5))
        assert all(type(v) is Fraction for row in K4_ROOTS for v in row)
        assert verify._check_K4_roots(0) == (True, None)
        wrong = ((Fraction("-3.5"), *K4_ROOTS[0][1:]),) + K4_ROOTS[1:]
        monkeypatch.setattr(tables, "K4_ROOTS", wrong)
        ok, witness = verify._check_K4_roots(0)
        assert not ok and witness["printed"] == "-3.5"
        json.dumps(witness)

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
        assert is_real_rooted(xpoly(-3))
        assert is_real_rooted(xpoly(Fraction(-1, 3)))

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
            ints = _canonical(p)
            assert _sturm_chain(ints) == fraction_sturm_chain(ints), str(p)


    def test_sign_at_matches_fraction_evaluation(self):
        rng = random.Random(5)
        for _ in range(300):
            ints = tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 9))) + (rng.choice([-3, 1, 7]),)
            num = rng.randint(-10**6, 10**6)
            den = rng.choice([1, 2, 8, 2**40, 3, 12, 10**9 + 7])
            value = fraction_horner(ints, Fraction(num, den))
            assert realroots._sign_at(ints, num, den) == (value > 0) - (value < 0), (ints, num, den)


def fraction_horner(coeffs, v: Fraction) -> Fraction:
    """Horner's rule over Fraction, independent of the integer kernel."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# dyadic and non-dyadic denominators, negative points, and integers
_POINTS = [Fraction(n, d) for n in (-7, -1, 0, 1, 5) for d in (1, 2, 8, 2**40, 3, 12, 10**9 + 7)]


class TestEvaluationOracle:
    def test_xpoly_evaluate_matches_fraction_horner(self):
        rng = random.Random(8)
        polys = [XPoly(), xpoly(0), xpoly(Fraction(-5, 3)), xpoly(4)]
        for _ in range(60):
            polys.append(xpoly(*(Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(rng.randint(1, 9)))))
        for p in polys:
            for v in _POINTS:
                got = p.evaluate(v)
                assert type(got) is Fraction and got == fraction_horner(p.coeffs, v), (str(p), v)
            assert p.evaluate(-3) == fraction_horner(p.coeffs, Fraction(-3))

    def test_eval_q_matches_fraction_horner(self):
        rng = random.Random(9)
        polys = [QXPoly(), qxpoly((7,)), qxpoly((), (1, -1)), qxpoly((0, 1), (), (-2, 0, 3))]
        for _ in range(30):
            polys.append(qxpoly(*(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 6))) for _ in range(rng.randint(1, 6)))))
        polys.append(assemble("Tq", 6))
        for p in polys:
            for q in _POINTS:
                want = XPoly(tuple(fraction_horner(c.coeffs, q) for c in p.coeffs))
                assert p.eval_q(q) == want, (str(p), q)


def _primitive_ref(ints):
    while ints and ints[-1] == 0:
        ints.pop()
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def fraction_sturm_chain(ints):
    """Reference Sturm chain: -rem over Fraction, then primitive integer form."""
    chain = [tuple(ints), _derivative(ints)]
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


def fraction_yun(p: XPoly) -> list[tuple[int, XPoly]]:
    """Reference Yun decomposition over Fraction: monic square-free factors, p ~ prod f_m ** m."""
    d = p.derivative()
    g = poly_gcd(p, d) if not d.is_zero() else X_ONE
    if g.degree == 0:
        return [(1, p.monic())]
    out: list[tuple[int, XPoly]] = []
    w = exact_divide(p, g)
    y = exact_divide(d, g)
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


def fraction_radical(p: XPoly) -> XPoly:
    """Reference monic radical: the product of the Fraction Yun factors."""
    out = X_ONE
    for _, fac in fraction_yun(p):
        out = out * fac
    return out


def fraction_cauchy_bound(ints) -> int:
    """Reference: the least power of two at least 1 + max|a_i/a_n|, in Fraction."""
    bound = 1 + Fraction(max((abs(c) for c in ints[:-1]), default=0), abs(ints[-1]))
    b = 1
    while b < bound:
        b *= 2
    return b


def fraction_fujiwara_bound(ints) -> int:
    """Reference: 2 times the least power of two r >= 1 with |a_(d-k) / a_d| <= r^k for every k,
    in Fraction; every root z then has |z| < 2 max_k |a_(d-k) / a_d|^(1/k) <= 2r (Fujiwara)."""
    d = len(ints) - 1
    r = Fraction(1)
    while any(Fraction(abs(ints[d - k]), abs(ints[d])) > r**k for k in range(1, d + 1)):
        r *= 2
    return int(2 * r)


def yun_full_line_real_rooted(p: XPoly) -> bool:
    """Reference: Yun factors, each counted on the whole line by its Sturm chain."""
    if p.degree == 0:
        return True
    total = 0
    for mult, fac in fraction_yun(p):
        if fac.degree >= 1:
            chain = fraction_sturm_chain(_canonical(fac))
            total += mult * (sign_changes_at_infinity(chain, -1) - sign_changes_at_infinity(chain, 1))
    return total == p.degree


def sign_changes_at_infinity(chain, direction: int) -> int:
    signs = []
    for m in chain:
        s = (m[-1] > 0) - (m[-1] < 0)
        signs.append(s * direction ** (len(m) - 1))
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def from_sympy(f: sp.Poly) -> XPoly:
    return xpoly(*(Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())))


def sqf_cases():
    """Seeded products with repeated roots, and the shapes the integer Yun must normalise."""
    rng = random.Random(303)
    cases = [
        xpoly(0, 0, 0, 5),  # c x^k: p' divides p, so the chain ends in p' itself
        xpoly(0, 0, Fraction(-3, 7)),
        xpoly(7),
        xpoly(Fraction(-1, 3)),
        xpoly(1, 0, 1) ** 2,
        xpoly(1, -1, 1) ** 3 * xpoly(-2, 0, 1) ** 2,
        -(xpoly(1, 1) ** 3) * xpoly(-1, 1) ** 2,
        xpoly(Fraction(1, 2), Fraction(-3, 4), 1) ** 2 * xpoly(0, 1),
    ]
    cases += [assemble("tildeD", n) * xpoly(1, 1) ** 2 for n in (3, 7, 12)]
    for _ in range(50):
        p = xpoly(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            p = p * xpoly(-root, 1) ** rng.randint(1, 3)
        if rng.random() < 0.4:
            p = p * xpoly(rng.randint(1, 5), rng.randint(-2, 2), 1) ** rng.randint(1, 2)
        cases.append(p)
    return cases


class TestIntegerSquareFree:
    def test_matches_fraction_yun_and_sympy(self):
        for p in sqf_cases():
            if p.degree < 1:
                continue
            radical, factors = _square_free(_canonical(p.monic()))
            assert _sturm_chain(radical) == fraction_sturm_chain(radical), str(p)
            assert list(factors) == [(m, _canonical(f)) for m, f in fraction_yun(p)], str(p)
            assert radical == _canonical(fraction_radical(p)), str(p)
            _, sym = sp.sqf_list(to_sympy(p))
            assert dict(factors) == {m: _canonical(from_sympy(f).monic()) for f, m in sym}, str(p)

    def test_public_answers_match_the_fraction_route(self):
        for p in sqf_cases():
            realroots._profile.cache_clear()
            radical, intervals = square_free(p)
            assert radical == fraction_radical(p), str(p)
            assert intervals == full_chain_isolation(p), str(p)
            width = Fraction(1, 1000)
            assert isolate_roots(p, width).intervals == full_chain_isolation(p, width), str(p)
            assert is_real_rooted(p) == yun_full_line_real_rooted(p), str(p)
            if fraction_yun(p) != [(1, p.monic())]:
                with pytest.raises(UsageError):
                    count_roots_in(p, -1, 1)
                continue
            roots = to_sympy(p).real_roots()
            for lo, hi in ((-1, 0), (-10, 10), (Fraction(-1, 2), Fraction(1, 3))):
                want = sum(1 for r in roots if rational(Fraction(lo)) < r <= rational(Fraction(hi)))
                assert count_roots_in(p, lo, hi) == want, (str(p), lo, hi)

    def test_taylor_counts_at_the_fujiwara_bracket_ends_are_d_and_0(self):
        # Gauss-Lucas: every real root of every derivative lies inside |z| < 2^f, so the
        # Taylor coefficients alternate in sign at -2^f and share one sign at 2^f
        rng = random.Random(17)
        polys = sqf_cases() + random_root_products(31, 40) + DYADIC_ROOTS + list(K4_TABLE)
        polys += complex_pair_inputs() + cluster_inputs()
        polys += [assemble("tildeD", n) for n in range(3, 31)] + [xpoly(3, 1), xpoly(-7, 0, 1), xpoly(8, 0, 2)]
        for _ in range(200):
            polys.append(xpoly(*[rng.randint(-2**40, 2**40) for _ in range(rng.randint(1, 6))], rng.choice([-5, -1, 1, 3, 2**41])))
        kinds = set()
        for p in polys:
            if p.degree >= 1:
                ints = _canonical(p)
                f = _fujiwara_exp(ints)
                assert 2**f == fraction_fujiwara_bound(ints), str(p)
                d = len(ints) - 1
                for x, want in ((-(2**f), d), (2**f, 0)):
                    taylor = fraction_taylor(ints, Fraction(x))
                    assert all(taylor), (str(p), x)
                    assert sum(1 for a, b in zip(taylor, taylor[1:]) if (a > 0) != (b > 0)) == want, (str(p), x)
                kinds.add((yun_full_line_real_rooted(p), fraction_yun(p) == [(1, p.monic())]))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestOneChainPerPolynomial:
    """gcd(p, p') comes from p's one Sturm chain: one pseudo-remainder sequence starts at p."""

    def remainder_sequences_from(self, monkeypatch, p, call) -> int:
        ints = _canonical(p)
        starts = []
        prem = exactpoly._prem

        def counting(f, g):
            starts.append(tuple(f) == ints)
            return prem(f, g)

        monkeypatch.setattr(exactpoly, "_prem", counting)
        realroots._profile.cache_clear()
        call()
        return sum(starts)

    def test_profile_of_a_repeated_root_polynomial(self, monkeypatch):
        p = assemble("tildeD", 12) * xpoly(1, 1) ** 2
        assert self.remainder_sequences_from(monkeypatch, p, lambda: realroots._profile(_canonical(p))) == 1

    def test_count_roots_in(self, monkeypatch):
        p = assemble("tildeD", 12)
        assert self.remainder_sequences_from(monkeypatch, p, lambda: count_roots_in(p, -1, 0)) == 1


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
            radical = fraction_radical(p)
            bound = Fraction(fraction_cauchy_bound(_canonical(radical)))
            iso = isolate_roots(p)
            assert count_roots_in(radical, -bound, bound) == len(iso.intervals)

    def test_sign_change_across_each_interval(self):
        for p in (K4_TABLE[0], K4_TABLE[3], xpoly(-2, 0, 1), xpoly(0, 1) * xpoly(1, 1)):
            radical = fraction_radical(p)
            for rec in isolate_roots(p).intervals:
                s_lo = radical.evaluate(rec.lo)
                s_hi = radical.evaluate(rec.hi)
                assert s_lo * s_hi <= 0
                assert count_roots_in(radical, rec.lo, rec.hi) == 1

    def test_nonnegative_family_roots_are_nonpositive(self):
        for fam in (refined_T1(5), refined_K(5, "direct").polys):
            for p in fam:
                radical = fraction_radical(p)
                bound = Fraction(fraction_cauchy_bound(_canonical(radical)))
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


# ---------------------------------------------------------------------------
# Oracles for the fast paths: the full-chain isolation and the pairwise sweep
# ---------------------------------------------------------------------------


def horner_sign(ints, num, den):
    """Sign at num/den by Horner's rule with the powers of den multiplied out."""
    acc = ints[-1]
    dp = 1
    for c in reversed(ints[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


def chain_variations(chain, x: Fraction) -> int:
    signs = [s for s in (horner_sign(m, x.numerator, x.denominator) for m in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def full_chain_isolation(p: XPoly, width: Fraction = realroots.DEFAULT_WIDTH, bracket=fraction_cauchy_bound):
    """Isolation with a full Sturm count at every bisection, on Fraction endpoints.

    This is the refinement the sign-only one replaces: the half (lo, mid] is
    kept iff the count there is one.  The radical is bisected from
    (-B, B], B = bracket(radical); below width 2 the cells do not depend on
    the bracket.
    """
    factors = fraction_yun(p)
    radical = fraction_radical(p)
    if radical.degree < 1:
        return ()
    chain = _sturm_chain(_canonical(radical))
    bound = Fraction(bracket(_canonical(radical)))
    stack = [(-bound, bound, chain_variations(chain, -bound), chain_variations(chain, bound))]
    cells = []
    while stack:
        lo, hi, vl, vh = stack.pop()
        if vl - vh == 1:
            cells.append([lo, hi, vl, vh])
        elif vl - vh > 1:
            mid = (lo + hi) / 2
            vm = chain_variations(chain, mid)
            stack += [(lo, mid, vl, vm), (mid, hi, vm, vh)]
    factor_chains = [(m, _sturm_chain(_canonical(fac))) for m, fac in factors if fac.degree >= 1]
    out = []
    for lo, hi, vl, vh in sorted(cells):
        mult = next(m for m, ch in factor_chains if chain_variations(ch, lo) - chain_variations(ch, hi) == 1)
        while hi - lo > width:
            mid = (lo + hi) / 2
            vm = chain_variations(chain, mid)
            if vl - vm == 1:
                hi, vh = mid, vm
            else:
                lo, vl = mid, vm
        out.append(RootInterval(lo, hi, mult))
    return tuple(out)


def random_root_products(seed: int, count: int):
    """Seeded products of linear factors with multiplicities, some times a complex pair."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = xpoly(Fraction(rng.choice([1, 2, 3]), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4, 8]))
            p = p * xpoly(-root, 1) ** rng.randint(1, 3)
        if rng.random() < 0.3:
            p = p * xpoly(1, 0, 1)
        out.append(p)
    return out


# Roots exactly at bisection midpoints and cell ends: 0, -1, -1/2, 2, 1/4.
DYADIC_ROOTS = [
    xpoly(0, 1) * xpoly(1, 1) * xpoly(1, 2) * xpoly(-2, 1),
    xpoly(0, 1) ** 2 * xpoly(-1, 4) * xpoly(1, 2) ** 3,
    xpoly(-2, 1) * xpoly(2, 1) * xpoly(0, 1),
]


class TestSignOnlyRefinement:
    def cold(self, p, width=realroots.DEFAULT_WIDTH):
        realroots._profile.cache_clear()
        return isolate_roots(p, width).intervals

    def test_tildeD_bit_identical_to_full_chain(self):
        for n in range(3, 31):
            p = assemble("tildeD", n)
            assert self.cold(p) == full_chain_isolation(p), n

    def test_tildeB_D_bit_identical_to_full_chain(self):
        for n in range(3, 21):
            for family in ("tildeB", "D"):
                p = assemble(family, n)
                assert self.cold(p) == full_chain_isolation(p), (family, n)

    def test_refined_T1_members_bit_identical_to_full_chain(self):
        for n in range(4, 11):
            for k, p in enumerate(refined_T1(n)):
                assert self.cold(p) == full_chain_isolation(p), (n, k)

    def test_random_products_and_dyadic_roots_bit_identical(self):
        for p in random_root_products(31, 40) + DYADIC_ROOTS:
            assert self.cold(p) == full_chain_isolation(p), str(p)
            width = Fraction(1, 1000)
            assert self.cold(p, width) == full_chain_isolation(p, width), str(p)

    def test_dyadic_roots_sit_at_the_upper_end(self):
        iso = self.cold(DYADIC_ROOTS[0])
        assert [r.hi for r in iso] == [-1, Fraction(-1, 2), 0, 2]

    def test_output_depends_only_on_polynomial_and_width(self):
        p = assemble("tildeD", 5)
        cold = self.cold(p)
        assert all(r.hi - r.lo == Fraction(1, 2**30) for r in cold)
        deep = isolate_roots(p, Fraction(1, 2**40)).intervals
        assert all(r.hi - r.lo == Fraction(1, 2**40) for r in deep)
        assert isolate_roots(p).intervals == cold
        assert isolate_roots(p, Fraction(1, 2**40)).intervals == deep

    def test_deeper_isolation_leaves_the_cached_profile_unchanged(self):
        p = assemble("tildeD", 7) * xpoly(1, 1) ** 2
        width = Fraction(1, 2**10)
        realroots._profile.cache_clear()
        before = isolate_roots(p, width).intervals
        records = [r.copy() for r in realroots._profile(_canonical(p)).records]
        isolate_roots(p, width / 2**20)
        assert isolate_roots(p, width).intervals == before
        assert realroots._profile(_canonical(p)).records == records
        assert realroots._profile.cache_info().currsize == 1

    def test_interlacing_does_not_move_reported_intervals(self):
        fam = refined_T1(5)
        cold = [self.cold(p) for p in fam]
        cold_coarse = [self.cold(p, Fraction(1, 8)) for p in fam]
        realroots._profile.cache_clear()
        assert mutually_interlacing(fam) == (True, None)
        for i in range(len(fam) - 1):
            interlaces(fam[i], fam[i + 1])
        assert [isolate_roots(p, Fraction(1, 8)).intervals for p in fam] == cold_coarse
        assert [isolate_roots(p).intervals for p in fam] == cold
        assert [isolate_roots(p, Fraction(1, 8)).intervals for p in fam] == cold_coarse

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 2), Fraction(0)])
    def test_nonpositive_width_rejected(self, width):
        with pytest.raises(UsageError):
            isolate_roots(xpoly(-2, 0, 1), width)

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), "a", None])
    def test_non_rational_width_rejected(self, width):
        # NaN raised ValueError and infinity OverflowError
        with pytest.raises(UsageError):
            isolate_roots(xpoly(-2, 0, 1), width)



# ---------------------------------------------------------------------------
# Budan-Fourier isolation, its Sturm fallback and the modular square-free test
# ---------------------------------------------------------------------------

ELL = 2**61 - 1
WIDE = Fraction(2**64)  # wider than every bracket here: isolate_roots then reports the initial cells
# A small positive root beside one below -2^20, so the bracket is wide; roots at 0, +-2^-40 and 1/3;
# a double root at 1
WIDE_BRACKET = [xpoly(-1, 2**10) * xpoly(2**20 + 3, 1), xpoly(-1, 2**10) * xpoly(2**20 + 3, 1) * xpoly(1, 0, 1),
                xpoly(0, 1) * xpoly(-1, 2**40) * xpoly(1, 2**40) * xpoly(-1, 3), xpoly(-1, 1) ** 2 * xpoly(2**30, 1)]


def fraction_taylor(ints, x: Fraction) -> list[Fraction]:
    """p^(k)(x) / k! for k = 0..d over Fraction, by repeated synthetic division by (t - x)."""
    coeffs, out = [Fraction(c) for c in ints], []
    while coeffs:
        acc, quot = Fraction(0), []
        for c in reversed(coeffs):
            acc = acc * x + c
            quot.append(acc)
        out.append(quot.pop())
        coeffs = quot[::-1]
    return out


def certified_members():
    """Members of every family the suites certify: tildeD, T1, K and T at q."""
    out = [assemble("tildeD", n) for n in range(3, 31)]
    out += [p for n in range(4, 11) for p in refined_T1(n)]
    out += [p for n in range(3, 9) for p in refined_K(n, "direct").polys]
    qs = (Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2), 7)
    out += [p.eval_q(q) for n in range(3, 7) for p in refined_Tq(n).polys for q in qs]
    return [p for p in out if p.degree >= 1]


def complex_pair_inputs():
    """Seeded inputs with complex roots: cubics (x + r)(x^2 + s x + t), products with a complex
    pair, a pair near the real axis, and (3x - 1)^4 - 81, whose Newton inequalities hold everywhere."""
    rng = random.Random(41)
    out = [xpoly(-1, 3) ** 4 - xpoly(81), xpoly(1, 0, 1), xpoly(1, 0, 0, 0, 1),
           xpoly(Fraction(1, 2**40) + Fraction(1, 9), Fraction(-2, 3), 1) * xpoly(-1, 3)]
    while len(out) < 40:
        r, s, t = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 40)
        if s * s < 4 * t:
            out.append(xpoly(r, 1) * xpoly(t, s, 1))
    for _ in range(20):
        p = xpoly(rng.randint(1, 5), rng.randint(-4, 4), 1) ** rng.randint(1, 2) * xpoly(1, 0, 1)
        for _ in range(rng.randint(0, 3)):
            p = p * xpoly(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 8])), 1)
        out.append(p)
    return out


def cluster_inputs():
    """Roots exactly at bisection midpoints, at 0, repeated, and clusters 2^-3k apart."""
    out = list(DYADIC_ROOTS)
    for k in range(1, 6):
        gap = Fraction(1, 2 ** (3 * k))
        for centre in (Fraction(1, 3), Fraction(0), Fraction(-5, 4)):
            p = X_ONE
            for j in range(3):
                p = p * xpoly(-(centre + j * gap), 1)
            out += [p, p * xpoly(-centre, 1), p * xpoly(1, 0, 1)]
    return out


def reference_cells(p: XPoly):
    """(lo, hi, sign of the radical at hi, multiplicity) of the initial cells of the Fraction
    Sturm reference, bisected from the Fujiwara bracket."""
    radical = _canonical(fraction_radical(p))
    return [(r.lo, r.hi, horner_sign(radical, r.hi.numerator, r.hi.denominator), r.multiplicity)
            for r in full_chain_isolation(p, WIDE, fraction_fujiwara_bound)]


@pytest.fixture
def taylor_budget(monkeypatch):
    """Turn a bisection that would not end into a failure: at most 2000 Taylor expansions per profile."""
    taylor, calls = realroots._taylor, []

    def bounded(*args):
        calls.append(args)
        if len(calls) > 2000:
            raise AssertionError("the Budan-Fourier bisection did not end")
        return taylor(*args)

    monkeypatch.setattr(realroots, "_taylor", bounded)
    return calls


class TestBudanFourierIsolation:
    def cold_records(self, p):
        realroots._profile.cache_clear()
        return [(r.lo, r.hi, r.s_hi, r.mult) for r in realroots._profile(_canonical(p)).records]

    def test_cells_match_the_fraction_sturm_reference(self, taylor_budget):
        inputs = certified_members() + cluster_inputs() + complex_pair_inputs() + random_root_products(57, 40)
        for p in inputs + WIDE_BRACKET:
            taylor_budget.clear()
            assert self.cold_records(p) == reference_cells(p), str(p)

    def test_narrow_intervals_match_the_cauchy_bracket_reference(self, taylor_budget):
        # Below width 2 every cell is (k 2^w, (k+1) 2^w], whichever bracket it was bisected from
        inputs = [p for n in range(3, 7) for p in refined_K(n, "direct").polys] + [assemble("tildeD", n) for n in (8, 16)]
        inputs += cluster_inputs() + complex_pair_inputs() + random_root_products(57, 40) + WIDE_BRACKET
        for p in inputs:
            for width in (Fraction(1, 2**30), Fraction(1, 2), Fraction(1)):
                taylor_budget.clear()
                realroots._profile.cache_clear()
                assert isolate_roots(p, width).intervals == full_chain_isolation(p, width), (str(p), width)

    def test_refined_intervals_match_the_fraction_sturm_reference(self, taylor_budget):
        # tildeD, tildeB, D and T1 are compared at the default width by TestSignOnlyRefinement
        inputs = [p for n in range(3, 9) for p in refined_K(n, "direct").polys]
        inputs += [p.eval_q(q) for p in refined_Tq(5).polys for q in (Fraction(1, 3), 7)]
        for p in inputs + cluster_inputs() + complex_pair_inputs():
            taylor_budget.clear()
            realroots._profile.cache_clear()
            assert isolate_roots(p).intervals == full_chain_isolation(p), str(p)

    def test_sturm_fallback_runs_exactly_for_complex_roots(self, monkeypatch, taylor_budget):
        fallbacks = []
        sturm_cells = realroots._sturm_cells

        def counting(rad):
            fallbacks.append(rad)
            return sturm_cells(rad)

        monkeypatch.setattr(realroots, "_sturm_cells", counting)
        members = certified_members()  # real-rooted by the theorems the suites check
        for p in members + cluster_inputs() + complex_pair_inputs() + random_root_products(31, 40):
            taylor_budget.clear()
            fallbacks.clear()
            real = p in members or yun_full_line_real_rooted(p)
            realroots._profile.cache_clear()
            assert is_real_rooted(p) == real, str(p)
            assert fallbacks == ([] if real else [_canonical(fraction_radical(p))]), str(p)

    def test_newton_inequalities_alone_do_not_end_the_bisection(self, monkeypatch, taylor_budget):
        # (3x - 1)^4 - 81 loses two sign variations at 1/3, which no bisection point reaches,
        # and its Taylor coefficients satisfy Newton's inequalities everywhere
        p = xpoly(-1, 3) ** 4 - xpoly(81)
        ints = _canonical(p)
        realroots._profile.cache_clear()
        assert [(r.lo, r.hi) for r in isolate_roots(p, 1).intervals] == [(-1, 0), (1, 2)]
        points = list(taylor_budget)
        assert points and all(realroots._newton_holds(realroots._taylor(*args)) for args in points)
        monkeypatch.setattr(realroots, "_at_most_one_root", lambda b, s: False)
        taylor_budget.clear()
        with pytest.raises(AssertionError, match="did not end"):
            realroots._Profile(ints)

    def test_taylor_digits_match_the_fraction_expansion(self):
        rng = random.Random(23)
        cases = []
        for _ in range(400):
            d = rng.randint(1, 12)
            ints = tuple(rng.choice([0, rng.randint(-9, 9), rng.randint(-2**70, 2**70)]) for _ in range(d))
            cases.append(ints + (rng.choice([1, 3, -2**33, 2**80]),))
        # |b_0| = |num|^d comes within a byte of the bound for x^d at an integer point
        cases += [(0,) * d + (1,) for d in range(1, 7)] * 40
        for ints in cases:
            e = rng.choice([0, 0, 1, 5, rng.randint(0, 70)])
            num = rng.choice([-1, 1]) * rng.randint(0, 2 ** rng.randint(0, 90))
            d = len(ints) - 1
            want = [a * 2 ** (e * (d - k)) for k, a in enumerate(fraction_taylor(ints, Fraction(num, 2**e)))]
            assert realroots._taylor(ints, num, e) == want, (ints, num, e)


class TestModularSquareFree:
    def gcd_calls(self, monkeypatch):
        calls = []
        int_gcd = realroots._int_gcd

        def counting(f, g):
            calls.append((f, g))
            return int_gcd(f, g)

        monkeypatch.setattr(realroots, "_int_gcd", counting)
        return calls

    def test_constant_gcd_mod_ell_skips_the_remainder_sequence(self, monkeypatch):
        prem = []
        monkeypatch.setattr(exactpoly, "_prem", lambda f, g: prem.append(f))
        for n in (3, 12, 25):
            ints = _canonical(assemble("tildeD", n))
            realroots._profile.cache_clear()
            assert realroots._square_free(ints) == (ints, ((1, ints),))
            assert realroots._profile(ints).real_rooted
        assert prem == []

    def test_ell_dividing_a_leading_coefficient_runs_the_prs(self, monkeypatch):
        assert not realroots._coprime_mod_ell((-1, 0, ELL), (0, 2 * ELL))
        assert not realroots._coprime_mod_ell((1, 0, 1), (0, ELL))
        assert not realroots._coprime_mod_ell((1, ELL), (ELL,))
        assert realroots._coprime_mod_ell((1, 0, 1), (0, 2))
        calls = self.gcd_calls(monkeypatch)
        ints = (-1, 0, ELL)  # ELL x^2 - 1, square-free
        assert realroots._square_free(ints) == (ints, ((1, ints),))
        assert calls == [(ints, (0, 2 * ELL))]

    def test_double_root_mod_ell_only_is_square_free_through_the_prs(self, monkeypatch):
        p = xpoly(-3, 1) * xpoly(-3 - ELL, 1)  # (x - 3)^2 mod ELL
        ints = _canonical(p)
        assert not realroots._coprime_mod_ell(ints, _derivative(ints))
        calls = self.gcd_calls(monkeypatch)
        assert realroots._square_free(ints) == (ints, ((1, ints),))
        assert len(calls) == 1
        realroots._profile.cache_clear()
        assert is_real_rooted(p)
        assert [(r.lo, r.hi) for r in isolate_roots(p).intervals] == [(r.lo, r.hi) for r in full_chain_isolation(p)]

    def test_agrees_with_the_remainder_sequence(self):
        rng = random.Random(77)
        polys = sqf_cases() + random_root_products(31, 40) + certified_members()[:40]
        for _ in range(200):
            polys.append(xpoly(*[rng.randint(-2**70, 2**70) for _ in range(rng.randint(2, 9))]))
        for p in polys:
            if p.degree >= 1:
                ints = _canonical(p)
                deriv = _derivative(ints)
                assert realroots._coprime_mod_ell(ints, deriv) == (len(exactpoly._int_gcd(ints, deriv)) == 1), str(p)


def pairwise_relation(g: XPoly, f: XPoly) -> str:
    """The pairwise route the merged sweep replaced: one merge of g and f.

    Root events are merged with exact ties from gcd(radical_f, radical_g),
    counted inside each overlap, and distinct roots are separated by
    refining copies of both cells.
    """
    dg, df = g.degree, f.degree
    if (dg == 0 and df == 0) or df - dg not in (0, 1):
        return "incomparable"
    if dg == 0:
        return "weak"
    pf, pg = realroots._profile(_canonical(f)), realroots._profile(_canonical(g))
    rf = [r.copy() for r in pf.records]
    rg = [r.copy() for r in pg.records]
    common = poly_gcd(XPoly(pf.rad_ints), XPoly(pg.rad_ints))
    common_chain = _sturm_chain(_canonical(common)) if common.degree >= 1 else None
    events = []
    i = j = 0
    while i < len(rf) or j < len(rg):
        if j == len(rg) or (i < len(rf) and rf[i].hi <= rg[j].lo):
            events.append((rf[i], None))
            i += 1
        elif i == len(rf) or rg[j].hi <= rf[i].lo:
            events.append((None, rg[j]))
            j += 1
        else:
            olo, ohi = max(rf[i].lo, rg[j].lo), min(rf[i].hi, rg[j].hi)
            if common_chain is not None and realroots._count_half_open(common_chain, olo, ohi) == 1:
                events.append((rf[i], rg[j]))
                i += 1
                j += 1
            else:
                pf.refine_once(rf[i])
                pg.refine_once(rg[j])

    def expand(for_f):
        out = []
        for idx, (a, b) in enumerate(events):
            rec = a if for_f else b
            if rec is not None:
                out.extend([idx] * rec.mult)
        return out

    u, v = expand(True), expand(False)
    assert len(u) == df and len(v) == dg
    if df == dg:
        pairs = [(v[k], u[k]) for k in range(df)] + [(u[k], v[k + 1]) for k in range(dg - 1)]
    else:
        pairs = [(u[k], v[k]) for k in range(dg)] + [(v[k], u[k + 1]) for k in range(dg)]
    if any(a > b for a, b in pairs):
        return "none"
    return "strict" if all(a < b for a, b in pairs) else "weak"


def pairwise_mutual(fs):
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if pairwise_relation(fs[i], fs[j]) not in ("strict", "weak"):
                return False, (i, j)
    return True, None


def planted_family(rng: random.Random, members: int, degree: int):
    """Roots r_(i,k) = s[k m + i] from one sorted list s: mutually interlacing.

    Then, at random: a shared root (two neighbours of s made equal); the
    first member one degree short (still mutually interlacing) or two
    degrees short; another member one degree short and moved to the front;
    two roots of different members swapped; a positive constant, or two,
    in front.
    """
    s = sorted(Fraction(-rng.randint(1, 400), rng.choice([1, 2, 3, 5])) for _ in range(members * degree))
    if rng.random() < 0.5:
        t = rng.randrange(len(s) - 1)
        s[t + 1] = s[t]
    roots = [[s[k * members + i] for k in range(degree)] for i in range(members)]
    gap = rng.random()
    if gap < 0.3:
        roots[0] = roots[0][1:]
    elif gap < 0.4:
        roots[0] = roots[0][2:]
    elif gap < 0.5:
        roots.insert(0, roots.pop(rng.randrange(1, members))[1:])
    if rng.random() < 0.4:
        a, b = rng.sample([i for i, rs in enumerate(roots) if rs], 2)
        ka, kb = rng.randrange(len(roots[a])), rng.randrange(len(roots[b]))
        roots[a][ka], roots[b][kb] = roots[b][kb], roots[a][ka]
    fam = []
    for rs in roots:
        p = xpoly(rng.randint(1, 3))
        for r in rs:
            p = p * xpoly(-r, 1)
        fam.append(p)
    if rng.random() < 0.2:
        fam.insert(0, xpoly(rng.randint(1, 5)))
        if rng.random() < 0.3:
            fam.insert(0, xpoly(1))
    return fam


class TestMergedSweep:
    def test_mutual_matches_pairwise_oracle_on_planted_families(self):
        rng = random.Random(4242)
        outcomes = set()
        for _ in range(120):
            fam = planted_family(rng, rng.randint(2, 6), rng.randint(1, 4))
            realroots._profile.cache_clear()
            got = mutually_interlacing(fam)
            assert got == pairwise_mutual(fam), [str(p) for p in fam]
            outcomes.add(got[0])
        assert outcomes == {True, False}

    def test_mutual_matches_pairwise_oracle_on_built_families(self):
        fams = [refined_T1(n) for n in range(3, 8)] + [list(refined_K(n, "direct").polys) for n in range(3, 7)]
        fams += [list(reversed(f)) for f in fams[:3]]
        fams += [[assemble("tildeB", n), assemble("tildeB", n + 1)] for n in range(3, 8)]
        for fam in fams:
            assert mutually_interlacing(fam) == pairwise_mutual(fam)

    def test_first_failing_pair_matches_the_pairwise_oracle(self):
        fams = [
            [xpoly(1, 1), xpoly(2, 1), xpoly(3, 1)],  # every pair fails
            [xpoly(3, 1), xpoly(2), xpoly(1, 1), xpoly(5)],  # two constants, and a linear before a constant
            [xpoly(4), xpoly(2, 3, 1), xpoly(1, 1), xpoly(6, 5, 1)],
            [xpoly(2, 1), xpoly(1), xpoly(3), xpoly(1, 1) ** 2, xpoly(0, 1)],
        ]
        for fam in fams:
            failing = [
                (i, j)
                for i in range(len(fam))
                for j in range(i + 1, len(fam))
                if pairwise_relation(fam[i], fam[j]) not in ("strict", "weak")
            ]
            assert len(failing) >= 2, [str(p) for p in fam]
            assert mutually_interlacing(fam) == (False, failing[0]) == pairwise_mutual(fam)

    def test_every_relation_matches_the_pairwise_oracle(self):
        rng = random.Random(77)
        for _ in range(25):
            fam = planted_family(rng, rng.randint(2, 5), rng.randint(1, 4))
            for g in fam:
                for f in fam:
                    assert interlaces(g, f).relation == pairwise_relation(g, f), (str(g), str(f))

    def test_none_witness_brackets_the_offending_roots(self):
        rng = random.Random(2468)
        pool = [Fraction(n, d) for n in range(-6, 1) for d in (1, 2, 3)]

        def product(degree):
            p = xpoly(rng.randint(1, 3))
            for _ in range(degree):
                p = p * xpoly(-rng.choice(pool), 1)
            return p

        seen = 0
        for _ in range(150):
            dg = rng.randint(1, 3)
            g, f = product(dg), product(dg + rng.randint(0, 1))
            verdict = interlaces(g, f)
            assert verdict.relation == sympy_relation(g, f), (str(g), str(f))
            if verdict.relation != "none":
                continue
            seen += 1
            first, second = first_violation(g, f)
            (lo1, hi1), (lo2, hi2) = (tuple(map(rational, cell)) for cell in verdict.witness)
            assert lo1 < first <= hi1 and lo2 < second <= hi2
            assert hi2 <= lo1
        assert seen > 10


def rational(x: Fraction) -> sp.Rational:
    return sp.Rational(x.numerator, x.denominator)


def first_violation(g: XPoly, f: XPoly):
    """The first adjacent pair of the alternation chain out of order, as sympy roots."""
    rg, rf = to_sympy(g).real_roots(), to_sympy(f).real_roots()
    if len(rf) == len(rg):
        chain = [r for pair in zip(rg, rf) for r in pair]
    else:
        chain = [rf[0]] + [r for pair in zip(rg, rf[1:]) for r in pair]
    return next((a, b) for a, b in zip(chain, chain[1:]) if a > b)
