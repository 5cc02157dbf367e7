import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from weylpoly import (
    DivisibilityError,
    PreconditionError,
    StabilityInapplicableError,
    UsageError,
    XPoly,
    build_C,
    hb_split,
    hurwitz_determinants,
    interlace_via_stability,
    interlaces,
    is_real_rooted,
    mutually_interlacing,
    poly_gcd,
    q_positive_on_positive_reals,
    qpoly,
    refined_K,
    refined_T1,
    refined_Tq,
    xpoly,
)
from weylpoly import exactpoly, realroots, stability, verify
from weylpoly.exactpoly import QPoly, QXPoly, _canonical, _int_quot, _interleave, _routh_pair, qxpoly
from weylpoly.tables import (
    C01_POLY,
    C06_DELTA4_QUINTIC,
    C06_POLY,
    C16_POLY,
    HURWITZ_TABLES,
    REDUCED_INDEX_SET,
    SPECIAL_PAIRS,
)


class TestHBSplit:
    def test_cubic(self):
        split = hb_split(xpoly(4, 3, 2, 1))
        assert split.even_part == xpoly(4, 2)
        assert split.odd_part == xpoly(3, 1)

    def test_quartic(self):
        split = hb_split(xpoly(1, 2, 3, 1, 1))
        assert split.even_part == xpoly(1, 3, 1)
        assert split.odd_part == xpoly(2, 1)

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 8))]
            p = xpoly(*coeffs)
            if p.is_zero():
                continue
            assert hb_split(p).reconstruct() == p

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            hb_split(XPoly())

    def test_reconstruct_zero_parts(self):
        assert stability.HBSplit(XPoly(), XPoly()).reconstruct() == XPoly()
        assert stability.HBSplit(XPoly(), xpoly(0, 2)).reconstruct() == xpoly(0, 0, 0, 2)


class TestHurwitzNumeric:
    def test_stable_quadratic(self):
        report = hurwitz_determinants(xpoly(2, 3, 1))
        assert report.determinants == (Fraction(3), Fraction(6))
        assert report.verdict == "hurwitz_stable"

    def test_boundary(self):
        report = hurwitz_determinants(xpoly(1, 0, 1))
        assert report.determinants[0] == 0
        assert report.verdict == "boundary"

    def test_not_stable(self):
        report = hurwitz_determinants(xpoly(2, -3, 1))
        assert report.verdict == "not_stable"

    def test_negative_lead_rejected(self):
        with pytest.raises(PreconditionError):
            hurwitz_determinants(xpoly(1, -1))

    def test_degree_zero_rejected(self):
        with pytest.raises(UsageError):
            hurwitz_determinants(xpoly(3))

    def test_json(self):
        blob = hurwitz_determinants(xpoly(2, 3, 1)).to_json()
        assert blob["verdict"] == "hurwitz_stable"
        assert blob["determinants"][0] == ["3", "1"]

    def test_stable_verdict_implies_negative_real_roots(self):
        from weylpoly import isolate_roots

        # real-axis spot check: every real root of a certified-stable
        # polynomial sits strictly left of zero
        samples = [
            xpoly(2, 3, 1),
            xpoly(1, 1) * xpoly(2, 1) * xpoly(1, 1, 1),
            xpoly(1, 2, 2, 1),
        ]
        for p in samples:
            assert hurwitz_determinants(p).verdict == "hurwitz_stable"
            for rec in isolate_roots(p).intervals:
                assert rec.hi < 0


# Reference: the per-minor route used before the one-pass elimination.
# Each Delta_k is its own determinant: cofactor expansion up to size 4,
# then row-pivoting Bareiss on Fractions (or on QPolys in the symbolic case).


def _ref_det_cofactor(mat, zero):
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
            term = entry * _ref_det_cofactor(minor, zero)
            out = out + term if sign > 0 else out - term
        sign = -sign
    return out


def _ref_exact_quot(a, b):
    if isinstance(a, Fraction):
        return a / b
    return a.exact_div(b)


def _ref_det_bareiss(mat, zero, one):
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
                m[r][c] = _ref_exact_quot(num, prev)
            m[r][col] = zero
        prev = m[col][col]
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _hurwitz_matrix(a, zero):
    """The n x n Hurwitz matrix of a[0] z^n + ... + a[n]."""
    n = len(a) - 1
    return [[a[2 * c - r + 1] if 0 <= 2 * c - r + 1 <= n else zero for c in range(n)] for r in range(n)]


def _hurwitz_minor_matrices(a, zero):
    """The leading k x k blocks of the Hurwitz matrix, k = 1..n; a[0] leads."""
    h = _hurwitz_matrix(a, zero)
    for k in range(1, len(h) + 1):
        yield [row[:k] for row in h[:k]]


def _reference_minors(p):
    zero, one = (QPoly(), QPoly((1,))) if isinstance(p, QXPoly) else (Fraction(0), Fraction(1))
    out = []
    for mat in _hurwitz_minor_matrices(p.coeffs[::-1], zero):
        out.append(_ref_det_cofactor(mat, zero) if len(mat) <= 4 else _ref_det_bareiss(mat, zero, one))
    return tuple(out)


# Reference: the one-pass Bareiss elimination used before the Routh array.
# Without pivoting, the k-th pivot is Delta_k; a zero pivot stops the pass
# and the larger minors come one by one from _det_bareiss.


def _eliminate(m, k, prev, quot):
    """Clear column k below the pivot m[k][k] by one fraction-free step.

    prev is the previous pivot, or None at the first step.  By Sylvester's
    identity it divides every new entry exactly (Bareiss 1968); quot is the
    exact quotient of the entries' ring and raises DivisibilityError on a
    remainder.
    """
    pivot, top = m[k][k], m[k][k + 1 :]
    for row in m[k + 1 :]:
        lead = row[k]
        new = [pivot * x - lead * t for x, t in zip(row[k + 1 :], top)]
        row[k + 1 :] = new if prev is None else [quot(v, prev) for v in new]


def _det_bareiss(mat, quot):
    """Determinant of a square matrix by fraction-free elimination with row pivoting."""
    m = [list(row) for row in mat]
    k = len(m)
    sign = 1
    prev = None
    for col in range(k - 1):
        pivot_row = next((r for r in range(col, k) if m[r][col]), None)
        if pivot_row is None:
            return m[col][col]  # a zero of the entries' ring
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        _eliminate(m, col, prev, quot)
        prev = m[col][col]
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _leading_minors(mat, quot):
    m = [list(row) for row in mat]
    n = len(m)
    minors = []
    prev = None
    for k in range(n):
        pivot = m[k][k]
        minors.append(pivot)
        if not pivot:
            minors += [_det_bareiss([row[:s] for row in mat[:s]], quot) for s in range(k + 2, n + 1)]
            break
        _eliminate(m, k, prev, quot)
        prev = pivot
    return minors


def _ring_routh_minors(a):
    """The library's fraction-free Routh array, run over the entries' own ring.

    Symbolic input runs over Z[q] (QPoly entries) and its lift past a zero
    minor over Z[q][eps] (QXPoly entries read as polynomials in eps), where
    the library packs Z[q] into the integers.
    """
    ring = type(a[0])
    zero, quot = (0, _int_quot) if ring is int else (ring(), ring.exact_div)
    n = len(a) - 1
    older, row = list(a[0::2]), list(a[1::2])
    minors = [row[0]]
    for k in range(1, n):
        if not row[0]:
            lift = QPoly if ring is int else QXPoly
            lifted = _ring_routh_minors([lift((c, comb(n, i))) for i, c in enumerate(a)])
            return minors + [d.coeff(0) for d in lifted[k:]]
        new = [row[0] * x - older[0] * y for x, y in zip(older[1:], row[1:] + [zero])]
        if k >= 3:
            new = [quot(v, minors[k - 3]) for v in new]
        older, row = row, new
        minors.append(row[0])
    return minors


def _ring_minors(p):
    """Delta_1..Delta_n of a symbolic p by the Routh array over Z[q]."""
    return tuple(_ring_routh_minors(p.coeffs[::-1]))


def _stripped(f, g):
    """(m, g(z^2) + z f(z^2) divided by z^m) with z^m the largest power of z dividing it."""
    m, c = _interleave(g.coeffs, f.coeffs)
    return m, XPoly(tuple(c))


def _bareiss_pass_minors(p):
    """Delta_1..Delta_n of p by the one-pass elimination, as Fractions or QPolys."""
    a = p.coeffs[::-1]
    if isinstance(p, QXPoly):
        return tuple(_leading_minors(_hurwitz_matrix(a, QPoly()), QPoly.exact_div))
    den = lcm(*(c.denominator for c in a))
    ints = [c.numerator * (den // c.denominator) for c in a]
    minors = _leading_minors(_hurwitz_matrix(ints, 0), _int_quot)
    return tuple(Fraction(d, den**k) for k, d in enumerate(minors, start=1))


Q = sp.Symbol("q")


def _sympy_minors(p):
    """Per-minor sympy determinants, as Fractions or QPolys like the library's."""
    symbolic = isinstance(p, QXPoly)
    if symbolic:
        entries = [sum(v * Q**i for i, v in enumerate(c.coeffs)) for c in p.coeffs]
    else:
        entries = [sp.Rational(c.numerator, c.denominator) for c in p.coeffs]
    out = []
    for mat in _hurwitz_minor_matrices(entries[::-1], sp.Integer(0)):
        dm = DomainMatrix.from_Matrix(sp.Matrix(mat))
        det = sp.expand(dm.domain.to_sympy(dm.det()))
        if symbolic:
            out.append(QPoly(tuple(int(c) for c in reversed(sp.Poly(det, Q).all_coeffs()))))
        else:
            out.append(Fraction(int(det.p), int(det.q)))
    return tuple(out)


def _verdict(dets):
    if all(d > 0 for d in dets):
        return "hurwitz_stable"
    if any(d < 0 for d in dets):
        return "not_stable"
    return "boundary"


class TestBuildC:
    def test_pair_01(self):
        got = build_C(0, 1)
        assert got.m == 1
        assert got.poly == C01_POLY

    def test_pair_06(self):
        got = build_C(0, 6)
        assert got.m == 1
        assert got.poly == C06_POLY

    def test_pair_16(self):
        got = build_C(1, 6)
        assert got.m == 2
        assert got.poly == C16_POLY
        assert got.poly.degree == 5

    def test_no_z_factor_remains(self):
        for i in range(3):
            for j in range(i + 1, 8):
                assert not build_C(i, j).poly.coeffs[0].is_zero()

    def test_bad_indices(self):
        with pytest.raises(UsageError):
            build_C(1, 1)
        with pytest.raises(UsageError):
            build_C(0, 8)


def _random_rational_poly(rng, degree):
    """Positive leading coefficient, mixed denominators, about a third zeros."""
    coeffs = [Fraction(rng.choice((0, rng.randint(-20, 20))), rng.choice((1, 2, 3, 5, 12))) for _ in range(degree)]
    return XPoly(tuple(coeffs) + (Fraction(rng.randint(1, 9), rng.choice((1, 4, 7))),))


# Each has a zero pivot with a nonzero minor after it; the first zero is
# Delta_1 = a_1 = 0 in the first two, and later in the others.
ZERO_PIVOT_CASES = [
    xpoly(-1, -1, 0, 1),
    xpoly(3, 3, -1, 3, 1, 2, 0, 0, 1),
    xpoly(3, 0, 0, -1, 1),
    xpoly(1, 1, 1, -1, 3, 0, 0, 1, 1),
    xpoly(Fraction(1, 2), 0, -1, Fraction(-1, 3), 0, 3, 3, 1),
    xpoly(-1, 3, -1, 1, 1, -1, Fraction(-1, 2), 1),
    xpoly(Fraction(2, 3), 2, -1, 3, 1, 1, -1, 2, 1, 1),
    xpoly(3, 0, 1, -1, 1, 3, 0, 1, 1),
]


def _planted_zero_pivot(rng, n, k):
    """A degree-n polynomial whose first zero Hurwitz minor is Delta_k, 1 <= k < n.

    Routh's rows, read as z-polynomials p_0 (even part), p_1 (odd part),
    p_2, ..., satisfy p_{j-1} = c_j z p_j + p_{j+1}, and Delta_j is
    Delta_{j-1} times the z^(n-j) coefficient of p_j.  So start from a
    p_{k-1} of degree n-k+1 and a p_k without its z^(n-k) term, and run the
    relation upwards with nonzero c_j.
    """

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))

    def one_parity(deg, lead):
        coeffs = [Fraction(0)] * (deg + 1)
        for e in range(deg % 2, deg, 2):
            coeffs[e] = rng.choice((0, nonzero()))
        coeffs[deg] = lead
        return XPoly(tuple(coeffs))

    z = xpoly(0, 1)
    upper, lower = one_parity(n - k + 1, nonzero()), one_parity(n - k, 0)
    for _ in range(k - 1):
        upper, lower = nonzero() * z * upper + lower, upper
    p = upper + lower
    return p if p.leading > 0 else -p


class TestHurwitzOracles:
    def check(self, p, per_minor=True):
        """Compare with the one-pass elimination, symbolic input with the Z[q] Routh
        array too, and per minor with the reference and sympy."""
        report = hurwitz_determinants(p)
        want = _bareiss_pass_minors(p)
        assert report.determinants == want, str(p)
        if isinstance(p, QXPoly):
            assert report.determinants == _ring_minors(p), str(p)
        if per_minor:
            assert report.determinants == _reference_minors(p), str(p)
            assert report.determinants == _sympy_minors(p), str(p)
        if isinstance(p, XPoly):
            assert report.verdict == _verdict(want), str(p)
        else:
            assert report.verdict is None
        return report

    def test_random_rational(self):
        rng = random.Random(20260418)
        verdicts = set()
        for trial in range(120):
            p = _random_rational_poly(rng, 1 + trial % 12)
            verdicts.add(self.check(p).verdict)
        assert verdicts == {"hurwitz_stable", "not_stable", "boundary"}

    @pytest.mark.parametrize("p", ZERO_PIVOT_CASES, ids=str)
    def test_continues_past_a_zero_pivot(self, p):
        dets = self.check(p).determinants
        first_zero = dets.index(0)
        assert any(dets[first_zero + 1 :])

    def test_reduced_rank4_couplings(self):
        pairs = list(itertools.combinations(REDUCED_INDEX_SET, 2))
        assert len(pairs) == 15
        for pair in pairs:
            self.check(build_C(*pair).poly)

    def test_every_rank4_coupling_divisible_by_one_plus_q(self):
        checked = 0
        for pair in itertools.combinations(range(8), 2):
            try:
                c = build_C(*pair)
            except DivisibilityError:
                continue
            self.check(c.poly)
            checked += 1
        assert checked >= 15

    def test_random_rational_degrees_1_to_30(self):
        rng = random.Random(20261018)
        for degree in range(1, 31):
            for _ in range(3):
                self.check(_random_rational_poly(rng, degree), per_minor=degree <= 16)

    def test_planted_zero_pivot_at_every_position(self):
        rng = random.Random(611)
        covered = set()
        for n in range(2, 25):
            for k in range(1, n):
                p = _planted_zero_pivot(rng, n, k)
                assert p.degree == n
                dets = self.check(p, per_minor=n <= 12).determinants
                first_zero = dets.index(0) + 1
                assert all(dets[: first_zero - 1])
                covered.add((n, first_zero))
        assert covered == {(n, k) for n in range(2, 25) for k in range(1, n)}

    def test_planted_symbolic_zero_minor(self):
        # Delta_j is homogeneous of degree j in the coefficients, so scaling
        # an integer polynomial by lam in Z[q] scales Delta_j by lam**j.
        rng = random.Random(612)
        lams = [qpoly(1, 1), qpoly(0, 1), qpoly(2, -1, 3), qpoly(-1, 0, 0, 1)]
        for n in range(2, 11):
            for k in range(1, n):
                p = _planted_zero_pivot(rng, n, k)
                den = lcm(*(c.denominator for c in p.coeffs))
                ints = [int(c * den) for c in p.coeffs]
                lam = lams[(n + k) % len(lams)]
                dets = self.check(QXPoly(tuple(lam * c for c in ints)), per_minor=n <= 8).determinants
                want = hurwitz_determinants(XPoly(tuple(ints))).determinants
                assert dets == tuple(lam**j * int(d) for j, d in enumerate(want, start=1)), (n, k)
                assert dets.index(QPoly()) == k - 1

    @pytest.mark.parametrize(
        "a, b, quot",
        [
            (7, 2, _int_quot),
            (qpoly(1, 1), qpoly(0, 2), QPoly.exact_div),
            (qxpoly((1,), (1,)), qxpoly((0, 2), (1,)), QXPoly.exact_div),
            (qxpoly((1,), (1,)), qxpoly((0,), (2,)), QXPoly.exact_div),
        ],
        ids=["int", "qpoly", "qxpoly", "qxpoly_lead"],
    )
    def test_inexact_division_raises_typed_error(self, a, b, quot):
        # the exact quotients of the Routh array: Z and Z[eps] in the library,
        # Z[q] and Z[q][eps] in the ring oracle
        with pytest.raises(DivisibilityError):
            quot(a, b)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_stripped_couplings_of_refined_K(self, n):
        fam = refined_K(n).polys
        for f, g in itertools.combinations(fam, 2):
            if f.is_zero() or g.is_zero():
                continue
            self.check(_stripped(f, g)[1], per_minor=n <= 8)

    def test_lifts_only_past_a_zero_minor(self, monkeypatch):
        calls = _count_routh_calls(monkeypatch)
        rng = random.Random(4242)
        inputs = [_random_rational_poly(rng, 1 + t % 30) for t in range(90)]
        inputs += [build_C(*pair).poly for pair in itertools.combinations(REDUCED_INDEX_SET, 2)]
        for n in range(4, 11):
            fam = [p for p in refined_K(n).polys if not p.is_zero()]
            inputs += [_stripped(f, g)[1] for f, g in itertools.combinations(fam, 2)]
        nonsingular = 0
        for p in inputs:
            if all(_bareiss_pass_minors(p)):
                calls.clear()
                hurwitz_determinants(p)
                assert len(calls) == 1, str(p)
                nonsingular += 1
        assert nonsingular >= 300
        calls.clear()
        dets = hurwitz_determinants(_planted_zero_pivot(rng, 9, 4)).determinants
        assert dets.index(0) == 3 and any(dets[4:])
        assert [(kind, n) for kind, n, _ in calls] == [(int, 9), (QPoly, 9)]
        calls.clear()
        p = _planted_zero_pivot(rng, 9, 4)
        den = lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * den) for c in p.coeffs]
        dets = hurwitz_determinants(QXPoly(tuple(qpoly(1, 1) * c for c in ints))).determinants
        assert dets.index(QPoly()) == 3
        assert [(kind, n) for kind, n, _ in calls] == [(int, 9), (QPoly, 9)]

    def test_random_symbolic_against_the_ring_oracle(self):
        # Z[q] coefficients up to 2^40 in size, about a quarter zero (a zero
        # a_1 makes Delta_1 = 0), some without a constant term, and leading
        # coefficients of either sign.
        rng = random.Random(20261019)
        big = 2**40

        def entry():
            if rng.random() < 0.25:
                return QPoly()
            coeffs = [rng.choice((0, rng.randint(-big, big))) for _ in range(rng.randint(0, 4))]
            return QPoly(tuple(coeffs) + (rng.choice((-1, 1)) * rng.randint(1, big),))

        lifted = negative_lead = 0
        for trial in range(150):
            degree = 1 + trial % 12
            p = QXPoly(tuple(entry() for _ in range(degree)) + (entry() or qpoly(-3, 0, 1),))
            if p.degree < 1:
                continue
            dets = hurwitz_determinants(p).determinants
            assert dets == _ring_minors(p), str(p)
            if degree <= 6:
                assert dets == _bareiss_pass_minors(p), str(p)
            lifted += QPoly() in dets[:-1]
            negative_lead += p.leading.leading < 0
        assert lifted >= 10 and negative_lead >= 30

    def test_too_narrow_a_packing_fails_the_ring_oracle(self, monkeypatch):
        # Mutation check: every minor coefficient c needs -2^(W-1) <= c < 2^(W-1),
        # W = 8 nb.  The library's nb meets that; one byte less than the least
        # such nb, where that is more than one byte, must misread some minor.
        rng = random.Random(77)
        inputs = [build_C(*pair).poly for pair in itertools.combinations(REDUCED_INDEX_SET, 2)]
        for _ in range(20):
            coeffs = [[rng.randint(-(2**30), 2**30) for _ in range(3)] for _ in range(7)]
            inputs.append(QXPoly(tuple(QPoly(tuple(c)) for c in coeffs)))
        narrowed = 0
        for p in inputs:
            want = _ring_minors(p)
            need = (max((c if c >= 0 else ~c).bit_length() for d in want for c in d.coeffs) + 8) // 8
            assert stability._kronecker_bytes(p.coeffs[::-1]) >= need
            if need == 1:
                continue
            narrowed += 1
            with monkeypatch.context() as m:
                m.setattr(stability, "_kronecker_bytes", lambda a: need - 1)
                assert hurwitz_determinants(p).determinants != want, str(p)
        assert narrowed >= 20


def _count_routh_calls(monkeypatch):
    """Record (entry type, degree, minors yielded) for every Routh array run.

    The lifted rerun calls _routh_minors through the module, so it is
    recorded too, with its polynomials in eps as entries.  Every run's
    entries share one type: int, symbolic input included (packed at
    q = 2^W), or QPoly in eps for a lift.
    """
    calls = []
    original = exactpoly._routh_minors

    def counting(a):
        kinds = {type(c) for c in a}
        assert kinds == {int} or (kinds == {QPoly} and calls), kinds
        seen = []
        calls.append((type(a[0]), len(a) - 1, seen))
        for d in original(a):
            seen.append(d)
            yield d

    monkeypatch.setattr(exactpoly, "_routh_minors", counting)
    return calls


class TestHurwitzSymbolic:
    def test_reference_determinant_lists(self):
        for pair, expected in HURWITZ_TABLES.items():
            report = hurwitz_determinants(build_C(*pair).poly)
            assert report.verdict is None
            assert len(report.determinants) == len(expected)
            for got, want in zip(report.determinants, expected):
                assert got == want, (pair, str(got), str(want))

    def test_tail_coincidence_for_degree_six_pairs(self):
        for pair in ((0, 1), (0, 6)):
            dets = hurwitz_determinants(build_C(*pair).poly).determinants
            assert dets[4] == dets[5]

    def test_symbolic_input_reaches_the_array_as_ints(self, monkeypatch):
        calls = _count_routh_calls(monkeypatch)
        for pair in itertools.combinations(REDUCED_INDEX_SET, 2):
            calls.clear()
            hurwitz_determinants(build_C(*pair).poly)
            assert [kind for kind, _, _ in calls] == [int], pair

    def test_symbolic_json(self):
        report = hurwitz_determinants(build_C(0, 1).poly)
        blob = report.to_json()
        assert blob["verdict"] is None
        assert blob["determinants"][0] == ["0", "1", "1"]


def _positive_except_even_zero_at_one(p: QPoly) -> bool:
    if p.is_zero():
        raise UsageError("the zero polynomial has no positivity verdict")
    q_minus_1 = QPoly((-1, 1))
    order = 0
    while True:
        try:
            p = p.exact_div(q_minus_1)
            order += 1
        except Exception:
            break
    return order % 2 == 0 and q_positive_on_positive_reals(p)


class TestQPositivity:
    def test_quintic_factor(self):
        assert q_positive_on_positive_reals(C06_DELTA4_QUINTIC)

    def test_nonnegative_coeffs(self):
        assert q_positive_on_positive_reals(qpoly(1, 1))

    def test_root_at_one(self):
        assert not q_positive_on_positive_reals(qpoly(-1, 0, 1))

    def test_negative_everywhere(self):
        assert not q_positive_on_positive_reals(qpoly(-1))

    def test_even_order_touch_is_not_positive(self):
        # (q - 1)^2 touches zero at q = 1
        assert not q_positive_on_positive_reals(qpoly(1, -2, 1))

    def test_zero_rejected(self):
        with pytest.raises(UsageError):
            q_positive_on_positive_reals(QPoly())

    def test_matches_sympy_on_repeated_and_signed_factors(self):
        rng = random.Random(88)
        cases = [qpoly(0, 0, 0, 5), qpoly(0, 0, -3), qpoly(7), qpoly(-2), qpoly(1, -1, 1) ** 2]
        cases += [qpoly(1, -1, 1) ** 3 * qpoly(-2, 0, 1) ** 2, -(qpoly(1, 1) ** 3) * qpoly(-1, 1) ** 2]
        # roots at 0, +-2^-40 and 1/3; a small positive root beside one below -2^20,
        # so the bracket is wide; a double root at 1
        complex_pair = qpoly(1, -1, 1)
        cases += [qpoly(0, 1) * complex_pair, qpoly(0, 0, 1) * complex_pair, qpoly(0, -1, 1), -qpoly(0, 1) * complex_pair]
        cases += [qpoly(1, 2**40) * complex_pair, qpoly(-1, 2**40) * complex_pair, qpoly(-1, 2**40) * qpoly(1, 2**40)]
        cases += [qpoly(1, 3) * complex_pair, qpoly(-1, 3) * complex_pair, qpoly(-1, 3) ** 2 * qpoly(0, 1)]
        cases += [qpoly(-1, 2**10) * qpoly(2**20 + 1, 1), qpoly(1, 2**10) * qpoly(2**20 + 1, 1) * complex_pair]
        cases += [qpoly(-1, 1) ** 2 * complex_pair, qpoly(-1, 1) ** 2 * qpoly(3, 1)]
        for _ in range(60):
            p = qpoly(rng.choice([-3, -1, 1, 2]))
            for _ in range(rng.randint(1, 4)):
                p = p * qpoly(rng.randint(-6, 6), rng.randint(1, 4)) ** rng.randint(1, 3)
            if rng.random() < 0.4:
                p = p * qpoly(rng.randint(1, 5), rng.randint(-4, 2), 1) ** rng.randint(1, 2)
            cases.append(p)
        q = sp.symbols("q")
        verdicts = set()
        for p in cases:
            sym = sp.Poly([sp.Integer(c) for c in reversed(p.coeffs)], q)
            want = sym.eval(1) > 0 and not any(r > 0 for r in sym.real_roots())
            assert q_positive_on_positive_reals(p) == want, str(p)
            verdicts.add(want)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "check", [_positive_except_even_zero_at_one, verify._positive_except_even_zero_at_one],
        ids=["test_copy", "verify"],
    )
    def test_boundary_positivity_rejects_zero(self, check):
        with pytest.raises(UsageError):
            check(QPoly())
        assert check(qpoly(1, -2, 1) * qpoly(1, 1))
        assert not check(qpoly(-1, 1))

    def test_all_couplings_positive_off_the_q1_boundary(self):
        special = set(SPECIAL_PAIRS)
        idx = REDUCED_INDEX_SET
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                pair = (idx[a], idx[b])
                dets = hurwitz_determinants(build_C(*pair).poly).determinants
                for d in dets:
                    if pair in special:
                        assert _positive_except_even_zero_at_one(d), pair
                    else:
                        assert q_positive_on_positive_reals(d), (pair, str(d))


def _gcd_rule(f, g):
    """The stable branch's relation by the shared-root gcd, or None off that branch."""
    m, stripped = _stripped(f, g)
    if hurwitz_determinants(stripped).verdict != "hurwitz_stable":
        return None
    return "weak" if m and poly_gcd(f, g).degree >= 1 else "strict"


def _from_roots(*roots):
    p = xpoly(1)
    for r in roots:
        p = p * xpoly(-r, 1)
    return p


# (f, g, m, stable branch taken): m is the power of z stripped from
# g(z^2) + z f(z^2), which is 2 or more exactly when f(0) = g(0) = 0.
WEAK_RULE_CASES = [
    (_from_roots(-2), _from_roots(-1, -3), 0, True),
    (_from_roots(0, -2), _from_roots(-1, -3), 0, False),  # f(0) = 0 only
    (_from_roots(-1), _from_roots(0, -2), 1, True),  # g(0) = 0 only
    (_from_roots(-1, -2), _from_roots(0, -1, -3), 1, False),
    (_from_roots(0, -2), _from_roots(0, -1, -3), 2, True),  # both
    (_from_roots(0, -2), _from_roots(0, -1), 2, True),
    (_from_roots(0, 0), _from_roots(0, -1), 2, False),
    (_from_roots(0, -1), _from_roots(0, 0, -2), 3, True),  # double root of g at 0
    (_from_roots(0, 0), _from_roots(0, 0, -1), 4, True),  # double root of both at 0
    (_from_roots(0, 0, -1), _from_roots(0, 0, -1), 4, False),
    (_from_roots(-1, -2), _from_roots(-1, -3), 0, False),  # shared root off zero
]


def _stability_suite_pairs():
    """The pairs (f, g) of ``verify --suite stability --max-n 10``'s agreement checks: i < j
    in T(n) at each default q and in K(n), 4 <= n <= 10, neither member a constant."""
    ranks = range(4, 11)
    families = [[p.eval_q(q) for p in refined_Tq(n).polys] for q in verify.DEFAULT_Q_SAMPLES for n in ranks]
    families += [refined_K(n, "direct").polys for n in ranks]
    for fam in families:
        for f, g in itertools.combinations(fam, 2):
            if f.degree and g.degree:
                yield f, g


@pytest.fixture
def sweeps(monkeypatch):
    """One entry for each merged sweep run."""
    swept, merged_positions = [], realroots._merged_positions
    monkeypatch.setattr(realroots, "_merged_positions", lambda profiles: swept.append(1) or merged_positions(profiles))
    return swept


class TestInterlaceViaStability:
    def test_the_suite_pairs_need_no_sweep(self, sweeps):
        # every pair of the suite whose own Routh array fails shares a root, and the gcd route
        # decides it: weak, as the sweep says
        shared = 0
        for f, g in _stability_suite_pairs():
            got = interlace_via_stability(f, g).relation
            assert sweeps == [], (str(f), str(g))
            if not _routh_pair(_canonical(f), _canonical(g))[1]:
                assert poly_gcd(f, g).degree >= 1, (str(f), str(g))
                assert got == interlaces(f, g).relation == "weak", (str(f), str(g))
                sweeps.clear()
                shared += 1
        assert shared == 75

    def test_shared_root_hand_example(self, sweeps):
        # gcd x + 1, cofactors x + 3 and (x + 2)(x + 4): -4 < -3 < -2, so the pair holds weakly
        f, g = xpoly(1, 1) * xpoly(3, 1), xpoly(1, 1) * xpoly(2, 1) * xpoly(4, 1)
        assert not _routh_pair(_canonical(f), _canonical(g))[1]
        assert interlace_via_stability(f, g).relation == "weak"
        assert sweeps == []
        assert interlaces(f, g).relation == "weak"

    def test_a_shared_factor_that_is_not_real_rooted_is_rejected(self):
        # the cofactors x + 2 and x + 1 pass the Routh test, but the gcd x^2 + 1 fails h' <= h
        f, g = xpoly(1, 0, 1) * xpoly(2, 1), xpoly(1, 0, 1) * xpoly(1, 1)
        assert _routh_pair((2, 1), (1, 1))[1]
        with pytest.raises(PreconditionError):
            interlace_via_stability(f, g)
        with pytest.raises(PreconditionError):
            mutually_interlacing([f, g])

    @pytest.mark.parametrize("f, g, m, stable", WEAK_RULE_CASES, ids=lambda v: str(v))
    def test_weak_rule_on_planted_pairs(self, f, g, m, stable):
        assert _stripped(f, g)[0] == m
        old = _gcd_rule(f, g)
        assert (old is not None) == stable
        got = interlace_via_stability(f, g).relation
        assert got == interlaces(f, g).relation
        if stable:
            assert got == old == ("weak" if m >= 2 else "strict")

    def test_weak_rule_on_families(self):
        families = [refined_K(n).polys for n in range(3, 11)]
        # the recurrence route builds the same entries, so its pairs get the same verdicts
        assert families == [refined_K(n, "recurrence").polys for n in range(3, 11)]
        families += [
            [p.eval_q(q) for p in refined_Tq(n).polys]
            for q in (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3))
            for n in range(4, 8)
        ]
        stable_branch = set()
        for fam in families:
            fam = [p for p in fam if not p.is_zero()]
            for f, g in itertools.permutations(fam, 2):
                got = interlace_via_stability(f, g).relation
                assert got == interlaces(f, g).relation, (str(f), str(g))
                old = _gcd_rule(f, g)
                if old is not None:
                    assert got == old, (str(f), str(g))
                    stable_branch.add((min(_stripped(f, g)[0], 2), got))
        assert {(1, "strict"), (2, "weak")} <= stable_branch

    def test_stops_at_the_first_nonpositive_minor(self, monkeypatch):
        calls = _count_routh_calls(monkeypatch)
        stable = stopped = stopped_at_zero = 0
        for n in range(4, 11):
            fam = [p for p in refined_K(n).polys if not p.is_zero()]
            for f, g in itertools.permutations(fam, 2):
                calls.clear()
                interlace_via_stability(f, g)
                if not calls:  # the degree rule went straight to interlaces
                    continue
                # the pair's own array first, then perhaps the gcd route's; none is lifted
                for kind, _, seen in calls:
                    assert kind is int
                    assert all(d > 0 for d in seen[:-1])
                _, degree, seen = calls[0]
                if seen[-1] > 0:
                    assert len(seen) == degree
                    stable += 1
                else:
                    stopped += len(seen) < degree
                    stopped_at_zero += seen[-1] == 0 and len(seen) < degree
        assert stable and stopped and stopped_at_zero

    def test_strict_hand_example(self):
        v = interlace_via_stability(xpoly(2, 1), xpoly(1, 3, 1))
        assert v.relation == "strict"

    def test_equal_inputs_weak(self):
        v = interlace_via_stability(xpoly(1, 1), xpoly(1, 1))
        assert v.relation == "weak"

    def test_family_pair_weak(self):
        f = refined_T1(4)
        assert interlace_via_stability(f[0], f[1]).relation == "weak"

    def test_failing_pair(self):
        assert not interlace_via_stability(xpoly(1, 1), xpoly(2, 1)).holds

    def test_zero_raises_inapplicable(self):
        with pytest.raises(StabilityInapplicableError):
            interlace_via_stability(XPoly(), xpoly(1, 1))

    def test_negative_coeffs_rejected(self):
        with pytest.raises(PreconditionError):
            interlace_via_stability(xpoly(-1, 1), xpoly(1, 1))

    def test_non_real_rooted_rejected(self):
        with pytest.raises(PreconditionError):
            interlace_via_stability(xpoly(1, 0, 1), xpoly(1, 1, 1))

    @pytest.mark.parametrize(
        "f, g",
        [
            (xpoly(1, 0, 1), xpoly(1, 3, 1)),  # degree gap 0
            (xpoly(1, 2), xpoly(1, 1, 1)),  # gap 1, g not real-rooted
            (xpoly(1, 1, 1), xpoly(0, 1, 3, 1)),  # gap 1, f not real-rooted
            (xpoly(1, 1), xpoly(1, 0, 0, 1)),  # gap 2
            (xpoly(2), xpoly(1, 0, 1)),  # constant f
        ],
        ids=["gap0", "gap1_g", "gap1_f", "gap2", "constant"],
    )
    def test_non_real_rooted_rejected_at_every_degree_gap(self, f, g):
        with pytest.raises(PreconditionError):
            interlace_via_stability(f, g)

    def test_a_holding_verdict_implies_real_rooted_inputs(self):
        # All positive Hurwitz minors certify real roots (Hermite-Biehler),
        # so the stability route checks real-rootedness only on its fallback.
        rng = random.Random(23)

        def sample():
            # f interlaces g by construction, then maybe a shared root, a
            # random-coefficient member or the reverse order.
            pts = sorted({Fraction(-rng.randint(0, 40), rng.randint(1, 4)) for _ in range(rng.randint(2, 9))})
            f, g = _from_roots(*pts[1::2]), _from_roots(*pts[0::2])
            if rng.random() < 0.3:
                shared = xpoly(Fraction(rng.randint(0, 3), 2), 1)
                f, g = f * shared, g * shared
            if rng.random() < 0.4:
                d = rng.choice((f, g)).degree
                noise = xpoly(*[rng.randint(0, 6) for _ in range(d)], rng.randint(1, 6))
                f, g = (noise, g) if rng.random() < 0.5 else (f, noise)
            return (g, f) if rng.random() < 0.2 else (f, g)

        seen = {"holds": 0, "rejected": 0}
        for _ in range(300):
            f, g = sample()
            real_rooted = is_real_rooted(f) and is_real_rooted(g)
            try:
                verdict = interlace_via_stability(f, g)
            except PreconditionError:
                assert not real_rooted, (str(f), str(g))
                seen["rejected"] += 1
                continue
            assert real_rooted, (str(f), str(g))
            assert verdict.relation == interlaces(f, g).relation, (str(f), str(g))
            seen["holds"] += verdict.holds
        assert min(seen.values()) >= 50, seen

    def test_agreement_across_families(self):
        samples = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]
        for n in (4, 5):
            for q in samples:
                fam = [p.eval_q(q) for p in refined_Tq(n).polys]
                for i in range(len(fam)):
                    for j in range(i + 1, len(fam)):
                        lhs = interlace_via_stability(fam[i], fam[j]).relation
                        rhs = interlaces(fam[i], fam[j]).relation
                        assert lhs == rhs, (n, str(q), i, j, lhs, rhs)
            fam = refined_K(n, "direct").polys
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    lhs = interlace_via_stability(fam[i], fam[j]).relation
                    rhs = interlaces(fam[i], fam[j]).relation
                    assert lhs == rhs, (n, i, j, lhs, rhs)
