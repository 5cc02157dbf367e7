import random
from fractions import Fraction

import pytest

from weylpoly import (
    PreconditionError,
    StabilityInapplicableError,
    UsageError,
    XPoly,
    build_C,
    hb_split,
    hurwitz_determinants,
    interlace_via_stability,
    interlaces,
    q_positive_on_positive_reals,
    qpoly,
    refined_K,
    refined_T1,
    refined_Tq,
    xpoly,
)
from weylpoly import verify
from weylpoly.exactpoly import QPoly
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


class TestInterlaceViaStability:
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
