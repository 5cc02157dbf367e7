import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import weylpoly

from weylpoly import (
    PreconditionError,
    RefinedFamily,
    TransformSpec,
    UsageError,
    WeightedComboSpec,
    XPoly,
    assemble,
    brute_polynomial,
    ceil_index,
    check_identity,
    fisk_nx_check,
    interlaces,
    interlacing_transform,
    mutually_interlacing,
    nx_const,
    nx_x,
    qpoly,
    recurrence_nx_matrix,
    refined_K,
    refined_T1,
    refined_Tq,
    refined_affine_T,
    weighted_combination,
    xpoly,
)
from weylpoly.recurrences import NXMatrix
from weylpoly.tables import K4_TABLE, T4_TABLE, TILDE_D3


class TestCeilIndex:
    def test_examples(self):
        assert ceil_index(4, 0) == 0
        assert ceil_index(4, 3) == 3
        assert ceil_index(4, 5) == 4

    def test_closed_form(self):
        for n in range(2, 11):
            for i in range(2 * n):
                assert ceil_index(n, i) == i - (1 if i >= n else 0)

    def test_range_errors(self):
        with pytest.raises(UsageError):
            ceil_index(4, 8)
        with pytest.raises(UsageError):
            ceil_index(4, -1)
        with pytest.raises(UsageError):
            ceil_index(1, 0)


class TestRefinedTq:
    def test_rank4_matches_reference_table(self):
        fam = refined_Tq(4).polys
        for i in range(8):
            assert fam[i] == T4_TABLE[i]

    def test_scalar_relations(self):
        fam = refined_Tq(4).polys
        q = qpoly(0, 1)
        assert fam[4] == fam[3] * q
        assert fam[7] == fam[0].shift_up(1) * q

    def test_first_entry_is_previous_total(self):
        for n in (3, 4, 5):
            assert refined_Tq(n).polys[0] == assemble("Tq", n - 1)

    def test_family_length(self):
        assert len(refined_Tq(5).polys) == 10

    def test_rank_too_small(self):
        with pytest.raises(UsageError):
            refined_Tq(1)


class TestRefinedAffine:
    def test_first_entry(self):
        assert refined_affine_T(3).polys[0] == xpoly(0, 2, 4, 2)

    def test_duality_fills_upper_half(self):
        fam = refined_affine_T(3).polys
        assert fam[5] == fam[0]
        assert fam[4] == fam[1]

    def test_sum_doubles_affine_type_D(self):
        total = XPoly()
        for p in refined_affine_T(3).polys:
            total = total + p
        assert total == TILDE_D3 * 2

    def test_rank_too_small(self):
        with pytest.raises(UsageError):
            refined_affine_T(2)


class TestRefinedK:
    def test_rank4_matches_reference_table(self):
        fam = refined_K(4, "direct").polys
        for i in range(8):
            assert fam[i] == K4_TABLE[i]

    def test_equal_middle_entries(self):
        fam = refined_K(4, "direct").polys
        assert fam[3] == fam[4]

    def test_two_methods_agree(self):
        for n in (3, 4, 5, 6):
            assert refined_K(n, "direct").polys == refined_K(n, "recurrence").polys

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            refined_K(4, "magic")


class TestAssemble:
    def test_affine_type_D_rank3(self):
        assert assemble("tildeD", 3) == TILDE_D3

    def test_affine_type_B_rank3(self):
        assert assemble("tildeB", 3) == xpoly(0, 10, 28, 10)

    def test_type_D_rank2(self):
        assert assemble("D", 2) == xpoly(1, 2, 1)

    def test_type_A(self):
        assert assemble("A", 2) == xpoly(1, 4, 1)

    def test_Dq_division_is_exact(self):
        for n in (2, 3, 4, 5):
            assert assemble("Dq", n) * qpoly(1, 1) == assemble("Tq", n)

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            assemble("E", 3)

    def test_range_errors(self):
        with pytest.raises(UsageError):
            assemble("tildeD", 2)
        with pytest.raises(UsageError):
            assemble("Tq", 1)


class TestIdentities:
    def test_dilks_62_hand_case(self):
        lhs = assemble("tildeB", 3) - assemble("D", 2).shift_up(1) * 6
        assert lhs == TILDE_D3
        assert check_identity("dilks_62", 3).verdict == "pass"

    def test_dilks_62_range(self):
        for n in (4, 5, 6):
            assert check_identity("dilks_62", n).verdict == "pass"

    def test_stembridge(self):
        for n in (3, 4):
            assert check_identity("stembridge", n).verdict == "pass"

    def test_t_n0_equals_prev(self):
        for n in (3, 6):
            assert check_identity("t_n0_equals_prev", n).verdict == "pass"

    def test_tilde_dual(self):
        for n in (3, 5):
            assert check_identity("tilde_dual", n).verdict == "pass"

    def test_k_two_methods(self):
        assert check_identity("k_two_methods", 5).verdict == "pass"

    def test_matrix_identity(self):
        for n in (3, 4, 6):
            assert check_identity("matrix_identity", n).verdict == "pass"

    def test_q0_reduction(self):
        for n in (2, 4):
            assert check_identity("q0_reduction", n).verdict == "pass"

    def test_oneplusq_division(self):
        assert check_identity("oneplusq_division", 4).verdict == "pass"

    def test_interlace_chain(self):
        assert check_identity("interlace_chain_prop62", 3).verdict == "pass"

    def test_unknown_identity(self):
        with pytest.raises(UsageError):
            check_identity("nonsense", 3)

    def test_entries_carry_timing_and_params(self):
        entry = check_identity("dilks_62", 3)
        assert entry.parameters == {"n": 3}
        assert entry.elapsed_ms >= 0.0

    def test_elapsed_covers_the_work(self):
        start = time.perf_counter()
        entry = check_identity("stembridge", 6)
        wall_ms = (time.perf_counter() - start) * 1000.0
        assert entry.verdict == "pass"
        assert entry.elapsed_ms >= 0.5 * wall_ms


class TestTransform:
    def test_hand_example(self):
        out = interlacing_transform((xpoly(2, 1), xpoly(1, 1)), TransformSpec((1, 2, 3)))
        assert out == (xpoly(3, 2), xpoly(1, 3, 1), xpoly(0, 3, 2))

    def test_identity_threshold(self):
        f = xpoly(5, 3, 1)
        assert interlacing_transform((f,), TransformSpec((1,))) == (f,)

    def test_rebuilds_next_rank_at_q1(self):
        fs = refined_T1(3)
        spec = TransformSpec(tuple(ceil_index(4, i) + 1 for i in range(8)))
        assert interlacing_transform(fs, spec) == refined_T1(4)

    def test_preserves_mutual_interlacing(self):
        fs = refined_K(4, "direct").polys
        spec = TransformSpec((1, 2, 2, 4, 5, 7, 8, 9))
        out = interlacing_transform(fs, spec)
        ok, failure = mutually_interlacing(out)
        assert ok, failure

    def test_threshold_validation(self):
        with pytest.raises(UsageError):
            TransformSpec((2, 1))
        with pytest.raises(UsageError):
            TransformSpec((0,))
        with pytest.raises(UsageError):
            interlacing_transform((xpoly(1, 1),), TransformSpec((3,)))
        with pytest.raises(UsageError):
            interlacing_transform((), TransformSpec((1,)))


class TestWeightedCombination:
    def test_hand_example(self):
        fa, fb = weighted_combination(
            (xpoly(2, 1), xpoly(1, 1)), WeightedComboSpec((1, 1), (0, 1))
        )
        assert fa == xpoly(3, 2) and fb == xpoly(1, 1)
        assert interlaces(fa, fb).holds

    def test_equal_weights_give_weak(self):
        fs = (xpoly(2, 1), xpoly(1, 1))
        fa, fb = weighted_combination(fs, WeightedComboSpec((1, 1), (1, 1)))
        assert fa == fb
        assert interlaces(fa, fb).relation == "weak"

    def test_affine_type_D_construction(self):
        n = 4
        fs = refined_K(n, "direct").polys[n : 2 * n]
        a = tuple(Fraction(n - i) for i in range(n))
        b = tuple(Fraction(i) for i in range(n))
        fa, fb = weighted_combination(fs, WeightedComboSpec(a, b))
        assert interlaces(fa, fb).holds

    def test_invariant_violation(self):
        with pytest.raises(PreconditionError):
            WeightedComboSpec((0, 1), (1, 0))
        with pytest.raises(PreconditionError):
            WeightedComboSpec((-1, 1), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            weighted_combination((xpoly(1, 1),), WeightedComboSpec((1, 1), (1, 1)))


class TestFisk:
    def test_good_two_by_two(self):
        m = NXMatrix(((nx_const(1), nx_const(1)), (nx_x(), nx_const(1))))
        ok, violation = fisk_nx_check(m)
        assert ok and violation is None

    def test_southwest_violation(self):
        m = NXMatrix(((nx_const(1), nx_x()), (nx_const(1), nx_const(1))))
        ok, violation = fisk_nx_check(m)
        assert not ok
        assert violation == {"kind": "southwest", "x_cell": [0, 1], "cell": [1, 0]}

    def test_same_form_minor_violation(self):
        m = NXMatrix(((nx_const(1), nx_const(2)), (nx_const(1), nx_const(1))))
        ok, violation = fisk_nx_check(m)
        assert not ok and violation["condition"] == "same-form"

    def test_mixed_form_minor_violation(self):
        m = NXMatrix(((nx_const(2), nx_const(1)), (nx_x(1), nx_x(1))))
        ok, violation = fisk_nx_check(m)
        assert not ok and violation["condition"] == "mixed-form"

    def test_weight_matrix_shape(self):
        # two-row weight matrices satisfy the criterion when cross products align
        m = NXMatrix(
            (
                tuple(nx_const(c) for c in (3, 2, 1)),
                tuple(nx_const(c) for c in (1, 2, 3)),
            )
        )
        ok, _ = fisk_nx_check(m)
        assert ok

    def test_recurrence_matrices(self):
        for n in (3, 4, 7):
            ok, violation = fisk_nx_check(recurrence_nx_matrix(n))
            assert ok, violation

    def test_entry_validation(self):
        with pytest.raises(UsageError):
            nx_x(0)
        with pytest.raises(UsageError):
            nx_const(-1)


class TestDeepRanks:
    def test_builds_do_not_recurse(self):
        # A fresh interpreter keeps the rank caches cold, so every rank is built.
        script = (
            "import sys\n"
            "from weylpoly import refined_K, refined_Tq\n"
            "sys.setrecursionlimit(30)\n"
            "assert len(refined_Tq(40).polys) == 80\n"
            "assert len(refined_K(60, 'recurrence').polys) == 120\n"
        )
        src = os.path.dirname(os.path.dirname(weylpoly.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr


class TestRefinedFamilyType:
    def test_length_validation(self):
        with pytest.raises(UsageError):
            RefinedFamily(3, (XPoly(),) * 5)
