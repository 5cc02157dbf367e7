import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

import weylpoly

from weylpoly import (
    PreconditionError,
    QPoly,
    QXPoly,
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
    run_suite,
    weighted_combination,
    xpoly,
)
from weylpoly import recurrences
from weylpoly.errors import PackingError
from weylpoly.exactpoly import X_ONE, X_VAR, X_ZERO, poly_to_json
from weylpoly.recurrences import NXMatrix, _layout, _Layout, _Packed
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

    def test_rank_thresholds_are_the_split_points_plus_one(self):
        for n in range(2, 61):
            expected = tuple(ceil_index(n, i) + 1 for i in range(2 * n))
            assert recurrences._rank_thresholds(n) == TransformSpec(expected), n

    def test_range_errors(self):
        with pytest.raises(UsageError, match=r"index 8 out of range 0\.\.7"):
            ceil_index(4, 8)
        with pytest.raises(UsageError, match=r"index -1 out of range 0\.\.7"):
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
        with pytest.raises(UsageError):
            refined_T1(1)


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

    def test_k_two_methods_below_rank_3_rejected(self):
        with pytest.raises(UsageError):
            check_identity("k_two_methods", 2)

    def test_k_two_methods_routes_share_the_rank_layout(self):
        # The identity compares the packed ints, which needs one layout.
        for n in range(3, 13):
            fams = recurrences._packed_K_direct(n) + recurrences._K_STORE.rank(n)
            assert {p.layout for p in fams} == {_layout(n, 1)}, n

    def test_k_two_methods_witness_names_a_perturbed_entry(self):
        store = recurrences._K_STORE
        n = 6
        store.cache_clear()
        fam = list(store.rank(n))
        fam[4] = _Packed(fam[4].value + 1, fam[4].layout)  # constant term one too large
        store._ranks[n] = tuple(fam)
        try:
            entry = check_identity("k_two_methods", n)
        finally:
            store.cache_clear()
        assert entry.verdict == "fail"
        assert entry.witness == {"index": 4, "difference": poly_to_json(xpoly(-1))}

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

    @pytest.mark.parametrize("name", recurrences.IDENTITY_NAMES)
    def test_rank_1_raises_usage_error_not_an_entry(self, name):
        # stembridge gave a message about family A at rank -1, and interlace_chain_prop62 a fail
        with pytest.raises(UsageError, match=r"rank 1 is below the smallest rank [23]"):
            check_identity(name, 1)

    # every identity's smallest rank, in report order
    FLOORS = (
        ("dilks_62", 3),
        ("stembridge", 2),
        ("t_n0_equals_prev", 3),
        ("tilde_dual", 3),
        ("k_two_methods", 3),
        ("matrix_identity", 3),
        ("q0_reduction", 2),
        ("oneplusq_division", 2),
        ("interlace_chain_prop62", 2),
    )

    def test_identity_names_in_report_order(self):
        assert recurrences.IDENTITY_NAMES == tuple(name for name, _ in self.FLOORS)

    @pytest.mark.parametrize("name, floor", FLOORS)
    def test_below_the_floor_names_the_identity(self, name, floor):
        # t_n0_equals_prev at rank 2 named "Tq rank 1", a rank the caller never passed
        with pytest.raises(UsageError, match=f"^{name} rank {floor - 1} is below the smallest rank {floor}$"):
            check_identity(name, floor - 1)
        assert check_identity(name, floor).verdict == "pass"

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

    @pytest.mark.parametrize("thresholds", [(1.7, 2), (1, "2"), (Fraction(1), 2)])
    def test_non_integer_threshold_rejected(self, thresholds):
        # (1.7, 2) used to become (1, 2)
        with pytest.raises(UsageError):
            TransformSpec(thresholds)


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
        for n in range(2, 9):
            m = recurrence_nx_matrix(n)
            assert fisk_nx_check(m) == _fisk_scan(m) == (True, None)

    def test_entry_validation(self):
        with pytest.raises(UsageError):
            nx_x(0)
        with pytest.raises(UsageError):
            nx_const(-1)

    @pytest.mark.parametrize(
        "rows",
        [((1, 2),), ((nx_x(), None),), ((nx_const(1),), ("x",)), (1,), ((nx_const(1),), 5), 5, None],
        ids=repr,
    )
    def test_untagged_entries_rejected(self, rows):
        # NXMatrix(((1, 2),)) used to be accepted and fisk_nx_check died with AttributeError;
        # a row or a matrix that is not a sequence, such as (1,) or 5, raised an untyped TypeError
        with pytest.raises(UsageError, match="NXEntry"):
            NXMatrix(rows)


# ---------------------------------------------------------------------------
# Oracle for the tagged-matrix criterion: the scan of every 2x2 submatrix
# ---------------------------------------------------------------------------


def _minor(r1, r2, c1, c2, condition):
    return {"kind": "minor", "rows": [r1, r2], "cols": [c1, c2], "condition": condition}


def _fisk_scan(m):
    """Fisk's criterion by trying every cell pair and every 2x2 submatrix,
    O(r^2 c^2); the witness is the first violation in row-major order."""
    rows = m.rows
    nr, nc = len(rows), len(rows[0])
    for r in range(nr):
        for c in range(nc):
            if rows[r][c].is_x:
                for r2 in range(r + 1, nr):
                    for c2 in range(c):
                        if not rows[r2][c2].is_x:
                            return False, {"kind": "southwest", "x_cell": [r, c], "cell": [r2, c2]}
    for r1 in range(nr):
        for r2 in range(r1 + 1, nr):
            for c1 in range(nc):
                for c2 in range(c1 + 1, nc):
                    p, q = rows[r1][c1], rows[r1][c2]
                    s, t = rows[r2][c1], rows[r2][c2]
                    det = p.value * t.value - q.value * s.value
                    forms = (p.is_x, q.is_x, s.is_x, t.is_x)
                    if forms in ((False, False, False, False), (True, True, True, True)):
                        if det < 0:
                            return False, _minor(r1, r2, c1, c2, "same-form")
                    elif forms == (False, False, True, True) or forms == (True, False, True, False):
                        if det > 0:
                            return False, _minor(r1, r2, c1, c2, "mixed-form")
    return True, None


def _is_violation(m, witness):
    """Whether ``witness`` names a real violation of the kind it states."""
    rows = m.rows
    if witness["kind"] == "southwest":
        (r, c), (r2, c2) = witness["x_cell"], witness["cell"]
        return r < r2 and c2 < c and rows[r][c].is_x and not rows[r2][c2].is_x
    (r1, r2), (c1, c2) = witness["rows"], witness["cols"]
    if not (r1 < r2 and c1 < c2):
        return False
    p, q, s, t = rows[r1][c1], rows[r1][c2], rows[r2][c1], rows[r2][c2]
    det = p.value * t.value - q.value * s.value
    forms = (p.is_x, q.is_x, s.is_x, t.is_x)
    if witness["condition"] == "same-form":
        return forms in ((False,) * 4, (True,) * 4) and det < 0
    return forms in ((False, False, True, True), (True, False, True, False)) and det > 0


def _violations(m):
    """Every witness that ``_is_violation`` accepts, by trying them all."""
    nr, nc = len(m.rows), len(m.rows[0])
    cells = [[r, c] for r in range(nr) for c in range(nc)]
    found = [{"kind": "southwest", "x_cell": a, "cell": b} for a in cells for b in cells]
    pairs = itertools.product(itertools.combinations(range(nr), 2), itertools.combinations(range(nc), 2))
    for (r1, r2), (c1, c2) in pairs:
        found += [_minor(r1, r2, c1, c2, condition) for condition in ("same-form", "mixed-form")]
    return [w for w in found if _is_violation(m, w)]


def _random_tagged(rng):
    """A random tagged matrix of at most 5 x 5: half of them staircases
    (x left of a nondecreasing threshold per row), some with one form flipped,
    constants often zero, values small so that minors often vanish, and
    halves and thirds mixed so that rows differ in their denominators."""
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    cuts = sorted(rng.randint(0, nc) for _ in range(nr)) if rng.random() < 0.5 else None
    rows = []
    for r in range(nr):
        row = []
        for c in range(nc):
            is_x = c < cuts[r] if cuts else rng.random() < 0.5
            if cuts and rng.random() < 0.05:
                is_x = not is_x  # a broken staircase
            if is_x:
                value = rng.choice((1, 1, 2, Fraction(1, 2), Fraction(2, 3)))
            else:
                value = rng.choice((0, 0, 1, 1, 2, Fraction(3, 2), Fraction(5, 3)))
            row.append(nx_x(value) if is_x else nx_const(value))
        rows.append(tuple(row))
    return NXMatrix(tuple(rows))


def _tagged(*rows):
    """A tagged matrix from rows of ints (constants) and ("x", c) pairs."""
    return NXMatrix(tuple(tuple(nx_x(e[1]) if isinstance(e, tuple) else nx_const(e) for e in row) for row in rows))


X = ("x", 1)

# Each matrix breaks only the condition it is named for; some of these
# violations show only on a non-adjacent pair (a zero vector or another
# vector between them).
_PLANTED = {
    "southwest": (_tagged((1, 1, X), (1, 1, 1), (X, X, X)), "southwest", None),
    "same-form constants": (_tagged((1, 0, 2), (2, 0, 1)), "minor", "same-form"),
    "same-form x": (_tagged((X, ("x", 2), 1), (X, X, 0)), "minor", "same-form"),
    "constant row over x row": (_tagged((2, 2, 1), (X, X, X)), "minor", "mixed-form"),
    "x column beside constant column": (_tagged((X, 1), (X, 2)), "minor", "mixed-form"),
    "x column beside constant column, rows apart": (
        _tagged((X, 1, 1), (X, X, 1), (X, 2, 2)),
        "minor",
        "mixed-form",
    ),
}


class TestFiskOracle:
    """fisk_nx_check against the scan of every 2x2 submatrix."""

    def test_agrees_with_the_scan_on_random_matrices(self):
        rng = random.Random(20140)
        verdicts = {True: 0, False: 0}
        for _ in range(3000):
            m = _random_tagged(rng)
            ok, witness = fisk_nx_check(m)
            expected_ok, expected_witness = _fisk_scan(m)
            assert ok == expected_ok, m
            if ok:
                assert witness is None
            else:
                assert _is_violation(m, witness), (m, witness)
                assert witness["kind"] == expected_witness["kind"], m  # (1) is checked first by both
            verdicts[ok] += 1
        assert min(verdicts.values()) >= 600, verdicts

    @pytest.mark.parametrize("name", sorted(_PLANTED))
    def test_planted_violation_found(self, name):
        m, kind, condition = _PLANTED[name]
        ok, witness = fisk_nx_check(m)
        assert not ok and witness["kind"] == kind and witness.get("condition") == condition
        assert _is_violation(m, witness)
        assert {(w["kind"], w.get("condition")) for w in _violations(m)} == {(kind, condition)}
        assert _fisk_scan(m)[0] is False

    def test_validator_rejects_non_violations(self):
        m = _tagged((1, 1), (X, 1))
        assert fisk_nx_check(m) == (True, None)
        assert not _is_violation(m, {"kind": "southwest", "x_cell": [1, 0], "cell": [0, 1]})
        assert not _is_violation(m, _minor(0, 1, 0, 1, "same-form"))
        assert not _is_violation(m, _minor(0, 1, 0, 1, "mixed-form"))


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


# Malformed arguments to the public entries of the recurrence layer: each raised a raw
# TypeError or AttributeError before it was gated.
MALFORMED = [None, 1.5, "3", [1, 2], QPoly((1, 2)), XPoly((1, 2)), QXPoly((QPoly((1,)),))]
MALFORMED_ENTRIES = {
    "recurrence_nx_matrix": (recurrence_nx_matrix, ()),
    "fisk_nx_check": (fisk_nx_check, ()),
    "interlacing_transform": (lambda v: interlacing_transform(v, TransformSpec((1, 2))), ()),
    "interlacing_transform_spec": (lambda v: interlacing_transform([xpoly(1, 1)], v), ()),
    "weighted_combination": (lambda v: weighted_combination(v, WeightedComboSpec((1,), (1,))), ()),
    "weighted_combination_spec": (lambda v: weighted_combination([xpoly(1, 1)], v), ()),
    "WeightedComboSpec": (lambda v: WeightedComboSpec(v, v), ([1, 2],)),
    "RefinedFamily": (lambda v: RefinedFamily(v, ()), ()),
    "run_suite_q_samples": (lambda v: run_suite("paper_tables", q_samples=v), (None, [1, 2])),
}


@pytest.mark.parametrize(
    "entry, value",
    [(name, v) for name, (_, valid) in MALFORMED_ENTRIES.items() for v in MALFORMED if v not in valid],
    ids=lambda x: x if isinstance(x, str) and x in MALFORMED_ENTRIES else type(x).__name__,
)
def test_malformed_arguments_raise_usage_error(entry, value):
    with pytest.raises(UsageError):
        MALFORMED_ENTRIES[entry][0](value)


# ---------------------------------------------------------------------------
# Oracles for the packed-integer builds: the per-step polynomial routes
# ---------------------------------------------------------------------------


def _prefix_transform(fs, thresholds):
    """g_k = x * sum(fs[:t_k - 1]) + sum(fs[t_k - 1:]) on polynomial values."""
    prefix = [type(fs[0])()]
    for p in fs:
        prefix.append(prefix[-1] + p)
    total = prefix[-1]
    return tuple(prefix[t - 1].shift_up(1) + (total - prefix[t - 1]) for t in thresholds)


def _qxpoly_Tq_ranks(top):
    """The q-refined family at ranks 2..top, one QXPoly transform per rank."""
    one_plus_q, q_plus_q2 = qpoly(1, 1), qpoly(0, 1, 1)
    fam = (
        QXPoly((one_plus_q,)),
        QXPoly((QPoly(), one_plus_q)),
        QXPoly((QPoly(), q_plus_q2)),
        QXPoly((QPoly(), QPoly(), q_plus_q2)),
    )
    ranks = {2: fam}
    for n in range(3, top + 1):
        out = _prefix_transform(fam, [ceil_index(n, i) + 1 for i in range(2 * n)])
        fam = ranks[n] = out[:n] + tuple(p * qpoly(0, 1) for p in out[n:])
    return ranks


def _xpoly_affine(n):
    """The affine refined family by the XPoly band loop over refined_T1(n-1)."""
    prev = refined_T1(n - 1)
    lower = []
    for i in range(n):
        out = XPoly()
        for j in range(2 * n - 2):
            out = out + prev[j].shift_up((j < i) + (j < 2 * n - i - 2))
        lower.append(out)
    return tuple(lower + [lower[2 * n - 1 - k] for k in range(n, 2 * n)])


def _xpoly_commutes(rec, n):
    """Dup_n * rec against rec * Dup_(n-1) by XPoly matrix products."""

    def mat_mul(lhs, rhs):
        return tuple(
            tuple(
                sum((lhs[r][k] * rhs[k][c] for k in range(len(rhs))), XPoly())
                for c in range(len(rhs[0]))
            )
            for r in range(len(lhs))
        )

    def dup(m):
        # [[I_m, I_m], [x I_m, I_m]]
        def entry(r, c):
            if r == c or c == r + m:
                return X_ONE
            return X_VAR if r == c + m else X_ZERO

        return tuple(tuple(entry(r, c) for c in range(2 * m)) for r in range(2 * m))

    lhs = mat_mul(dup(n), rec)
    rhs = mat_mul(rec, dup(n - 1))
    for r in range(2 * n):
        for c in range(2 * n - 2):
            if lhs[r][c] != rhs[r][c]:
                return False, {"row": r, "col": c}
    return True, None


def _both_matrix_routes(n, mutations=()):
    """Verdicts of the integer route and the XPoly route on one recurrence
    block, with cells (r, c) set to the tagged entry ``v`` by ``mutations``."""
    rows = [list(r) for r in recurrence_nx_matrix(n).rows]
    for r, c, v in mutations:
        rows[r][c] = v
    packed = recurrences._duplication_commutes(NXMatrix(tuple(map(tuple, rows))), n)
    poly = _xpoly_commutes([[(X_VAR if e.is_x else X_ONE) * e.value for e in r] for r in rows], n)
    return packed, poly


class TestPackedOracles:
    def test_Tq_matches_the_qxpoly_route(self):
        ranks = _qxpoly_Tq_ranks(25)
        for n in range(2, 26):
            assert refined_Tq(n).polys == ranks[n], n

    def test_T1_is_Tq_at_q1(self):
        for n in range(2, 26):
            assert refined_T1(n) == tuple(p.eval_q(1) for p in refined_Tq(n).polys), n

    def test_k_two_methods_through_rank_25(self):
        for n in range(3, 26):
            assert check_identity("k_two_methods", n).verdict == "pass", n

    def test_affine_matches_the_xpoly_band_loop(self):
        for n in range(3, 21):
            assert refined_affine_T(n).polys == _xpoly_affine(n), n

    def test_assembled_sums_match_the_polynomial_sums(self):
        ranks = _qxpoly_Tq_ranks(12)
        for n in (3, 4, 7, 12):
            total = QXPoly()
            for p in ranks[n]:
                total = total + p
            assert assemble("Tq", n) == total
            t = refined_T1(n - 1)
            weighted = XPoly()
            for i in range(n - 1):
                weighted = weighted + xpoly(i + 1, n - i - 1) * (t[i].shift_up(1) + t[n + i - 1])
            assert assemble("tildeD", n) == weighted

    def test_matrix_identity_matches_the_xpoly_route(self):
        for n in range(3, 13):
            packed, poly = _both_matrix_routes(n)
            assert packed == poly == (True, None)
            assert recurrences.evaluate_identity("matrix_identity", n) == packed

    def test_mutated_block_gives_the_same_witness(self):
        for n in (3, 5, 8, 12):
            last_row, last_col = 2 * n - 1, 2 * n - 3
            for mutations in (
                [(0, 0, nx_x())],
                [(n, n - 1, nx_x())],
                [(last_row, last_col, nx_const(0))],
                [(n - 1, 1, nx_const(1)), (last_row, 0, nx_const(1))],
            ):
                packed, poly = _both_matrix_routes(n, mutations)
                assert packed[0] is False, (n, mutations)
                assert packed == poly, (n, mutations)


def reference_pack(rows, layout: _Layout) -> _Packed:
    """rows[i][j], the coefficient of x^i q^j, packed by joining the little-endian bytes of
    each field, every row padded to Q fields: the packing the value at 2^W must equal."""
    size = layout.width // 8
    assert all(len(row) <= layout.q_fields for row in rows)
    parts = [c.to_bytes(size, "little") for row in rows for c in list(row) + [0] * (layout.q_fields - len(row))]
    return _Packed(int.from_bytes(b"".join(parts), "little"), layout)


class TestPackedCarrier:
    def test_unpacked_values_equal_validated_ones(self):
        qx = refined_Tq(7).polys + (assemble("Tq", 7),)
        for p in qx:
            v = QXPoly(tuple(QPoly(tuple(c.coeffs)) for c in p.coeffs))
            assert v.coeffs == p.coeffs and hash(v) == hash(p) and v == p
            assert p.coeffs[-1] and all(not c.coeffs or c.coeffs[-1] for c in p.coeffs)
            assert all(type(c) is QPoly and all(type(a) is int for a in c.coeffs) for c in p.coeffs)
        x = (
            refined_T1(7)
            + refined_affine_T(7).polys
            + refined_K(7, "direct").polys
            + refined_K(7, "recurrence").polys
            + (assemble("tildeD", 7),)
        )
        for p in x:
            v = XPoly(tuple(p.coeffs))
            assert v.coeffs == p.coeffs and hash(v) == hash(p) and v == p
            assert p.coeffs[-1] and all(type(c) is Fraction for c in p.coeffs)

    def test_width_holds_twice_the_group_order(self):
        for n in range(2, 41):
            order = 2**n * factorial(n)
            layout = _layout(n, 1)
            assert layout.width % 8 == 0
            assert reference_pack([[2 * order]], layout).rows() == [[2 * order]]
        for n in range(2, 61):
            # a full grid: every field of an (n+1) x (n+1) two-variable entry at the bound
            grid = [[2**n * factorial(n) * 2] * (n + 1) for _ in range(n + 1)]
            assert reference_pack(grid, _layout(n, n + 1)).rows() == grid, n

    def test_width_is_the_byte_rounded_bit_length_of_twice_the_group_order(self):
        for n in range(2, 81):
            bits = (factorial(n) << (n + 1)).bit_length()
            for q in (1, n + 1):
                assert _layout(n, q) == _Layout(q, -(-bits // 8) * 8), n

    def test_seeds_are_the_reference_packs(self):
        for rows, layout in ((recurrences._TQ_SEED, _layout(2, 3)), (recurrences._T1_SEED, _layout(2, 1))):
            seed = recurrences._seed(rows, layout)
            assert [p.value for p in seed] == [reference_pack(r, layout).value for r in rows]
            padded = [[list(r) + [0] * (layout.q_fields - len(r)) for r in entry] for entry in rows]
            assert [p.rows() for p in seed] == padded

    def test_repack_inserts_zero_fields_only(self):
        fam = recurrences._TQ_STORE.rank(10)
        width = fam[0].layout.width
        for layout in (_Layout(11, width + 8), _Layout(14, width), _layout(13, 17)):
            for p in fam:
                wide = p.repack(layout)
                assert wide.value == reference_pack(p.rows(), layout).value
                assert wide.to_qx() == p.to_qx()
        for layout in (_Layout(10, width), _Layout(11, width - 8)):
            with pytest.raises(PackingError):
                fam[0].repack(layout)

    def test_resumed_rank_equals_cold_rank(self):
        store = recurrences._TQ_STORE
        store.cache_clear()
        cold = [p.to_qx() for p in store.rank(12)]
        store.cache_clear()
        store.rank(5)
        resumed = [p.to_qx() for p in store.rank(12)]
        assert resumed == cold
        assert store.cache_info() == (0, 2, store.maxsize, 2)
        store.rank(5)
        assert store.cache_info().hits == 1

    def test_refined_Tq_unpacks_from_its_one_store(self):
        store = recurrences._TQ_STORE
        store.cache_clear()
        fam = refined_Tq(12)
        assert store.cache_info() == (0, 1, store.maxsize, 1)
        assert refined_Tq(12) == fam
        assert store.cache_info() == (1, 1, store.maxsize, 1)

    def test_rank_store_stays_bounded(self):
        store = recurrences._T1_STORE
        for n in range(2, 3 * store.maxsize + 2):
            store.rank(n)
            assert store.cache_info().currsize <= store.maxsize
        assert refined_T1(9) == tuple(p.to_x() for p in store.rank(9))
