import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

import weylpoly
from weylpoly import (
    DivisibilityError,
    QPoly,
    QXPoly,
    UsageError,
    XPoly,
    coeff_props,
    exact_divide,
    is_real_rooted,
    poly_from_json,
    poly_gcd,
    qpoly,
    qxpoly,
    xpoly,
)
from weylpoly import (
    WeightedComboSpec,
    assemble,
    brute_polynomial,
    ceil_index,
    count_roots_in,
    enumerate_objects,
    eval_q,
    interlace_via_stability,
    interlaces,
    isolate_roots,
    mutually_interlacing,
    nx_const,
    nx_x,
    q_positive_on_positive_reals,
    realroots,
    refined_K,
    refined_Tq,
    run_suite,
    square_free,
    verify,
)
from weylpoly.exactpoly import (
    NEG_INF,
    _DensePoly,
    _canonical,
    _digits,
    _rational,
    _prem,
    _prs,
    poly_to_json,
    qxpoly_from_json,
    qxpoly_to_json,
    xpoly_from_json,
    xpoly_to_json,
)

K40 = xpoly(2, 32, 50, 12)
K43 = xpoly(0, 12, 50, 32, 2)


def rand_xpoly(rng, max_deg=5, span=9):
    return xpoly(*[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(rng.randint(0, max_deg + 1))])


def rand_qxpoly(rng, max_deg=4, span=6):
    return qxpoly(
        *[
            tuple(rng.randint(-span, span) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(0, max_deg + 1))
        ]
    )


def fraction_rem(a: XPoly, b: XPoly) -> XPoly:
    """Remainder of a / b by schoolbook long division over Fraction."""
    rem = list(a.coeffs)
    db = b.degree
    while rem and len(rem) - 1 >= db:
        t = rem[-1] / b.leading
        shift = len(rem) - 1 - db
        for k, c in enumerate(b.coeffs):
            rem[shift + k] -= t * c
        rem.pop()
    return XPoly(tuple(rem))


def fraction_euclid_gcd(a: XPoly, b: XPoly) -> XPoly:
    """Reference gcd: the Euclid loop over Fraction remainders."""
    while not b.is_zero():
        a, b = b, fraction_rem(a, b)
    return a.monic()


X = sp.symbols("x")


def to_sympy(p: XPoly):
    return sum(sp.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(p.coeffs))


def from_sympy(p: sp.Poly) -> XPoly:
    return xpoly(*[Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())])


class TestArith:
    def test_add(self):
        assert xpoly(1, 1) + xpoly(0, 1) == xpoly(1, 2)

    def test_mul_mixed_ring(self):
        lhs = qxpoly(1, 1) * qxpoly((1,), (0, 1))
        assert lhs == qxpoly((1,), (1, 1), (0, 1))

    def test_scale(self):
        assert xpoly(0, 2) * Fraction(1, 2) == xpoly(0, 1)

    def test_kind_mismatch_raises(self):
        with pytest.raises(TypeError):
            xpoly(1, 1) + qxpoly((1,), (1,))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QPoly((1.5,)),
            lambda: qpoly(1.5),
            lambda: QPoly(("3",)),
            lambda: qpoly(2, Fraction(1)),
            lambda: qxpoly((1, 0.5)),
        ],
    )
    def test_non_integer_q_coefficient_rejected(self, build):
        # a float used to be truncated and a string parsed
        with pytest.raises(UsageError):
            build()

    def test_zero_degree_sentinel(self):
        assert XPoly().degree == NEG_INF
        assert QPoly().degree == NEG_INF
        assert QXPoly().degree == NEG_INF
        assert xpoly(5).degree == 0

    def test_ring_laws_random(self):
        rng = random.Random(20260810)
        for _ in range(60):
            a, b, c = (rand_xpoly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
        for _ in range(40):
            a, b, c = (rand_qxpoly(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


class TestHash:
    def test_every_kind_uses_the_base_equality(self):
        for cls in (XPoly, QPoly, QXPoly):
            assert cls.__eq__ is _DensePoly.__eq__

    def test_equal_polynomials_hash_equal(self):
        pairs = [
            (xpoly(1, Fraction(2, 3), 5), XPoly((Fraction(1), Fraction(4, 6), Fraction(5), Fraction(0)))),
            (qpoly(1, -2, 7), QPoly((1, -2, 7, 0))),
            (qxpoly((1, 1), 3), QXPoly((QPoly((1, 1)), QPoly((3,)), QPoly()))),
        ]
        for a, b in pairs:
            assert a == b and a is not b
            assert hash(a) == hash(b)

    def test_profile_cache_hits_an_equal_polynomial(self):
        # an equal copy and every nonzero rational multiple share one profile
        p = xpoly(2, 3, 1) * xpoly(5, 1)
        multiples = [
            xpoly(2, 3, 1) * xpoly(5, 1),
            p * 2,
            p * Fraction(1, 3),
            -p,
            p * Fraction(-7, 2),
        ]
        realroots._profile.cache_clear()
        assert is_real_rooted(p)
        for q in multiples:
            assert is_real_rooted(q), str(q)
        info = realroots._profile.cache_info()
        assert (info.misses, info.hits) == (1, len(multiples))


class TestExactDivide:
    def test_tq2_by_one_plus_q(self):
        t2 = qxpoly((1, 1), (1, 2, 1), (0, 1, 1))
        want = qxpoly((1,), (1, 1), (0, 1))  # (1 + x)(1 + qx) expanded
        assert exact_divide(t2, qpoly(1, 1)) == want

    def test_linear_factor(self):
        assert exact_divide(xpoly(-1, 0, 1), xpoly(-1, 1)) == xpoly(1, 1)

    def test_non_factor_carries_remainder(self):
        with pytest.raises(DivisibilityError) as err:
            exact_divide(xpoly(1, 0, 1), xpoly(1, 1))
        assert err.value.remainder is not None
        assert not err.value.remainder.is_zero()

    def test_zero_divisor(self):
        with pytest.raises(UsageError):
            exact_divide(xpoly(1, 1), XPoly())

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rand_xpoly(rng)
            b = rand_xpoly(rng)
            if b.is_zero():
                continue
            assert exact_divide(a * b, b) == a
        for _ in range(40):
            a = rand_qxpoly(rng)
            b = rand_qxpoly(rng)
            if b.is_zero():
                continue
            assert exact_divide(a * b, b) == a


class TestDerivative:
    def test_power_rule(self):
        assert xpoly(2, 3, 1).derivative() == xpoly(3, 2)

    def test_constant(self):
        assert xpoly(5).derivative() == XPoly()

    def test_coupled_family_entry(self):
        assert K40.derivative() == xpoly(32, 100, 36)


class TestGcd:
    def test_common_factor(self):
        a = xpoly(1, 1) * xpoly(1, 1)
        b = xpoly(1, 1) * xpoly(2, 1)
        assert poly_gcd(a, b) == xpoly(1, 1)

    def test_identical_entries(self):
        assert poly_gcd(K43, K43) == K43.monic()

    def test_coprime(self):
        assert poly_gcd(xpoly(1, 1), xpoly(2, 1)) == xpoly(1)

    def test_both_zero(self):
        with pytest.raises(UsageError):
            poly_gcd(XPoly(), XPoly())

    def test_divides_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a, b = rand_xpoly(rng), rand_xpoly(rng)
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            if not a.is_zero():
                assert exact_divide(a, g) * g == a
            if not b.is_zero():
                assert exact_divide(b, g) * g == b

    def test_matches_sympy_and_fraction_euclid_fuzz(self):
        rng = random.Random(31)
        for trial in range(150):
            common = xpoly(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5)))
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                common = common * xpoly(-root, 1) ** rng.randint(1, 3)
            if rng.random() < 0.3:
                common = common * xpoly(rng.randint(1, 4), rng.randint(-2, 2), 1)
            a = common * rand_xpoly(rng, max_deg=4)
            b = common * rand_xpoly(rng, max_deg=4)
            if trial % 10 == 0:
                b = XPoly()
            elif trial % 10 == 1:
                b = xpoly(Fraction(-rng.randint(1, 9), rng.randint(1, 9)))
            if a.is_zero() and b.is_zero():
                continue
            got = poly_gcd(a, b)
            want = sp.Poly(to_sympy(a), X, domain="QQ").gcd(sp.Poly(to_sympy(b), X, domain="QQ"))
            assert got == from_sympy(want.monic()), (str(a), str(b))
            assert got == fraction_euclid_gcd(a, b)
            for f, g in ((a, b), (b, a)):
                last = _prs(_canonical(f), _canonical(g))[-1]
                assert XPoly(last).monic() == from_sympy(want.monic()), (str(f), str(g))

    def test_zero_or_constant_operand(self):
        p = xpoly(-6, 3, 3)
        assert poly_gcd(p, XPoly()) == poly_gcd(XPoly(), p) == xpoly(-2, 1, 1)
        assert poly_gcd(p, xpoly(Fraction(-2, 7))) == xpoly(1)
        assert poly_gcd(xpoly(5), XPoly()) == xpoly(1)


class TestIntegerKernel:
    def test_canonical_is_primitive_with_positive_leading_coefficient(self):
        assert _canonical(xpoly(Fraction(-1, 2), Fraction(3, 4), 0)) == (-2, 3)
        assert _canonical(xpoly(4, -6)) == (-2, 3)
        assert _canonical(xpoly(Fraction(2, 3), Fraction(-4, 9))) == (-3, 2)
        assert _canonical(xpoly(Fraction(-5, 7))) == (1,)
        assert _canonical(qpoly(6, 0, -4)) == (-3, 0, 2)
        assert _canonical(XPoly()) == ()

    def test_prem_is_positive_power_times_rational_remainder(self):
        rng = random.Random(5)
        for _ in range(100):
            f = [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))]
            g = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
            if not g[-1]:
                g[-1] = rng.choice([-7, -1, 3])
            power = max(len(f) - len(g) + 1, 0)
            want = fraction_rem(xpoly(*f), xpoly(*g)) * abs(g[-1]) ** power
            assert xpoly(*_prem(f, g)) == want, (f, g)


class TestEvalQ:
    def test_constant_entry(self):
        assert qxpoly((1, 1)).eval_q(1) == xpoly(2)

    def test_rank4_entry_at_one(self):
        from weylpoly.tables import T4_TABLE

        assert T4_TABLE[0].eval_q(1) == xpoly(2, 22, 22, 2)

    def test_q_zero_reduction(self):
        from weylpoly import assemble, brute_polynomial

        for n in (2, 3, 4):
            assert assemble("Dq", n).eval_q(0) == brute_polynomial("A", n - 1)

    def test_homomorphism_random(self):
        rng = random.Random(99)
        for _ in range(40):
            a, b = rand_qxpoly(rng), rand_qxpoly(rng)
            q0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            assert (a * b).eval_q(q0) == a.eval_q(q0) * b.eval_q(q0)
            assert (a + b).eval_q(q0) == a.eval_q(q0) + b.eval_q(q0)


class TestCoeffProps:
    def test_affine_rank3(self):
        props = coeff_props(xpoly(0, 4, 16, 4))
        assert props.nonnegative and props.symmetric and props.unimodal and props.log_concave

    def test_classical_rank2(self):
        props = coeff_props(xpoly(1, 4, 1))
        assert props.nonnegative and props.symmetric and props.unimodal and props.log_concave

    def test_gap_sequence(self):
        props = coeff_props(xpoly(1, 0, 1))
        assert not props.log_concave
        assert not props.unimodal
        assert props.symmetric

    def test_asymmetric(self):
        assert not coeff_props(xpoly(1, 2)).symmetric

    def test_span_ignores_leading_zeros(self):
        assert coeff_props(xpoly(0, 10, 28, 10)).symmetric


class TestJson:
    def test_xpoly_schema_and_roundtrip(self):
        p = xpoly(Fraction(-7, 3), 0, Fraction(10**40, 7))
        blob = xpoly_to_json(p)
        assert blob["var"] == "x"
        assert all(isinstance(v, str) for pair in blob["coeffs"] for v in pair)
        assert xpoly_from_json(json.loads(json.dumps(blob))) == p

    def test_qxpoly_schema_and_roundtrip(self):
        p = qxpoly((1, -(10**30)), (), (0, 0, 7))
        blob = qxpoly_to_json(p)
        assert blob["vars"] == ["x", "q"]
        assert qxpoly_from_json(json.loads(json.dumps(blob))) == p

    def test_generic_dispatch(self):
        for p in (xpoly(1, 2), qxpoly((1,), (2, 3))):
            assert poly_from_json(json.loads(json.dumps(poly_to_json(p)))) == p

    def test_wrong_schema(self):
        with pytest.raises(UsageError):
            xpoly_from_json({"var": "y", "coeffs": []})


class TestRendering:
    def test_single_variable(self):
        assert str(xpoly(0, 4, 16, 4)) == "4x + 16x^2 + 4x^3"
        assert str(XPoly()) == "0"
        assert str(xpoly(-1, 1)) == "-1 + x"

    def test_two_variable(self):
        t2 = qxpoly((1, 1), (1, 2, 1), (0, 1, 1))
        assert str(t2) == "(1 + q) + (1 + 2q + q^2)x + (q + q^2)x^2"


class TestExactOnly:
    def test_no_float_call_in_src(self):
        """No decision in the package goes through floating point; the one float is NEG_INF."""
        found = []
        for path in sorted(Path(weylpoly.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                is_float = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
                if is_float and ast.unparse(node) != "float('-inf')":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_no_float_literal_outside_report(self):
        """Float literals appear only in report.py, which formats timings."""
        found = []
        for path in sorted(Path(weylpoly.__file__).parent.glob("*.py")):
            if path.name == "report.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, float):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


_LINE = xpoly(-1, 1)

# Every public entry point that takes a rational from outside, by name.
_RATIONAL_ENTRIES = {
    "XPoly": lambda v: XPoly((v,)),
    "xpoly": lambda v: xpoly(1, v),
    "evaluate": lambda v: _LINE.evaluate(v),
    "eval_q": lambda v: eval_q(qxpoly((1, 1), (0, 1)), v),
    "WeightedComboSpec": lambda v: WeightedComboSpec((v,), (1,)),
    "nx_const": nx_const,
    "nx_x": nx_x,
    "isolate_roots width": lambda v: isolate_roots(_LINE, v),
    "count_roots_in lo": lambda v: count_roots_in(_LINE, v, 10),
    "count_roots_in hi": lambda v: count_roots_in(_LINE, 0, v),
    "run_suite q samples": lambda v: run_suite("interlacing", max_n=4, q_samples=(Fraction(1, 2), v)),
}


_POSITIVE = xpoly(1, 1)

# Every public entry point that takes a polynomial in one variable, by name and argument.
_UNIVARIATE_ENTRIES = {
    "isolate_roots": isolate_roots,
    "is_real_rooted": is_real_rooted,
    "square_free": square_free,
    "count_roots_in": lambda p: count_roots_in(p, 0, 1),
    "interlaces g": lambda p: interlaces(p, _POSITIVE),
    "interlaces f": lambda p: interlaces(_POSITIVE, p),
    "mutually_interlacing": lambda p: mutually_interlacing([p, _POSITIVE]),
    "poly_gcd a": lambda p: poly_gcd(p, _POSITIVE),
    "poly_gcd b": lambda p: poly_gcd(_POSITIVE, p),
    "coeff_props": coeff_props,
    "interlace_via_stability f": lambda p: interlace_via_stability(p, _POSITIVE),
    "interlace_via_stability g": lambda p: interlace_via_stability(_POSITIVE, p),
    "q_positive_on_positive_reals": q_positive_on_positive_reals,
}


class TestUnivariateGate:
    """One gate for polynomials in one variable: XPoly and QPoly pass, nothing else."""

    @pytest.mark.parametrize("entry", sorted(_UNIVARIATE_ENTRIES))
    @pytest.mark.parametrize("bad", [qxpoly((1, 1), (0, 1)), [1, 2], None], ids=["QXPoly", "list", "None"])
    def test_other_kinds_rejected_before_use(self, entry, bad):
        # a list raised AttributeError ('list' object has no attribute 'is_zero'), a QXPoly
        # AttributeError or TypeError
        realroots._profile.cache_clear()
        with pytest.raises(UsageError, match="must be an XPoly or a QPoly"):
            _UNIVARIATE_ENTRIES[entry](bad)
        assert realroots._profile.cache_info().currsize == 0

    @pytest.mark.parametrize("entry", sorted(_UNIVARIATE_ENTRIES))
    def test_xpoly_and_qpoly_accepted(self, entry):
        for good in (xpoly(2, 1), qpoly(2, 1)):
            _UNIVARIATE_ENTRIES[entry](good)

    def test_count_roots_in_checks_its_bounds_before_any_sturm_chain(self, monkeypatch):
        chains = []
        monkeypatch.setattr(realroots, "_sturm_chain", lambda ints: chains.append(ints))
        for lo, hi in ((1, 0), (0.5, 1), (0, None)):
            with pytest.raises(UsageError):
                count_roots_in(xpoly(1, 1) ** 2, lo, hi)
        assert chains == []


class TestDigits:
    def test_round_trip_on_random_digit_lists(self):
        rng = random.Random(2026)

        def trim(ds):
            ds = list(ds)
            while ds and not ds[-1]:
                ds.pop()
            return ds

        for nb in range(1, 10):
            half = 1 << (8 * nb - 1)
            assert _digits(0, nb) == [0] and _digits(0, nb, 3) == [0, 0, 0]
            lists = [[-half], [half - 1], [-half] * 5, [half - 1] * 5, [0, 0, -half], [half - 1, 0, 0]]
            for _ in range(80):
                count = rng.randint(1, 12)
                lists.append([rng.choice((-half, half - 1, 0, rng.randrange(-half, half))) for _ in range(count)])
            for ds in lists:
                v = sum(c << 8 * nb * k for k, c in enumerate(ds))
                assert _digits(v, nb, len(ds)) == ds, (nb, ds)
                assert _digits(v, nb, len(ds) + 3) == ds + [0, 0, 0], (nb, ds)
                got = _digits(v, nb)
                assert trim(got) == trim(ds) and len(got) <= len(trim(ds)) + 1, (nb, ds)

    def test_values_at_powers_of_two_read_back(self):
        # 2^(W c - 1) - 1 needs c + 1 digits, [-1, ..., -2^(W-1), 1]
        for nb in range(1, 10):
            w, half = 8 * nb, 1 << (8 * nb - 1)
            for c in range(1, 5):
                for v in (1 << (w * c - 1), -(1 << (w * c - 1))):
                    for v in (v - 1, v, v + 1):
                        got = _digits(v, nb)
                        assert sum(d << w * k for k, d in enumerate(got)) == v, (nb, v)
                        assert all(-half <= d < half for d in got), (nb, v)


class TestGate:
    """One gate for numbers from outside: ints and Fractions pass, nothing else."""

    @pytest.mark.parametrize("entry", sorted(_RATIONAL_ENTRIES))
    @pytest.mark.parametrize("bad", [0.1, "1/2", "a", float("nan"), float("inf"), None], ids=repr)
    def test_non_rational_rejected(self, entry, bad, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "timed_entry", lambda *args: ran.append(args))
        with pytest.raises(UsageError):
            _RATIONAL_ENTRIES[entry](bad)
        assert ran == []  # run_suite raises before any check runs

    @pytest.mark.parametrize("entry", sorted(_RATIONAL_ENTRIES))
    def test_ints_and_fractions_accepted(self, entry, monkeypatch):
        monkeypatch.setattr(verify, "timed_entry", lambda *args: None)
        for good in (3, Fraction(7, 2)):
            _RATIONAL_ENTRIES[entry](good)

    def test_fraction_passes_through_unchanged(self):
        v = Fraction(5, 3)
        assert _rational(v, "v") is v
        assert XPoly((v,)).coeffs[0] is v
        assert type(_rational(True, "v")) is Fraction

    def test_float_q_sample_raises_where_the_fraction_passes(self):
        with pytest.raises(UsageError, match="q sample"):
            run_suite("interlacing", max_n=4, q_samples=(0.1,))
        report = run_suite("interlacing", max_n=4, q_samples=(Fraction(1, 10),))
        assert report.all_passed

    @pytest.mark.parametrize(
        "call",
        [
            lambda: assemble("Tq", 2.5),
            lambda: refined_Tq("4"),
            lambda: brute_polynomial("B", 2.5),
            lambda: brute_polynomial("A", "2"),
            lambda: run_suite("identities", 3.5),
            lambda: ceil_index(4.0, 1),
            lambda: refined_K(None),
            lambda: brute_polynomial("refined_Tq", 3, index=1.5),
            lambda: brute_polynomial("refined_Tq", 3, index="1"),
            lambda: ceil_index(4, 1.5),
            lambda: brute_polynomial("B", 3, cap="9"),
            lambda: brute_polynomial("B", 3, cap=2.5),
            lambda: run_suite("oracles", max_n=3, cap=3.5),
            lambda: enumerate_objects("signed_perms", 2.5),
        ],
        ids=[
            "assemble",
            "refined_Tq",
            "brute_B",
            "brute_A",
            "run_suite",
            "ceil_index",
            "refined_K",
            "brute_index",
            "brute_index_str",
            "ceil_index_i",
            "brute_cap_str",
            "brute_cap",
            "run_suite_cap",
            "enumerate_objects",
        ],
    )
    def test_non_integer_rank_rejected(self, call):
        # each raised an untyped TypeError, returned a wrong answer (index=1.5 gave
        # the zero polynomial, ceil_index(4, 1.5) the float 2.0) or ran on before the gate
        with pytest.raises(UsageError, match="must be an integer"):
            call()

    def test_rank_below_the_least_rejected(self):
        with pytest.raises(UsageError, match="Tq rank 1 is below the smallest rank 2"):
            assemble("Tq", 1)
        with pytest.raises(UsageError, match="max_n 1 is below the smallest rank 2"):
            run_suite("identities", 1)

    def test_negative_shift_rejected(self):
        # shift_up(-1) used to return the polynomial unchanged
        with pytest.raises(UsageError):
            xpoly(1, 2).shift_up(-1)
        with pytest.raises(UsageError):
            qpoly(1, 2).shift_up(-2)
        assert xpoly(1, 2).shift_up(0) == xpoly(1, 2)

    @pytest.mark.parametrize("n", [1.5, -1, "2", None])
    def test_non_natural_power_rejected(self, n):
        with pytest.raises(UsageError):
            xpoly(1, 2) ** n
        assert xpoly(1, 1) ** 2 == xpoly(1, 2, 1)
