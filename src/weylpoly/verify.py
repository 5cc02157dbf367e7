"""Named verification suites orchestrating checks from every module.

Each suite builds a list of (check_id, parameters, thunk) triples; the
runner times each thunk in order with ``timed_entry``, so output is
deterministic.  A thunk returns (ok, witness) with a JSON-ready witness; a
skipped check has None in place of the thunk.

Every check with a rank n comes from one rule, ``_ranked(first, last, rows, **params)``:
rows of (check_id, least, check) expand rank-major, each row at every n in first..last
with n >= least, so each check starts at its own first rank and none runs above the
ceiling ``last``; an entry's parameters are {"n": n} and then ``params`` (the q of a
q-sample group), and its thunk is ``partial(check, n)``.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import factorial

from . import tables
from .errors import DivisibilityError, DomainError, EnumerationCapError, UsageError
from .exactpoly import QPoly, XPoly, _rank, _rational, coeff_props, poly_to_json, qpoly
from .realroots import interlaces, is_real_rooted, isolate_roots, mutually_interlacing
from .recurrences import (
    _IDENTITIES,
    evaluate_identity,
    fisk_nx_check,
    recurrence_nx_matrix,
    refined_affine_T,
    refined_K,
    refined_T1,
    refined_Tq,
    assemble,
)
from .report import VerificationReport, poly_equality, timed_entry
from .stability import (
    build_C,
    hurwitz_determinants,
    interlace_via_stability,
    q_positive_on_positive_reals,
)
from .weylcomb import _check_cap, brute_polynomial, psi, psi_inverse, resolve_cap

SUITES = ("paper_tables", "oracles", "identities", "interlacing", "stability", "all")

DEFAULT_Q_SAMPLES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))

_Check = tuple[str, dict, Callable | None]


def _ranked(first: int, last: int, rows: Sequence[tuple[str, int, Callable]], **params) -> list[_Check]:
    """The checks of ``rows`` at ranks first..last, rank-major; see the module docstring."""
    return [
        (check_id, {"n": n, **params}, partial(check, n))
        for n in range(first, last + 1)
        for check_id, least, check in rows
        if n >= least
    ]


# ---------------------------------------------------------------------------
# paper_tables
# ---------------------------------------------------------------------------


def _check_table_T4(i: int):
    return poly_equality(refined_Tq(4).polys[i], tables.T4_TABLE[i])


def _check_T4_scalar_relations():
    fam = refined_Tq(4).polys
    q = QPoly((0, 1))
    ok1 = fam[4] == fam[3] * q
    ok2 = fam[7] == fam[0].shift_up(1) * q
    ok = ok1 and ok2
    return ok, None if ok else {"entry4_is_q_times_entry3": ok1, "entry7_is_qx_times_entry0": ok2}


def _check_table_K4(i: int):
    return poly_equality(refined_K(4, "direct").polys[i], tables.K4_TABLE[i])


def _check_K4_roots(i: int):
    iso = isolate_roots(tables.K4_TABLE[i], Fraction(1, 10**6))
    printed = tables.K4_ROOTS[i]
    if len(iso.intervals) != len(printed):
        return False, {"expected_roots": len(printed), "isolated": len(iso.intervals)}
    for rec, value in zip(iso.intervals, printed):
        mid = (rec.lo + rec.hi) / 2
        # 5e-4 is the worst-case relative half-ulp of a 4-significant-figure
        # value; sub-unit values get it as an absolute floor.
        if abs(mid - value) > Fraction(5, 10**4) * max(1, abs(value)):
            text = str(Decimal(value.numerator) / value.denominator)  # exact: value is a decimal
            return False, {"interval": rec.to_json(), "printed": text}
    return True, None


_C_TABLE = {
    (0, 1): (tables.C01_POLY, tables.C01_STRIP_POWER),
    (0, 6): (tables.C06_POLY, tables.C06_STRIP_POWER),
    (1, 6): (tables.C16_POLY, tables.C16_STRIP_POWER),
}


def _check_C_poly(pair):
    got = build_C(*pair)
    want_poly, want_m = _C_TABLE[pair]
    ok = got.poly == want_poly and got.m == want_m
    return ok, None if ok else {"m": got.m, "expected_m": want_m}


def _check_hurwitz_table(pair):
    dets = hurwitz_determinants(build_C(*pair).poly).determinants
    want = tables.HURWITZ_TABLES[pair]
    if len(dets) != len(want):
        return False, {"count": len(dets), "expected": len(want)}
    for k, (got, expect) in enumerate(zip(dets, want), start=1):
        if got != expect:
            return False, {"delta_index": k, "difference": [str(c) for c in (got - expect).coeffs]}
    return True, None


def _check_delta_tail_coincidence(pair):
    dets = hurwitz_determinants(build_C(*pair).poly).determinants
    ok = dets[-1] == dets[-2]
    return ok, None if ok else {"delta_last": [str(c) for c in dets[-1].coeffs]}


def _check_quintic_factor():
    quintic = tables.C06_DELTA4_QUINTIC
    dets = hurwitz_determinants(build_C(0, 6).poly).determinants
    expected_delta4 = qpoly(2) * qpoly(0, 0, 0, 1) * qpoly(1, 1) * qpoly(1, 1) * quintic
    ok = q_positive_on_positive_reals(quintic) and dets[3] == expected_delta4
    return ok, None if ok else {"delta4": [str(c) for c in dets[3].coeffs]}


def suite_paper_tables() -> list[_Check]:
    checks: list[_Check] = []
    for i in range(8):
        checks.append((f"table_T4_entry", {"i": i}, lambda i=i: _check_table_T4(i)))
    checks.append(("table_T4_scalar_relations", {}, _check_T4_scalar_relations))
    for i in range(8):
        checks.append((f"table_K4_entry", {"i": i}, lambda i=i: _check_table_K4(i)))
    for i in range(8):
        checks.append((f"table_K4_roots", {"i": i}, lambda i=i: _check_K4_roots(i)))
    for pair in tables.SPECIAL_PAIRS:
        checks.append(("table_C_poly", {"pair": list(pair)}, lambda p=pair: _check_C_poly(p)))
        checks.append(
            ("table_hurwitz_determinants", {"pair": list(pair)}, lambda p=pair: _check_hurwitz_table(p))
        )
        if pair != (1, 6):
            # the last two determinants coincide only for the degree-6 couplings
            checks.append(
                ("table_delta_tail_coincidence", {"pair": list(pair)},
                 lambda p=pair: _check_delta_tail_coincidence(p))
            )
    checks.append(("quintic_factor_positive", {}, _check_quintic_factor))
    return checks


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _check_oracle(family: str, n: int, cap: int | None):
    return poly_equality(assemble(family, n), brute_polynomial(family, n, cap=cap))


def _check_oracle_refined(n: int, cap: int | None):
    fam = refined_Tq(n).polys
    for i in range(2 * n):
        ok, witness = poly_equality(fam[i], brute_polynomial("refined_Tq", n, index=i, cap=cap))
        if not ok:
            return False, {"index": i, **witness}
    return True, None


def _check_oracle_affine_refined(n: int, cap: int | None):
    fam = refined_affine_T(n).polys
    total = XPoly()
    for i in range(2 * n):
        ok, witness = poly_equality(fam[i], brute_polynomial("refined_tildeT", n, index=i, cap=cap))
        if not ok:
            return False, {"index": i, **witness}
        total = total + fam[i]
    doubled = brute_polynomial("tildeD", n, cap=cap) * 2
    if total == doubled and total == brute_polynomial("tildeT_via_B", n, cap=cap):
        return True, None
    return False, {"difference": poly_to_json(total - doubled)}


# How many seeded ranks of the psi walk also check psi_inverse.
PSI_INVERSE_SAMPLE = 2000


class _Counterexample(Exception):
    """Stops the psi walk at the first object it rejects; args[0] is the witness."""


def _psi_walk(n: int, leaf: Callable) -> None:
    """Visit every signed permutation sigma of rank n >= 2 with e = psi(sigma).

    A depth-first walk over signed prefixes.  Placing +a or -a at position i
    takes t_i = (used >> a).bit_count() from the bitmask ``used`` of the
    absolute values already placed; e_i = t_i for +a and 2i - 1 - t_i for -a.
    Each node carries the mixed-radix rank of e (digit e_i in radix 2i),
    ``agree`` (the positions whose e_i lies in [0, i) for a positive and in
    [i, 2i) for a negative sigma_i), and the descents and ascents at positions
    i >= 2 of the type D statistics.  Each leaf calls ``leaf(sigma, e, rank,
    agree, des_D, asc_D, affine_des_D, affine_asc_D)``; the object is sigma[1:]
    and e[1:] of two lists the walk goes on to overwrite.
    """
    # Index 0 holds sentinels: no entry is below -(n + 1), and 1 * 0 < 0 * e_1 never holds.
    sigma = [-(n + 1)] + [0] * n
    e = [0] * (n + 1)
    full = (2 << n) - 2
    affine = (2 * n - 1) * (n - 1)

    def place(i, used, rank, agree, des, asc):
        p, f, j, radix = sigma[i - 1], e[i - 1], i - 1, 2 * i
        free = full ^ used
        if i == n:
            # One absolute value is left; both of its signs are leaves.  The
            # position-0 terms [sigma_1 + sigma_2 < 0] and [2e_1 + e_2 >= 3] join here.
            a = free.bit_length() - 1
            t = (used >> a).bit_count()
            sigma[i], e[i] = a, t
            d = des + (p > a) + (sigma[1] + sigma[2] < 0)
            s = asc + (i * f < j * t) + (2 * e[1] + e[2] >= 3)
            leaf(sigma, e, rank * radix + t, agree + (0 <= t < i), d, s,
                 d + (p + a > 0), s + (n * f + j * t < affine))
            x = radix - 1 - t
            sigma[i], e[i] = -a, x
            d = des + (p > -a) + (sigma[1] + sigma[2] < 0)
            s = asc + (i * f < j * x) + (2 * e[1] + e[2] >= 3)
            leaf(sigma, e, rank * radix + x, agree + (i <= x < radix), d, s,
                 d + (p - a > 0), s + (n * f + j * x < affine))
            return
        while free:
            low = free & -free
            free ^= low
            a = low.bit_length() - 1
            t = (used >> a).bit_count()
            sigma[i], e[i] = a, t
            place(i + 1, used | low, rank * radix + t, agree + (0 <= t < i),
                  des + (p > a), asc + (i * f < j * t))
            x = radix - 1 - t
            sigma[i], e[i] = -a, x
            place(i + 1, used | low, rank * radix + x, agree + (i <= x < radix),
                  des + (p > -a), asc + (i * f < j * x))

    place(1, 0, 0, 0, 0, 0)


def _check_psi_bijection(n: int, cap: int | None):
    """psi on every signed permutation of rank n, in one walk (``_psi_walk``).

    Each leaf passes when every e_i lies in the half of [0, 2i) that the sign
    of sigma_i asks for, des_D = asc_D, affine des_D = affine asc_D, and the
    mixed-radix rank of e is marked for the first time.  All 2^n n! ranks
    marked exactly once certify that psi is a bijection from signed
    permutations onto inversion sequences.  psi_inverse undoes the walk at
    PSI_INVERSE_SAMPLE ranks drawn with seed n.
    """
    _check_cap(n, cap)  # before the 2^n n! marks are allocated
    if n < 2:
        raise DomainError("statistics involving sigma_1 + sigma_2 need rank >= 2")
    order = factorial(n) << n
    marks = bytearray(order)
    sample = set(random.Random(n).sample(range(order), min(PSI_INVERSE_SAMPLE, order)))

    def leaf(sigma, e, rank, agree, des, asc, affine_des, affine_asc):
        if agree != n or marks[rank] or des != asc:
            raise _Counterexample({"sigma": sigma[1:], "e": e[1:]})
        marks[rank] = 1
        if affine_des != affine_asc:
            raise _Counterexample(
                {"sigma": sigma[1:], "e": e[1:], "affine_des_D": affine_des, "affine_asc_D": affine_asc}
            )
        if rank in sample and list(psi_inverse(e[1:]).entries) != sigma[1:]:
            raise _Counterexample({"sigma": sigma[1:], "e": e[1:]})

    try:
        _psi_walk(n, leaf)
    except _Counterexample as found:
        return False, found.args[0]
    if marks.count(1) != order:
        # Some inversion sequence is nobody's image: name the first one.
        rank, missing = marks.index(0), []
        for i in range(n, 0, -1):
            rank, digit = divmod(rank, 2 * i)
            missing.append(digit)
        return False, {"e": missing[::-1]}
    return True, None


def _check_affine_threshold():
    """The two printed affine thresholds on a concrete rank-2 element.

    The dual printed form (n-1)/n fails on it, while the adopted (2n-1)/n
    agrees with the group-side statistic; a pass carries the element.
    """
    sigma = (2, -1)
    e = psi(sigma).entries
    n = 2
    group_side = sigma[0] + sigma[1] > 0
    adopted = n * e[0] + (n - 1) * e[1] < (2 * n - 1) * (n - 1)
    printed_variant = n * e[0] + (n - 1) * e[1] < (n - 1) * (n - 1)
    if group_side == adopted and group_side != printed_variant:
        return True, {
            "witness_sigma": list(sigma),
            "witness_e": list(e),
            "note": "threshold (2n-1)/n adopted; the printed (n-1)/n variant "
            "disagrees with the group-side statistic on this witness",
        }
    return False, {
        "witness_sigma": list(sigma),
        "witness_e": list(e),
        "group_side_affine_condition": group_side,
        "threshold_2n_minus_1_over_n": adopted,
        "threshold_n_minus_1_over_n": printed_variant,
        "note": "adopted threshold (2n-1)/n matches the group statistic; "
        "the (n-1)/n variant does not",
    }


def suite_oracles(max_n: int = 6, cap: int | None = None) -> list[_Check]:
    """Recurrences against enumeration up to rank max_n.

    The enumeration cap is ``cap``, or the default; a max_n above it raises
    EnumerationCapError before any check runs.
    """
    cap = resolve_cap(cap)
    if max_n > cap:
        raise EnumerationCapError(f"rank {max_n} exceeds the enumeration cap {cap}; pass --cap-override")
    rows = (
        ("oracle_Tq", 2, partial(_check_oracle, "Tq", cap=cap)),
        ("oracle_Dq", 2, partial(_check_oracle, "Dq", cap=cap)),
        ("oracle_tildeB", 2, partial(_check_oracle, "tildeB", cap=cap)),
        ("oracle_tildeD", 3, partial(_check_oracle, "tildeD", cap=cap)),
        ("oracle_affine_refined", 3, partial(_check_oracle_affine_refined, cap=cap)),
        ("oracle_refined_Tq", 2, partial(_check_oracle_refined, cap=cap)),
        ("psi_bijection", 2, partial(_check_psi_bijection, cap=cap)),
    )
    return _ranked(2, max_n, rows) + [("affine_threshold_discrepancy", {"n": 2}, _check_affine_threshold)]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def suite_identities(max_n: int = 10, cap: int | None = None) -> list[_Check]:
    """Named identities up to rank max_n.

    The identities whose row of ``recurrences._IDENTITIES`` says they enumerate
    (stembridge and q0_reduction, which count types B and A by classes through
    ``brute_polynomial``) are skipped iff n is above the enumeration cap, which is
    ``cap``, or the default.
    """
    cap = resolve_cap(cap)
    capped = {name for name, _, enumerates, _ in _IDENTITIES if enumerates}
    checks: list[_Check] = []
    for names, first in (
        (("dilks_62",), 3),
        (("stembridge",), 3),
        (("t_n0_equals_prev", "tilde_dual", "k_two_methods", "matrix_identity"), 3),
        (("q0_reduction", "oneplusq_division"), 2),
        (("interlace_chain_prop62",), 3),
    ):
        rows = [(name, first, partial(evaluate_identity, name, cap=cap)) for name in names]
        for name, params, run in _ranked(first, max_n, rows):
            checks.append((name, params, None if name in capped and params["n"] > cap else run))
    return checks


# ---------------------------------------------------------------------------
# interlacing
# ---------------------------------------------------------------------------


def _check_mutual(polys, label: str):
    ok, failure = mutually_interlacing(polys)
    if ok:
        return True, None
    i, j = failure
    return False, {"family": label, "first_failure": [i, j]}


def _check_real_rooted(family: str, q: Fraction | None, n: int):
    poly = assemble(family, n) if q is None else assemble(family, n).eval_q(q)
    ok = is_real_rooted(poly)
    return ok, None if ok else {"family": family, "poly": poly_to_json(poly)}


def _check_coeff_shape(family: str, n: int):
    props = coeff_props(assemble(family, n))
    ok = props.nonnegative and props.symmetric and props.unimodal and props.log_concave
    return ok, None if ok else {
        "nonnegative": props.nonnegative,
        "symmetric": props.symmetric,
        "unimodal": props.unimodal,
        "log_concave": props.log_concave,
    }


def _at_q(check: Callable, q: Fraction, n: int):
    """check on the refined family T(n) at q, labelled "T(n) at q=q"."""
    return check([p.eval_q(q) for p in refined_Tq(n).polys], f"T({n}) at q={q}")


def suite_interlacing(max_n: int = 7, q_samples: Sequence[Fraction] = DEFAULT_Q_SAMPLES) -> list[_Check]:
    """Interlacing and real-rootedness at ranks 4..max_n (at the q samples, to rank 8), and
    coefficient shapes and Fisk's criterion at ranks 3..max_n; no check above max_n."""
    checks = _ranked(4, max_n, (
        ("interlacing_T_at_1", 4, lambda n: _check_mutual(refined_T1(n), f"T({n}) at q=1")),
        ("interlacing_K", 4, lambda n: _check_mutual(refined_K(n, "direct").polys, f"K({n})")),
        ("realrooted_tildeD", 4, partial(_check_real_rooted, "tildeD", None)),
    ))
    for q in q_samples:
        if q != 1:  # interlacing_T_at_1 covers q = 1
            rows = (
                ("interlacing_T_at_q", 4, partial(_at_q, _check_mutual, q)),
                ("realrooted_Dq", 4, partial(_check_real_rooted, "Dq", q)),
            )
            checks += _ranked(4, min(max_n, 8), rows, q=str(q))
    return checks + _ranked(3, max_n, (
        ("coeff_shape_tildeD", 3, partial(_check_coeff_shape, "tildeD")),
        ("coeff_shape_tildeB", 3, partial(_check_coeff_shape, "tildeB")),
        ("fisk_recurrence_matrix", 3, lambda n: fisk_nx_check(recurrence_nx_matrix(n))),
    ))


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


def _positive_except_even_zero_at_one(p: QPoly) -> bool:
    """Positivity on (0, inf) allowing an even-order zero at q = 1."""
    if p.is_zero():
        raise UsageError("_positive_except_even_zero_at_one of the zero polynomial")
    q_minus_1 = QPoly((-1, 1))
    order = 0
    while True:
        try:
            p = p.exact_div(q_minus_1)
            order += 1
        except DivisibilityError:
            break
    return order % 2 == 0 and q_positive_on_positive_reals(p)


def _check_pair_positivity(pair, boundary_at_one: bool):
    dets = hurwitz_determinants(build_C(*pair).poly).determinants
    positive = _positive_except_even_zero_at_one if boundary_at_one else q_positive_on_positive_reals
    for k, d in enumerate(dets, start=1):
        if not positive(d):
            return False, {"delta_index": k, "delta": [str(c) for c in d.coeffs]}
    return True, None


def _check_agreement(polys, label: str):
    n = len(polys)
    for i in range(n):
        for j in range(i + 1, n):
            f, g = polys[i], polys[j]
            if f.degree == 0 or g.degree == 0:
                continue
            via_stability = interlace_via_stability(f, g)
            direct = interlaces(f, g)
            if via_stability.relation != direct.relation:
                return False, {
                    "family": label,
                    "pair": [i, j],
                    "stability": via_stability.relation,
                    "direct": direct.relation,
                }
    return True, None


def suite_stability(max_n: int = 6, q_samples: Sequence[Fraction] = DEFAULT_Q_SAMPLES) -> list[_Check]:
    checks: list[_Check] = []
    reduced = tables.REDUCED_INDEX_SET
    special = set(tables.SPECIAL_PAIRS)
    for a in range(len(reduced)):
        for b in range(a + 1, len(reduced)):
            pair = (reduced[a], reduced[b])
            boundary = pair in special
            cid = "hurwitz_positivity_q1_boundary" if boundary else "hurwitz_positivity"
            checks.append(
                (cid, {"pair": list(pair)}, lambda p=pair, b=boundary: _check_pair_positivity(p, b))
            )
    for q in q_samples:
        rows = (("stability_agreement_T", 4, partial(_at_q, _check_agreement, q)),)
        checks += _ranked(4, max_n, rows, q=str(q))
    return checks + _ranked(4, max_n, (
        ("stability_agreement_K", 4, lambda n: _check_agreement(refined_K(n, "direct").polys, f"K({n})")),
    ))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_suite(
    suite: str,
    max_n: int | None = None,
    q_samples: Sequence[Fraction] | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """Run one named suite (or all of them) and return the report; ``q_samples`` None means
    the defaults, and an empty one raises UsageError."""
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if max_n is not None:
        max_n = _rank(max_n, 2, "max_n")
    if q_samples is not None and not (isinstance(q_samples, Sequence) and q_samples):
        raise UsageError(f"q_samples must be a nonempty sequence of q values, got {q_samples!r:.60}")
    samples = DEFAULT_Q_SAMPLES if q_samples is None else tuple(_rational(q, "a q sample") for q in q_samples)
    for q in samples:
        if q <= 0:
            raise UsageError(f"q sample {q} is not positive")
    samples = tuple(dict.fromkeys(samples))  # a repeated sample runs once, where it first appears
    rank = {} if max_n is None else {"max_n": max_n}  # None keeps each suite's default
    checks: list[_Check] = []
    if suite in ("paper_tables", "all"):
        checks += suite_paper_tables()
    if suite in ("oracles", "all"):
        checks += suite_oracles(cap=cap, **rank)
    if suite in ("identities", "all"):
        checks += suite_identities(cap=cap, **rank)
    if suite in ("interlacing", "all"):
        checks += suite_interlacing(q_samples=samples, **rank)
    if suite in ("stability", "all"):
        checks += suite_stability(q_samples=samples, **rank)
    return VerificationReport(tuple(timed_entry(cid, params, check) for cid, params, check in checks))
