import importlib
import inspect
import itertools
import math
import pkgutil
import random
import textwrap

import pytest

from weylpoly import (
    DomainError,
    EnumerationCapError,
    InvSeq,
    SignedPerm,
    UsageError,
    assemble,
    brute_polynomial,
    enumerate_objects,
    even_signed_perms,
    inv_stats,
    inversion_sequences,
    psi,
    psi_inverse,
    qpoly,
    qxpoly,
    signed_perms,
    stats,
    xpoly,
)
import weylpoly
from weylpoly import recurrences, verify, weylcomb
from weylpoly.exactpoly import QXPoly, XPoly


class TestObjects:
    def test_signed_perm_validation(self):
        SignedPerm((2, -1, 3))
        for bad in ((1, 1), (1, 3), (0, 1), (2, -2), (-3, 1, 3)):
            with pytest.raises(DomainError):
                SignedPerm(bad)

    def test_inv_seq_validation(self):
        InvSeq((1, 3, 5))
        for bad in ((2, 0), (0, -1), (2,), (0, 4), (0, 1, 6)):
            with pytest.raises(DomainError):
                InvSeq(bad)

    @pytest.mark.parametrize(
        "cls, entries",
        [(SignedPerm, (1.7, -2.2)), (InvSeq, (0.9, 3.5)), (SignedPerm, ("1", "-2"))],
    )
    def test_non_integer_entries_rejected(self, cls, entries):
        # int() used to truncate these to (1, -2), (0, 3) and (1, -2).
        with pytest.raises(DomainError):
            cls(entries)

    def test_unvalidated_objects_equal_validated_ones(self):
        for n in (1, 2, 3, 4):
            for sigma in signed_perms(n):
                assert SignedPerm(sigma.entries) == sigma
                e = psi(sigma)
                assert InvSeq(e.entries) == e
                assert hash(SignedPerm(psi_inverse(e).entries)) == hash(sigma)
            for e in inversion_sequences(n):
                assert InvSeq(e.entries) == e
            for sigma in even_signed_perms(n):
                assert SignedPerm(sigma.entries) == sigma


class TestEnumeration:
    def test_counts(self):
        assert len(list(signed_perms(2))) == 8
        assert len(list(even_signed_perms(3))) == 24
        assert len(list(inversion_sequences(3))) == 48

    def test_duplicate_free(self):
        seen = set(p.entries for p in signed_perms(3))
        assert len(seen) == 48

    def test_even_means_even(self):
        for p in even_signed_perms(3):
            assert sum(1 for v in p.entries if v < 0) % 2 == 0

    def test_dispatch(self):
        assert len(list(enumerate_objects("inversion_sequences", 2))) == 8
        assert len(list(enumerate_objects("signed_perms", 2))) == 8
        assert len(list(enumerate_objects("even_signed_perms", 2))) == 4
        with pytest.raises(UsageError):
            list(enumerate_objects("nope", 2))

    @pytest.mark.parametrize("stream", [signed_perms, even_signed_perms, inversion_sequences])
    def test_cap_checked_when_the_stream_is_made(self, stream):
        # each of these used to return a generator and raise only at its first next()
        with pytest.raises(EnumerationCapError):
            stream(50)
        with pytest.raises(UsageError):
            stream(2.5)
        with pytest.raises(EnumerationCapError):
            enumerate_objects(stream.__name__, 50)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            next(signed_perms(9))
        gen = signed_perms(9, cap=9)
        assert next(gen).entries == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("WEYLPOLY_CAP", "2")
        with pytest.raises(EnumerationCapError):
            next(signed_perms(3))
        monkeypatch.setenv("WEYLPOLY_CAP", "9")
        assert next(signed_perms(9)) is not None

    @pytest.mark.parametrize("value", ["abc", "", "7.5"])
    def test_malformed_cap_env_raises_usage_error(self, monkeypatch, value):
        monkeypatch.setenv("WEYLPOLY_CAP", value)
        with pytest.raises(UsageError, match=f"WEYLPOLY_CAP={value!r}"):
            brute_polynomial("Tq", 3)


class TestStats:
    def test_identity_permutation(self):
        for n in (2, 3, 5):
            rec = stats(tuple(range(1, n + 1)))
            assert rec.des_B == rec.des_D == 0
            assert rec.affine_des_B == 1
            assert rec.neg == 0 and rec.parity_even

    def test_mixed_signs_rank3(self):
        rec = stats((-2, 1, -3))
        assert rec.neg == 2
        assert rec.neg_D == 1
        assert rec.des_B == 2
        assert rec.des_D == 2
        assert rec.affine_des_D == 2
        assert rec.parity_even

    def test_rank2_affine_bump(self):
        rec = stats((2, -1))
        assert rec.des_D == 1
        assert rec.affine_des_D == 2

    def test_rank1_rejected(self):
        with pytest.raises(DomainError):
            stats((1,))

    def test_record_invariants_exhaustive(self):
        for sigma in signed_perms(3):
            rec = stats(sigma)
            assert rec.affine_des_B in (rec.des_B, rec.des_B + 1)
            assert rec.affine_des_D in (rec.des_D, rec.des_D + 1)
            assert rec.neg_D in (rec.neg, rec.neg - 1)


class TestInvStats:
    def test_all_zero(self):
        rec = inv_stats((0, 0, 0, 0))
        assert (rec.exc, rec.asc_D, rec.affine_asc_D) == (0, 0, 1)

    def test_mixed_entries(self):
        rec = inv_stats((1, 1, 5))
        assert (rec.exc, rec.asc_D, rec.affine_asc_D) == (2, 2, 2)

    def test_rank2_example(self):
        rec = inv_stats((0, 2))
        assert (rec.exc, rec.asc_D, rec.affine_asc_D) == (1, 1, 2)

    def test_invalid_sequence(self):
        with pytest.raises(DomainError):
            inv_stats((3, 0))

    def test_length1_rejected(self):
        with pytest.raises(DomainError):
            inv_stats((0,))


class TestPsi:
    def test_identity_maps_to_zero(self):
        assert psi(tuple(range(1, 6))).entries == (0,) * 5

    def test_sign_case_split(self):
        assert psi((-2, 1, -3)).entries == (1, 1, 5)
        assert psi((2, -1)).entries == (0, 2)

    def test_roundtrip_exhaustive(self):
        for n in (2, 3, 4, 5):
            for sigma in signed_perms(n):
                assert psi_inverse(psi(sigma)) == sigma

    def test_roundtrip_randomized_large_ranks(self):
        import random

        rng = random.Random(1729)
        for n in (7, 8):
            for _ in range(500):
                values = list(range(1, n + 1))
                rng.shuffle(values)
                sigma = SignedPerm(tuple(v if rng.random() < 0.5 else -v for v in values))
                assert psi_inverse(psi(sigma)) == sigma

    def test_bijection_properties_exhaustive(self):
        for n in (2, 3, 4):
            seen = set()
            for sigma in signed_perms(n):
                e = psi(sigma)
                seen.add(e.entries)
                rec = stats(sigma)
                inv = inv_stats(e)
                # negativity marker
                for i, v in enumerate(sigma.entries, start=1):
                    assert (v < 0) == (e.entries[i - 1] >= i)
                # descent and excedance transport
                assert rec.des_D == inv.asc_D
                assert rec.neg == inv.exc
                # the adopted affine threshold agrees with the group side
                assert rec.affine_des_D == inv.affine_asc_D
            assert len(seen) == 2**n * [1, 2, 6, 24][n - 1]

    def test_psi_matches_definition_at_large_ranks(self):
        rng = random.Random(2014)
        for n in (9, 10, 11, 12):
            for _ in range(200):
                values = list(range(1, n + 1))
                rng.shuffle(values)
                sigma = tuple(v if rng.random() < 0.5 else -v for v in values)
                assert psi(sigma).entries == _psi_definition(sigma), sigma

    def test_printed_alternative_threshold_fails(self):
        # witness: the (n-1)/n variant disagrees on sigma = (2, -1)
        sigma = (2, -1)
        e = psi(sigma).entries
        n = 2
        group_side = sigma[0] + sigma[1] > 0
        printed_variant = n * e[0] + (n - 1) * e[1] < (n - 1) * (n - 1)
        assert group_side and not printed_variant


def _psi_definition(sigma):
    """psi from its definition: t_i earlier entries of larger absolute value."""
    out = []
    for i, v in enumerate(sigma, start=1):
        t = sum(1 for u in sigma[: i - 1] if abs(u) > abs(v))
        out.append(t if v > 0 else 2 * i - t - 1)
    return tuple(out)


class TestBrutePolynomials:
    def test_classical_rank2(self):
        assert brute_polynomial("A", 2) == xpoly(1, 4, 1)

    def test_q_type_D_rank2(self):
        assert brute_polynomial("Dq", 2) == qxpoly((1,), (1, 1), (0, 1))

    def test_coupled_rank2(self):
        # (1+q)(1+x)(1+qx) expanded
        want = qxpoly((1,), (1, 1), (0, 1)) * qpoly(1, 1)
        assert brute_polynomial("Tq", 2) == want

    def test_Tq_is_one_plus_q_times_Dq(self):
        for n in (2, 3, 4):
            assert brute_polynomial("Tq", n) == brute_polynomial("Dq", n) * qpoly(1, 1)

    def test_refined_slices_sum_to_total(self):
        for n in (2, 3, 4):
            total = QXPoly()
            for i in range(2 * n):
                total = total + brute_polynomial("refined_Tq", n, index=i)
            assert total == brute_polynomial("Tq", n)

    def test_refined_at_one_matches_inversion_sequence_route(self):
        # independent route: enumerate inversion sequences directly
        for n in (2, 3, 4):
            by_seq = [dict() for _ in range(2 * n)]
            for e in inversion_sequences(n):
                rec = inv_stats(e)
                bucket = by_seq[e.entries[-1]]
                bucket[rec.asc_D] = bucket.get(rec.asc_D, 0) + 1
            for i in range(2 * n):
                coeffs = [0] * (max(by_seq[i], default=0) + 1)
                for d, c in by_seq[i].items():
                    coeffs[d] += c
                assert brute_polynomial("refined_Tq", n, index=i).eval_q(1) == XPoly(tuple(coeffs))

    def test_affine_type_B_small(self):
        assert brute_polynomial("tildeB", 2) == xpoly(0, 4, 4)

    def test_tilde_T_doubles_tilde_D(self):
        for n in (2, 3, 4):
            assert brute_polynomial("tildeT_via_B", n) == brute_polynomial("tildeD", n) * 2

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            brute_polynomial("X", 3)

    def test_refined_needs_index(self):
        with pytest.raises(UsageError):
            brute_polynomial("refined_Tq", 3)
        with pytest.raises(UsageError):
            brute_polynomial("refined_Tq", 3, index=6)

    def test_cap_applies(self):
        with pytest.raises(EnumerationCapError):
            brute_polynomial("Tq", 9)


def _reference_sweep(n):
    """Every brute family at rank n, from one signed_perms/stats/psi sweep.

    Returns family -> counts, and for the refined families family -> list of
    counts per last psi entry; keys are des or (des, q exponent).
    """
    out = {f: {} for f in ("B", "Bq", "tildeB", "Tq", "Dq", "tildeD", "tildeT_via_B")}
    for f in ("refined_Tq", "refined_tildeT"):
        out[f] = [dict() for _ in range(2 * n)]

    def bump(counts, key):
        counts[key] = counts.get(key, 0) + 1

    for sigma in signed_perms(n):
        rec = stats(sigma)
        last = psi(sigma).entries[-1]
        bump(out["B"], rec.des_B)
        bump(out["Bq"], (rec.des_B, rec.neg))
        bump(out["tildeB"], rec.affine_des_B)
        bump(out["Tq"], (rec.des_D, rec.neg))
        bump(out["tildeT_via_B"], rec.affine_des_D)
        bump(out["refined_Tq"][last], (rec.des_D, rec.neg))
        bump(out["refined_tildeT"][last], rec.affine_des_D)
        if rec.parity_even:
            bump(out["Dq"], (rec.des_D, rec.neg_D))
            bump(out["tildeD"], rec.affine_des_D)
    return out


def _poly_from_counts(counts):
    if any(isinstance(k, tuple) for k in counts):
        cols = [[0] * (max(q for _, q in counts) + 1) for _ in range(max(d for d, _ in counts) + 1)]
        for (d, q), c in counts.items():
            cols[d][q] += c
        return qxpoly(*cols)
    coeffs = [0] * (max(counts, default=0) + 1)
    for d, c in counts.items():
        coeffs[d] += c
    return XPoly(tuple(coeffs))


class TestJointTable:
    """The joint count table against the readable signed_perms/stats/psi route."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_family_matches_reference_sweep(self, n):
        ref = _reference_sweep(n)
        for family in ("B", "Bq", "tildeB", "Tq", "Dq", "tildeD", "tildeT_via_B"):
            assert brute_polynomial(family, n) == _poly_from_counts(ref[family]), family
        for family in ("refined_Tq", "refined_tildeT"):
            for i in range(2 * n):
                want = _poly_from_counts(ref[family][i])
                assert brute_polynomial(family, n, index=i) == want, (family, i)

    def test_last_psi_entry_depends_only_on_last_entry(self):
        for n in (2, 3, 4, 5):
            for sigma in signed_perms(n):
                last = sigma.entries[-1]
                a = abs(last)
                assert psi(sigma).entries[-1] == (n - a if last > 0 else n + a - 1)

    def test_rank1_table_rejected(self):
        with pytest.raises(DomainError):
            brute_polynomial("refined_Tq", 1, index=0)

    @pytest.mark.parametrize("family", ["Tq", "Dq"])
    def test_rank7_recurrence_against_enumeration(self, family):
        assert assemble(family, 7) == brute_polynomial(family, 7)


class TestCapBeforeCache:
    def test_filled_table_still_honours_cap(self, monkeypatch):
        monkeypatch.delenv("WEYLPOLY_CAP", raising=False)
        brute_polynomial("Tq", 7)
        hits = weylcomb._joint_table.cache_info().hits
        with pytest.raises(EnumerationCapError):
            brute_polynomial("Tq", 7, cap=6)
        with pytest.raises(EnumerationCapError):
            brute_polynomial("refined_Tq", 7, index=0, cap=6)
        monkeypatch.setenv("WEYLPOLY_CAP", "6")
        with pytest.raises(EnumerationCapError):
            brute_polynomial("Tq", 7)
        with pytest.raises(EnumerationCapError):
            brute_polynomial("tildeT_via_B", 7)
        assert weylcomb._joint_table.cache_info().hits == hits

    def test_refined_check_order(self, monkeypatch):
        monkeypatch.setenv("WEYLPOLY_CAP", "6")
        # a missing index is reported before the cap
        with pytest.raises(UsageError):
            brute_polynomial("refined_Tq", 7)
        # the cap is checked before the index range
        with pytest.raises(EnumerationCapError):
            brute_polynomial("refined_tildeT", 7, index=99)
        with pytest.raises(UsageError):
            brute_polynomial("refined_tildeT", 7, index=99, cap=7)


def _package_caches() -> dict:
    """Every module-level object of the package with ``cache_info``, by name, once each."""
    found = {}
    for info in pkgutil.iter_modules(weylpoly.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"weylpoly.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and not isinstance(obj, type):
                found.setdefault(id(obj), (f"{module.__name__}.{name}", obj))
    return dict(found.values())


def test_every_lru_cache_is_bounded():
    caches = _package_caches()
    assert sorted(caches) == [
        "weylpoly.realroots._profile",
        "weylpoly.recurrences._K_STORE",
        "weylpoly.recurrences._T1_STORE",
        "weylpoly.recurrences._TQ_STORE",
        "weylpoly.weylcomb._joint_table",
    ]
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, f"{name} is unbounded"
    rank_dicts = [
        name
        for name, obj in vars(recurrences).items()
        if not name.startswith("__") and isinstance(obj, dict)
    ]
    assert rank_dicts == [], f"module-level dicts in recurrences: {rank_dicts}"


def test_cache_info_after_one_cold_call_of_each_family():
    for cache in _package_caches().values():
        cache.cache_clear()
    brute_polynomial("Tq", 4)
    weylpoly.refined_Tq(5)
    weylpoly.refined_T1(5)
    weylpoly.refined_K(5, method="recurrence")  # seeds rank 3 from the T1 store
    weylpoly.is_real_rooted(xpoly(-2, 0, 1))
    info = weylpoly.cache_info()
    assert sorted(f"weylpoly.{name}" for name in info) == sorted(_package_caches())
    assert info == {
        "weylcomb._joint_table": {"hits": 0, "misses": 1, "maxsize": 8, "currsize": 1},
        "recurrences._TQ_STORE": {"hits": 0, "misses": 1, "maxsize": 4, "currsize": 1},
        "recurrences._T1_STORE": {"hits": 0, "misses": 2, "maxsize": 4, "currsize": 2},
        "recurrences._K_STORE": {"hits": 0, "misses": 1, "maxsize": 4, "currsize": 1},
        "realroots._profile": {"hits": 0, "misses": 1, "maxsize": 4096, "currsize": 1},
    }
    weylpoly.refined_T1(5)
    assert weylpoly.cache_info()["recurrences._T1_STORE"]["hits"] == 1


def test_cold_and_warm_caches_give_the_same_report():
    def report():
        entries = verify.run_suite("all", max_n=4).to_json()["entries"]
        for entry in entries:
            entry.pop("elapsed_ms")
        return entries

    for cache in _package_caches().values():
        cache.cache_clear()
    cold = report()
    assert report() == cold


def _mixed_radix_rank(e):
    rank = 0
    for i, x in enumerate(e, start=1):
        rank = rank * 2 * i + x
    return rank


def _mutated_walk(old, new):
    """verify._psi_walk recompiled with every ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(verify._psi_walk))
    assert old in source
    namespace = dict(vars(verify))
    exec(source.replace(old, new), namespace)
    return namespace["_psi_walk"]


class TestPsiWalk:
    """The walk behind the psi_bijection oracle, against the per-object kernels."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_leaf_values_match_kernels(self, n):
        """Also: every count the one-pass kernels return is an int, never a bool.

        psi is a bijection, so the leaves reach every inversion sequence too.
        """
        leaves = set()

        def leaf(sigma, e, rank, agree, des, asc, affine_des, affine_asc):
            s, x = tuple(sigma[1:]), tuple(e[1:])
            leaves.add(s)
            assert psi(s).entries == x
            rec, inv = stats(s), inv_stats(x)
            for record in (rec, inv):
                for name in record.__slots__:
                    assert type(getattr(record, name)) is (bool if name == "parity_even" else int), (s, name)
            assert (des, affine_des) == (rec.des_D, rec.affine_des_D)
            assert (asc, affine_asc) == (inv.asc_D, inv.affine_asc_D)
            assert agree == n
            assert rank == _mixed_radix_rank(x)

        verify._psi_walk(n, leaf)
        assert len(leaves) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_check_passes(self, n):
        assert verify._check_psi_bijection(n, None) == (True, None)

    def test_off_by_one_t_marks_a_rank_twice(self, monkeypatch):
        # Shifting by a - 1 also counts an earlier |sigma_j| = a - 1: every e_i
        # stays in range, but two objects share an image.
        walk = _mutated_walk("(used >> a)", "(used >> (a - 1))")
        images = []
        walk(4, lambda sigma, e, *rest: images.append(tuple(e[1:])))
        assert len(set(images)) < len(images)
        monkeypatch.setattr(verify, "_psi_walk", walk)
        self._assert_caught(4)

    @pytest.mark.parametrize(
        "old, new, affine_witness",
        [
            ("des + (p > a)", "des + (p < a)", False),
            ("affine = (2 * n - 1) * (n - 1)", "affine = (n - 1) * (n - 1)", True),
            ("rank * radix", "rank * (radix - 1)", False),
        ],
        ids=["flipped_des_D_increment", "printed_affine_threshold", "rank_radix"],
    )
    def test_mutation_caught(self, monkeypatch, old, new, affine_witness):
        monkeypatch.setattr(verify, "_psi_walk", _mutated_walk(old, new))
        for n in (2, 3, 4):
            witness = self._assert_caught(n)
            assert ("affine_des_D" in witness) == affine_witness

    def test_sampled_psi_inverse_checked(self, monkeypatch):
        monkeypatch.setattr(verify, "psi_inverse", lambda e: SignedPerm(tuple(-v for v in psi_inverse(e).entries)))
        self._assert_caught(3)

    def test_unmarked_rank_named(self, monkeypatch):
        walk = verify._psi_walk
        monkeypatch.setattr(
            verify, "_psi_walk",
            lambda n, leaf: walk(n, lambda sigma, e, rank, *rest: rank and leaf(sigma, e, rank, *rest)),
        )
        assert verify._check_psi_bijection(3, None) == (False, {"e": [0, 0, 0]})

    def test_cap_checked_before_marks_allocated(self, monkeypatch):
        monkeypatch.delenv("WEYLPOLY_CAP", raising=False)
        allocated = []
        monkeypatch.setattr(verify, "bytearray", lambda size: allocated.append(size), raising=False)
        for n, cap in ((9, None), (7, 6)):
            with pytest.raises(EnumerationCapError):
                verify._check_psi_bijection(n, cap)
        assert allocated == []
        with pytest.raises(DomainError):
            verify._check_psi_bijection(1, None)

    @staticmethod
    def _assert_caught(n):
        ok, witness = verify._check_psi_bijection(n, None)
        assert ok is False
        assert sorted(abs(v) for v in witness["sigma"]) == list(range(1, n + 1))
        assert len(witness["e"]) == n
        return witness
