"""One measured pass of a benchmark workload, in a fresh interpreter.

    python3 bench/workloads.py --workload certify --seed 7 [--trace] [--scale tiny]

``run.py`` starts this script once per sample with ``src/`` on PYTHONPATH.
It imports ``weylpoly``, generates the seeded inputs, then runs the
workload's checks one after another (a closed loop with one client) and
prints one JSON object as the last line of its standard output:

    ready_at     CLOCK_MONOTONIC reading when set-up ended
    raw_wall_s   first check started .. last verdict, less the probe blocks
    speed        reference-speed seconds per second, over all probe blocks
    peak_rss_mb  ru_maxrss of this process
    attempted, failures, counts, spans (spans only with --trace)

Every check compares the program's output with an answer that does not
come from the code under test: brute enumeration against the recurrences,
closed-form group orders, the theorems (every built family is real-rooted
and mutually interlacing), negative controls built from chosen roots, and
digests of the exact outputs pinned in ``expected.json``.  Inputs drawn
from the seed are checked against the first four kinds only, so a digest
never depends on the seed.

    python3 bench/workloads.py --pin

rewrites ``expected.json`` from the current program; run it only when an
output is meant to change.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import operator
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKLOADS = ("oracle", "certify", "stability", "build")

# Ranks per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same checks at small ranks for the smoke test.
SIZES = {
    "full": {
        "oracle_top": 6,          # Tq, Dq and the refined_Tq slices
        "oracle_all_top": 5,      # tildeB, tildeD, tildeT_via_B, refined_tildeT
        "bijection_top": 5,       # psi over every signed permutation
        "sample_rank": 9,
        "sample_count": 2000,
        "stembridge_top": 6,
        "tildeD": (10, 20, 30),
        "gcd_n": 20,
        "real_rooted_tildeD": (10, 20),
        "T1": (6, 8, 10),
        "Tq_at_q": (4, 6),
        "prop62": (3, 10),
        "K_all": (6, 7, 8),
        "K_pair": (10, 15),
        "checkpoints": (10, 20, 30, 40),
        "matrix": (3, 10),
    },
    "tiny": {
        "oracle_top": 4,
        "oracle_all_top": 4,
        "bijection_top": 4,
        "sample_rank": 6,
        "sample_count": 50,
        "stembridge_top": 4,
        "tildeD": (4, 5, 6),
        "gcd_n": 5,
        "real_rooted_tildeD": (4, 5),
        "T1": (4, 5, 6),
        "Tq_at_q": (4, 5),
        "prop62": (3, 5),
        "K_all": (4, 5),
        "K_pair": (6, 7),
        "checkpoints": (4, 6, 8, 10),
        "matrix": (3, 5),
    },
}

Q_POOL = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(3))
# The rank-4 couplings the paper reduces to, and the three whose
# determinants vanish to even order at q = 1.
REDUCED_INDEX_SET = (0, 1, 2, 3, 5, 6)
BOUNDARY_PAIRS = {(0, 1), (0, 6), (1, 6)}


def order_B(n: int) -> int:
    return 2**n * factorial(n)


def order_D(n: int) -> int:
    return 2 ** (n - 1) * factorial(n)


# ---------------------------------------------------------------------------
# Answers and spans
# ---------------------------------------------------------------------------


def canon(v) -> str:
    """Canonical text of an output: exact coefficients, counts and verdicts."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return repr(v)
    if isinstance(v, (int, Fraction)):
        return f"{v.numerator}/{v.denominator}"
    if hasattr(v, "coeffs"):
        return "[" + ",".join(canon(c) for c in v.coeffs) + "]"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(canon(c) for c in v) + ")"
    raise TypeError(f"no canonical form for {type(v).__name__}")


def digest(v) -> str:
    return hashlib.sha256(canon(v).encode()).hexdigest()[:16]


def coeff_sum(p) -> int:
    """Value at x = 1 (and q = 1): the number of objects a family counts."""
    if hasattr(p, "coeffs"):
        return sum(coeff_sum(c) for c in p.coeffs)
    return p


def coeff_bits(v) -> int:
    """Largest bit length of a numerator or denominator in an output."""
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    items = v.coeffs if hasattr(v, "coeffs") else v if isinstance(v, (tuple, list)) else ()
    return max(map(coeff_bits, items), default=0)


def eval_q_reference(p, q: Fraction) -> tuple:
    """Coefficients in x of a q-polynomial-coefficient family at q, by Horner."""
    out = []
    for qp in p.coeffs:
        acc = Fraction(0)
        for c in reversed(qp.coeffs):
            acc = acc * q + c
        out.append(acc)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def psi_reference(s: tuple) -> tuple:
    """psi written from its definition: t_i earlier entries of larger |value|."""
    out = []
    for i, v in enumerate(s, start=1):
        t = sum(1 for u in s[: i - 1] if abs(u) > abs(v))
        out.append(t if v > 0 else 2 * i - t - 1)
    return tuple(out)


def identity_holds(result) -> bool:
    """check_identity answers with a report entry or an (ok, witness) pair."""
    if hasattr(result, "verdict"):
        return result.verdict == "pass"
    return result[0] is True


# The machine this runs on is shared: its speed swings by up to 1.8x for
# minutes at a time.  Blocks of a fixed pure-Python exact-arithmetic probe,
# run before the first check, between checks at most every
# PROBE_INTERVAL_S and after the last check, measure that speed as
# REFERENCE_PROBE_S over the mean of the blocks' median probe times;
# run.py turns measured seconds into seconds at the reference speed.
PROBE_INTERVAL_S = 0.25
PROBES_PER_BLOCK = 9
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Seconds one fixed slice of Fraction, big-int and dict work takes."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 1) * Fraction(2 * k + 1, 3)
    x = 1
    for k in range(500):
        x = x * 7919 + k
    d: dict = {}
    for k in range(500):
        d[k, k % 7] = d.get((k % 13, k), 0) + k
    return time.perf_counter() - start


class SpeedProbe:
    """Probe blocks taken between checks, and the time they took."""

    def __init__(self):
        self.blocks: list[float] = []
        self.spent = 0.0
        self.block()
        self.spent = 0.0  # the first block runs before the checks start

    def block(self) -> None:
        start = time.perf_counter()
        self.blocks.append(statistics.median(probe() for _ in range(PROBES_PER_BLOCK)))
        self.last = time.perf_counter()
        self.spent += self.last - start

    def due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.block()

    def speed(self) -> float:
        """Reference-speed seconds per measured second."""
        return REFERENCE_PROBE_S / statistics.fmean(self.blocks)


class Run:
    """Spans, counts and answer checks of one pass over a workload.

    A span is [name, label, start, end, parent]; ``name`` is
    ``<module>.<function>`` of the public call it wraps, so a span includes
    the layers that call reaches internally.
    """

    def __init__(self, trace: bool, expected: dict | None):
        self.trace = trace
        self.expected = expected
        self.spans: list[list] = []
        self.parent = -1
        self.errors: list[str] = []
        self.recorded: dict[str, str] = {}
        self.counts = {"objects": 0, "roots": 0, "pairs": 0, "stability_pairs": 0, "coeff_bits_max": 0}

    def call(self, fn, *args, label: str = "", name: str | None = None):
        if not self.trace:
            return fn(*args)
        if name is None:
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        return self._timed(name, label, fn, args)

    def _timed(self, name, label, fn, args):
        idx = len(self.spans)
        span = [name, label, time.perf_counter(), 0.0, self.parent]
        self.spans.append(span)
        saved, self.parent = self.parent, idx
        try:
            return fn(*args)
        finally:
            span[3] = time.perf_counter()
            self.parent = saved

    def span(self, name: str, label: str, fn, *args):
        """A span around benchmark code that calls one layer many times."""
        if not self.trace:
            return fn(*args)
        return self._timed(name, label, fn, args)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: got {got!r}, want {want!r}")

    def pin(self, key: str, value) -> None:
        h = digest(value)
        self.recorded[key] = h
        self.counts["coeff_bits_max"] = max(self.counts["coeff_bits_max"], coeff_bits(value))
        if self.expected is not None and self.expected.get(key) != h:
            self.errors.append(f"{key}: output differs from its pinned digest")

    def equal(self, what: str, a, b) -> None:
        if not self.call(operator.eq, a, b, name="exactpoly.eq"):
            self.errors.append(f"{what}: the two sides differ")


# ---------------------------------------------------------------------------
# Workloads: each returns a list of (check id, thunk) built from the seed
# ---------------------------------------------------------------------------


def oracle(w, run: Run, rng: random.Random, size: dict):
    """Recurrence against exhaustive enumeration; weylcomb does the work."""
    checks = []

    def family(fam, n, order):
        rec = run.call(w.assemble, fam, n)
        brute = run.call(w.brute_polynomial, fam, n, label=f"{fam}.n{n}")
        run.counts["objects"] += order
        run.equal(f"{fam}({n}) recurrence vs brute", rec, brute)
        run.expect(f"{fam}({n}) coefficient sum", coeff_sum(brute), order)
        run.pin(f"{fam}.n{n}", brute)

    def refined(n):
        fam = run.call(w.refined_Tq, n).polys
        slices = [run.call(w.brute_polynomial, "refined_Tq", n, i, label=f"refined_Tq.n{n}")
                  for i in range(2 * n)]
        run.counts["objects"] += order_B(n)
        for i in range(2 * n):
            run.equal(f"refined_Tq({n})[{i}]", fam[i], slices[i])
        run.expect(f"refined_Tq({n}) coefficient sum", sum(map(coeff_sum, slices)), order_B(n))
        run.pin(f"refined_Tq.n{n}", slices)

    def affine_refined(n):
        fam = run.call(w.refined_affine_T, n).polys
        slices = [run.call(w.brute_polynomial, "refined_tildeT", n, i, label=f"refined_tildeT.n{n}")
                  for i in range(2 * n)]
        via_b = run.call(w.brute_polynomial, "tildeT_via_B", n, label=f"tildeT_via_B.n{n}")
        tilde_d = run.call(w.brute_polynomial, "tildeD", n, label=f"tildeD.n{n}")
        run.counts["objects"] += 2 * order_B(n) + order_D(n)
        for i in range(2 * n):
            run.equal(f"refined_affine_T({n})[{i}]", fam[i], slices[i])
        run.expect(f"tildeT_via_B({n}) coefficient sum", coeff_sum(via_b), order_B(n))
        run.expect(f"tildeD({n}) coefficient sum", coeff_sum(tilde_d), order_D(n))
        run.expect(f"refined_tildeT({n}) sum", sum(map(coeff_sum, slices)), order_B(n))
        run.pin(f"refined_tildeT.n{n}", slices)
        run.pin(f"tildeT_via_B.n{n}", via_b)
        run.pin(f"tildeD.n{n}", tilde_d)

    def carries(sigma, e) -> None:
        """psi_inverse undoes psi, and psi carries neg/des_D/affine des_D over."""
        if w.psi_inverse(e) != sigma:
            run.errors.append(f"psi round trip fails at {sigma.entries}")
        rec, inv = w.stats(sigma), w.inv_stats(e)
        if (rec.neg, rec.des_D, rec.affine_des_D) != (inv.exc, inv.asc_D, inv.affine_asc_D):
            run.errors.append(f"psi does not carry the statistics at {sigma.entries}")

    def sweep(n):
        images = set()
        for sigma in w.signed_perms(n):
            e = w.psi(sigma)
            images.add(e.entries)
            carries(sigma, e)
        return images

    def bijection(n):
        images = run.span("weylcomb.bijection", f"n{n}", sweep, n)
        run.counts["objects"] += order_B(n)
        run.expect(f"psi({n}) distinct images", len(images), order_B(n))
        run.expect(f"psi({n}) images in range", all(
            0 <= v <= 2 * i - 1 for e in images for i, v in enumerate(e, start=1)), True)

    rank, count = size["sample_rank"], size["sample_count"]
    sample = []
    for _ in range(count):
        perm = list(range(1, rank + 1))
        rng.shuffle(perm)
        sample.append(tuple(v if rng.random() < 0.5 else -v for v in perm))

    def sample_sweep():
        for s in sample:
            sigma = w.SignedPerm(s)
            e = w.psi(sigma)
            if e.entries != psi_reference(s):
                run.errors.append(f"psi disagrees with its definition at {s}")
            carries(sigma, e)

    def bijection_sample():
        run.span("weylcomb.bijection", f"sample.n{rank}", sample_sweep)
        run.counts["objects"] += count

    def stembridge(n):
        run.expect(f"stembridge({n})", identity_holds(run.call(w.check_identity, "stembridge", n)), True)
        run.expect(f"D({n}) coefficient sum", coeff_sum(run.call(w.assemble, "D", n)), order_D(n))

    for n in range(2, size["oracle_top"] + 1):
        checks.append((f"oracle_Tq.n{n}", lambda n=n: family("Tq", n, order_B(n))))
        checks.append((f"oracle_Dq.n{n}", lambda n=n: family("Dq", n, order_D(n))))
        checks.append((f"oracle_refined_Tq.n{n}", lambda n=n: refined(n)))
    for n in range(2, size["oracle_all_top"] + 1):
        checks.append((f"oracle_tildeB.n{n}", lambda n=n: family("tildeB", n, order_B(n))))
        if n >= 3:
            checks.append((f"oracle_tildeD.n{n}", lambda n=n: family("tildeD", n, order_D(n))))
            checks.append((f"oracle_affine_refined.n{n}", lambda n=n: affine_refined(n)))
    for n in range(2, size["bijection_top"] + 1):
        checks.append((f"psi_bijection.n{n}", lambda n=n: bijection(n)))
    checks.append((f"psi_sample.n{rank}", bijection_sample))
    for n in range(3, size["stembridge_top"] + 1):
        checks.append((f"stembridge.n{n}", lambda n=n: stembridge(n)))
    return checks


def _negative_pair(w, rng: random.Random):
    """(g, f), real-rooted, with both roots of f below both roots of g.

    The roots do not alternate, so neither interlaces the other; they are
    negative, so every coefficient is positive.
    """
    a, b, c, d = (Fraction(r, 3) for r in sorted(rng.sample(range(1, 30), 4)))
    return w.xpoly(a, 1) * w.xpoly(b, 1), w.xpoly(c, 1) * w.xpoly(d, 1)


def _not_real_rooted(w, rng: random.Random):
    """(x + r)(x^2 + s x + t) with s^2 < 4t: one real root, degree three."""
    r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    s = rng.randint(0, 5)
    t = s * s // 4 + rng.randint(1, 9)
    return w.xpoly(r, 1) * w.xpoly(t, s, 1)


def certify(w, run: Run, rng: random.Random, size: dict):
    """Build the families, then certify them; realroots does the work."""
    qs = sorted(rng.sample(Q_POOL, 3))
    built = {}
    lo, hi = size["Tq_at_q"]

    def build():
        for n in size["tildeD"]:
            p = built["tildeD", n] = run.call(w.assemble, "tildeD", n)
            run.expect(f"tildeD({n}) coefficient sum", coeff_sum(p), order_D(n))
            run.pin(f"tildeD.n{n}", p)
        for n in size["T1"]:
            fam = built["T1", n] = run.call(w.refined_T1, n)
            run.expect(f"T1({n}) coefficient sum", sum(map(coeff_sum, fam)), order_B(n))
            run.pin(f"T1.n{n}", fam)
        for n in range(lo, hi + 1):
            tq = run.call(w.refined_Tq, n).polys
            dq = run.call(w.assemble, "Dq", n)
            for q in qs:
                fam = built["T", n, q] = [run.call(w.eval_q, p, q) for p in tq]
                d = built["Dq", n, q] = run.call(w.eval_q, dq, q)
                run.expect(f"T({n}) at q={q}", [p.coeffs for p in fam],
                           [eval_q_reference(p, q) for p in tq])
                run.expect(f"Dq({n}) at q={q}", d.coeffs, eval_q_reference(dq, q))
        for n in range(size["prop62"][0], size["prop62"][1] + 2):
            built["tildeB", n] = run.call(w.assemble, "tildeB", n)
            built["D", n] = run.call(w.assemble, "D", n)

    def gcd():
        n = size["gcd_n"]
        p = built["tildeD", n]
        g = run.call(w.poly_gcd, p, run.call(w.derivative, p), label=f"tildeD_n{n}")
        run.pin(f"gcd.tildeD.n{n}", g)

    def isolate(n):
        p = built["tildeD", n]
        iso = run.call(w.isolate_roots, p, label=f"tildeD_n{n}")
        mults = tuple(r.multiplicity for r in iso.intervals)
        run.counts["roots"] += len(mults)
        run.expect(f"tildeD({n}) real roots with multiplicity", sum(mults), p.degree)
        run.pin(f"isolate.tildeD.n{n}", (int(p.degree), mults))

    def real_rooted(n):
        run.expect(f"tildeD({n}) real-rooted", run.call(w.is_real_rooted, built["tildeD", n]), True)

    def mutual(fam, what, label=""):
        verdict = run.call(w.mutually_interlacing, fam, label=label)
        run.counts["pairs"] += len(fam) * (len(fam) - 1) // 2
        run.expect(f"{what} mutually interlacing", tuple(verdict), (True, None))

    def at_q(n, q):
        mutual(built["T", n, q], f"T({n}) at q={q}")
        run.expect(f"Dq({n}) at q={q} real-rooted", run.call(w.is_real_rooted, built["Dq", n, q]), True)

    def prop62(n):
        relations = []
        for low, high in ((("tildeB", n), ("tildeB", n + 1)), (("D", n), ("D", n + 1)),
                          (("D", n), ("tildeB", n))):
            relations.append(run.call(w.interlaces, built[low], built[high]).relation)
        run.counts["pairs"] += 3
        run.expect(f"Prop 6.2 chain at n={n} holds", all(r in ("strict", "weak") for r in relations), True)
        run.pin(f"prop62.n{n}", relations)

    g, f = _negative_pair(w, rng)
    bad = _not_real_rooted(w, rng)

    def negative():
        run.expect("control: not real-rooted", run.call(w.is_real_rooted, bad), False)
        run.expect("control: roots do not alternate", run.call(w.interlaces, g, f).relation, "none")
        run.expect("control: mutual fails", tuple(run.call(w.mutually_interlacing, [g, f])), (False, (0, 1)))
        run.counts["pairs"] += 2

    checks = [("build_families", build), ("gcd_tildeD", gcd)]
    checks += [(f"isolate_tildeD.n{n}", lambda n=n: isolate(n)) for n in size["tildeD"]]
    checks += [(f"real_rooted_tildeD.n{n}", lambda n=n: real_rooted(n)) for n in size["real_rooted_tildeD"]]
    for n in size["T1"]:
        checks.append((f"mutual_T1.n{n}", lambda n=n: mutual(built["T1", n], f"T1({n})", f"T1_n{n}")))
    for n in range(lo, hi + 1):
        checks += [(f"mutual_T_at_q.n{n}.q{q}", lambda n=n, q=q: at_q(n, q)) for q in qs]
    checks += [(f"prop62.n{n}", lambda n=n: prop62(n))
               for n in range(size["prop62"][0], size["prop62"][1] + 1)]
    checks.append(("negative_controls", negative))
    return checks


def _partner_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """A pair (i, n + i), 2 <= i <= 6, of K(n): degrees n-1 and n.

    These pairs cost about the same to decide, so the seed moves the inputs
    but not the amount of work.
    """
    i = rng.randrange(2, min(7, n))
    return i, n + i


def stability(w, run: Run, rng: random.Random, size: dict):
    """Routh-Hurwitz route; Fraction Bareiss in stability does the work."""
    q_minus_1 = w.qpoly(-1, 1)

    def positive(d, boundary: bool) -> bool:
        if boundary:
            order = 0
            while True:
                try:
                    d = run.call(d.exact_div, q_minus_1, name="exactpoly.exact_divide")
                except w.DivisibilityError:
                    break
                order += 1
            if order % 2:
                return False
        return run.call(w.q_positive_on_positive_reals, d)

    def coupling(i, j):
        c = run.call(w.build_C, i, j)
        dets = run.call(w.hurwitz_determinants, c.poly, label="symbolic").determinants
        run.pin(f"C.{i}.{j}", (c.m, c.poly))
        run.pin(f"hurwitz.{i}.{j}", dets)
        boundary = (i, j) in BOUNDARY_PAIRS
        for k, d in enumerate(dets, start=1):
            run.expect(f"Delta_{k} of C({i},{j}) positive", positive(d, boundary), True)

    def via_all(n):
        fam = run.call(w.refined_K, n).polys
        relations = []
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                if fam[i].degree == 0 or fam[j].degree == 0:
                    continue
                v = run.call(w.interlace_via_stability, fam[i], fam[j], label=f"K_n{n}")
                relations.append(v.relation)
        run.counts["stability_pairs"] += len(relations)
        run.expect(f"K({n}) pairs interlace", all(r in ("strict", "weak") for r in relations), True)
        run.pin(f"via.K.n{n}", relations)

    pairs = {n: _partner_pair(n, rng) for n in size["K_pair"]}

    def via_pair(n):
        i, j = pairs[n]
        fam = run.call(w.refined_K, n).polys
        v = run.call(w.interlace_via_stability, fam[i], fam[j], label=f"K_n{n}")
        run.counts["stability_pairs"] += 1
        run.expect(f"K({n})[{i}] interlaces K({n})[{j}]", v.relation in ("strict", "weak"), True)

    g, f = _negative_pair(w, rng)
    bad = _not_real_rooted(w, rng)
    a, b = sorted(rng.sample(range(1, 20), 2))
    sign_change = w.qpoly(-a, 1) * w.qpoly(-b, 1)  # negative between a and b
    double_root = w.qpoly(-a, 1) * w.qpoly(-a, 1)

    def negative():
        run.expect("control: roots do not alternate",
                   run.call(w.interlace_via_stability, g, f, label="control").relation, "none")
        run.expect("control: not real-rooted", run.call(w.is_real_rooted, bad), False)
        run.expect("control: sign change on q > 0", run.call(w.q_positive_on_positive_reals, sign_change), False)
        run.expect("control: zero on q > 0", run.call(w.q_positive_on_positive_reals, double_root), False)
        run.counts["stability_pairs"] += 1

    checks = [(f"hurwitz_C.{i}.{j}", lambda i=i, j=j: coupling(i, j))
              for i, j in itertools.combinations(REDUCED_INDEX_SET, 2)]
    checks += [(f"via_K.n{n}", lambda n=n: via_all(n)) for n in size["K_all"]]
    checks += [(f"via_K_pair.n{n}", lambda n=n: via_pair(n)) for n in size["K_pair"]]
    checks.append(("negative_controls", negative))
    return checks


def build(w, run: Run, rng: random.Random, size: dict):
    """Cold recurrence builds; recurrences and exactpoly do the work."""
    qs = sorted(rng.sample(Q_POOL, 3))
    top = size["checkpoints"][-1]
    one_plus_q = w.qxpoly(w.qpoly(1, 1))
    built = {}

    def refined(n):
        fam = run.call(w.refined_Tq, n, label=f"n{n}").polys
        run.expect(f"refined_Tq({n}) coefficient sum", sum(map(coeff_sum, fam)), order_B(n))
        run.pin(f"refined_Tq.n{n}", fam)

    def assembled(fam, order):
        p = built[fam] = run.call(w.assemble, fam, top)
        run.expect(f"{fam}({top}) coefficient sum", coeff_sum(p), order)
        run.pin(f"{fam}.n{top}", p)
        back = run.call(w.poly_from_json, json.loads(json.dumps(run.call(w.poly_to_json, p))))
        run.equal(f"{fam}({top}) JSON round trip", back, p)

    def specialize():
        for fam in ("Tq", "Dq"):
            for q in qs:
                x = run.call(w.eval_q, built[fam], q)
                run.expect(f"{fam}({top}) at q={q}", x.coeffs, eval_q_reference(built[fam], q))
        run.equal(f"Tq({top}) / (1+q) = Dq({top})",
                  run.call(w.exact_divide, built["Tq"], one_plus_q), built["Dq"])

    def coupled():
        fam = run.call(w.refined_K, top, "recurrence").polys
        run.expect(f"K({top}) coefficient sum", sum(map(coeff_sum, fam)), 2 * order_B(top))
        run.pin(f"K.recurrence.n{top}", fam)
        run.expect(f"k_two_methods({top})",
                   identity_holds(run.call(w.check_identity, "k_two_methods", top)), True)

    def affine():
        fam = run.call(w.refined_affine_T, top).polys
        run.expect(f"refined_affine_T({top}) coefficient sum", sum(map(coeff_sum, fam)), order_B(top))
        run.pin(f"refined_affine_T.n{top}", fam)

    def matrix(n):
        run.expect(f"matrix_identity({n})", identity_holds(run.call(w.check_identity, "matrix_identity", n)), True)

    checks = [(f"refined_Tq.n{n}", lambda n=n: refined(n)) for n in size["checkpoints"]]
    checks += [
        ("assemble_Tq", lambda: assembled("Tq", order_B(top))),
        ("assemble_Dq", lambda: assembled("Dq", order_D(top))),
        ("assemble_D", lambda: assembled("D", order_D(top))),
        ("assemble_tildeB", lambda: assembled("tildeB", order_B(top))),
        ("assemble_tildeD", lambda: assembled("tildeD", order_D(top))),
        ("specialize", specialize),
        ("refined_K_recurrence", coupled),
        ("refined_affine_T", affine),
    ]
    checks += [(f"matrix_identity.n{n}", lambda n=n: matrix(n))
               for n in range(size["matrix"][0], size["matrix"][1] + 1)]
    return checks


CHECK_LISTS = {"oracle": oracle, "certify": certify, "stability": stability, "build": build}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_checks(run: Run, checks, probes: SpeedProbe | None = None) -> list[dict]:
    """Run every check in order; an exception fails the check, not the run."""
    failures = []
    for check_id, thunk in checks:
        if probes is not None:
            probes.due()
        run.errors = []
        try:
            run.span("bench.check", check_id, thunk)
        except Exception as exc:  # a raising check is a failed check
            run.errors.append(f"raised {type(exc).__name__}: {exc}")
        if run.errors:
            failures.append({"check": check_id, "errors": run.errors[:3]})
    return failures


def load_expected(scale: str, workload: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[scale][workload]


def measure(workload: str, seed: int, scale: str, trace: bool, tamper: bool, setup_only: bool) -> dict:
    import weylpoly

    expected = dict(load_expected(scale, workload))
    if tamper:
        first = next(iter(expected))
        expected[first] = "0" * 16
    run = Run(trace, expected)
    checks = CHECK_LISTS[workload](weylpoly, run, random.Random(seed), SIZES[scale])

    def complete():
        for key in sorted(set(expected) - set(run.recorded))[:3]:
            run.errors.append(f"{key}: pinned output was never produced")

    checks.append(("pinned_outputs_complete", complete))
    ready_at = time.monotonic()
    if setup_only:
        return {"ready_at": ready_at}
    probes = SpeedProbe()
    start = time.perf_counter()
    failures = run_checks(run, checks, probes)
    probes.block()
    wall = time.perf_counter() - start - probes.spent
    return {
        "ready_at": ready_at,
        "raw_wall_s": wall,
        "speed": probes.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
        "failures": failures,
        "counts": run.counts,
        "spans": run.spans,
    }


def pin_all() -> None:
    """Record the digests of every pinned output at both scales."""
    import weylpoly

    table = {}
    for scale, size in SIZES.items():
        table[scale] = {}
        for workload, make_checks in CHECK_LISTS.items():
            run = Run(False, None)
            failures = run_checks(run, make_checks(weylpoly, run, random.Random(0), size))
            if failures:
                raise SystemExit(f"{scale}/{workload} fails before pinning: {failures}")
            table[scale][workload] = run.recorded
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", choices=tuple(SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tamper", action="store_true", help="corrupt one pinned answer (self-test)")
    ap.add_argument("--setup-only", action="store_true", help="import and generate inputs, then stop")
    ap.add_argument("--pin", action="store_true", help="rewrite expected.json from the current program")
    args = ap.parse_args()
    if args.pin:
        pin_all()
        return
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(args.workload, args.seed, args.scale, args.trace, args.tamper, args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
