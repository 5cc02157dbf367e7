"""Exact univariate polynomial arithmetic over big rationals.

Three dense, immutable carrier types share one base class:

* ``QPoly``  -- polynomial in q with arbitrary-precision integer coefficients.
* ``XPoly``  -- polynomial in x with ``fractions.Fraction`` coefficients.
* ``QXPoly`` -- polynomial in x whose coefficients are ``QPoly`` values.

Coefficient sequences are stored in ascending order (index k holds the
coefficient of the k-th power) and are trailing-zero trimmed, so the zero
polynomial has an empty tuple.  Its degree is the sentinel ``-inf``, which
keeps degree-gap rules in the interlacing code unambiguous.

All operations are pure and exact; mixing kinds in ring operations raises
``TypeError``.  JSON serialization uses decimal strings for every integer so
round-trips are bit-exact.

Every number from outside passes one gate, ``_rational`` (an int or a
Fraction), ``_integer`` or ``_rank``, and every polynomial in one variable
``_univariate``; anything else raises UsageError.  One integer kernel
(``_canonical``, ``_primitive``, ``_int_gcd``, ``_horner``, ``_digit_bytes``,
``_widen``, ``_fields``, ``_digits``) works on integer coefficient tuples, and
``_long_divide`` is its one division, for every ``exact_div`` and the gcd's trial.
``_canonical`` is its one reduction of a polynomial, shared by all its
nonzero rational multiples; ``_int_gcd`` its one gcd, for ``poly_gcd`` and
``realroots``, a heuristic gcd whose packing width doubles until an exact
division proves it, with no remainder sequence behind it, and which returns
the cofactors that division computed; ``_horner`` its
one evaluation, for ``evaluate``, ``eval_q``, every sign of a root cell,
and its one packer: a pack at 2^W is the value at 2^W, for the gcd, the
recurrence seeds and the symbolic Hurwitz minors; ``_digit_bytes`` its one
width rule, the fewest whole bytes of a balanced digit that holds a bound, for
every packing width, the gcd's first width included;
``_widen`` its one field widener, nb strided slice copies, for ``_fields`` and
the repack of ``recurrences``; ``_fields`` its one reader of packed unsigned
fields, every width in C with no loop in Python over the fields, for ``_digits``
and the packed carrier of ``recurrences``; ``_digits`` its one reader of packed
balanced digits: the fields of v plus 2^(W-1) in every digit, minus 2^(W-1),
or at 8 bytes, the floor of ``realroots._taylor``, one read of signed words.  ``_routh_minors`` is
its one Routh array, the Hurwitz minors of ``stability``, and ``_routh_pair``
its one stability test of an interlacing pair of integer forms, for the one
pair decision of ``realroots``.
"""

from __future__ import annotations

import itertools
import operator
import struct
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import partial
from math import comb, gcd as int_gcd, lcm

from .errors import DivisibilityError, UsageError
from .record import Record

NEG_INF = float("-inf")

Rational = Fraction


def _rational(v, what: str) -> Fraction:
    """v as a Fraction from an int, or v itself if it is a Fraction; anything
    else (a float, a string, NaN, None) raises UsageError naming ``what``."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise UsageError(f"{what} must be an int or a Fraction, got {v!r}")


def _integer(v, what: str) -> int:
    """v as an int by ``operator.index``; a float, a string or None raises UsageError."""
    try:
        return operator.index(v)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {v!r}") from None


def _rank(n, least: int, what: str) -> int:
    """n through ``_integer``, at least ``least``; else UsageError."""
    n = _integer(n, what)
    if n < least:
        raise UsageError(f"{what} {n} is below the smallest rank {least}")
    return n


def _univariate(p, what: str):
    """p if it is an XPoly or a QPoly; anything else raises UsageError naming ``what``."""
    if isinstance(p, (XPoly, QPoly)):
        return p
    raise UsageError(f"{what} must be an XPoly or a QPoly, got {type(p).__name__}")


# ---------------------------------------------------------------------------
# Dense polynomials over a coefficient ring
# ---------------------------------------------------------------------------


class _DensePoly(Record):
    """Dense polynomial, ascending coefficients, generic over the ring.

    Subclasses add no field (``__slots__ = ()``) and set four class
    constants: ``_coerce`` converts one coefficient (a TypeError from it
    becomes UsageError), ``_scalars`` lists the types accepted as constants,
    ``_zero`` is the coefficient zero, and ``_quot`` is the exact quotient of
    two leading coefficients (raising DivisibilityError when there is none).
    ``_trusted(coeffs)`` takes coefficients already of the ring's type, trimmed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple = ()):
        try:
            c = tuple(map(self._coerce, coeffs))
        except TypeError:
            raise UsageError(f"{type(self).__name__} coefficients of the wrong kind: {coeffs!r}") from None
        while c and not c[-1]:
            c = c[:-1]
        self._setters[0](self, c)

    def _values(self) -> tuple:
        return (self.coeffs,)

    def _lift(self, v):
        """v as a polynomial of this kind, or NotImplemented."""
        if isinstance(v, type(self)):
            return v
        if isinstance(v, self._scalars):
            return type(self)((v,))
        return NotImplemented

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._zero

    @property
    def leading(self):
        if not self.coeffs:
            raise UsageError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=self._zero)
        return type(self)(tuple(a + b for a, b in pairs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=self._zero)
        return type(self)(tuple(a - b for a, b in pairs))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return type(self)(tuple(c * other for c in self.coeffs))
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return type(self)()
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return type(self)(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _rank(n, 0, "power")
        out = type(self)((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift_up(self, k: int = 1):
        """Multiply by the variable to the k-th power."""
        k = _rank(k, 0, "shift")
        if not self.coeffs:
            return self
        return type(self)((self._zero,) * k + self.coeffs)

    def evaluate(self, v0) -> Fraction:
        """The value at v0, an int or a Fraction, by ``_horner``; a QXPoly, in two variables,
        raises UsageError (``eval_q`` substitutes q)."""
        if isinstance(self, QXPoly):
            raise UsageError("a QXPoly has two variables: substitute q with eval_q, then evaluate")
        v0 = _rational(v0, "the evaluation point")
        scale, ints = _clear_denominators(self.coeffs)
        den = v0.denominator
        return Fraction(_horner(ints, v0.numerator, den), scale * den ** max(len(ints) - 1, 0))

    def exact_div(self, other):
        """Exact quotient in the same ring; raises DivisibilityError otherwise."""
        divisor = self._lift(other)
        if divisor is NotImplemented:
            raise UsageError(f"cannot divide {type(self).__name__} by {type(other).__name__}")
        quo, rem = _long_divide(self, divisor)
        if any(rem):
            raise DivisibilityError("inexact polynomial division", remainder=type(self)(tuple(rem)))
        return type(self)(tuple(quo))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _long_divide(a: _DensePoly, b: _DensePoly) -> tuple[list, list]:
    """Quotient and remainder coefficient lists of a / b, both of one kind.

    The top coefficient of each step cancels exactly, so it is popped
    without being computed.  A leading coefficient with no exact quotient
    raises DivisibilityError carrying the remainder reached so far.
    """
    if not b.coeffs:
        raise UsageError("division by the zero polynomial")
    cls = type(a)
    quot = cls._quot
    divisor = b.coeffs
    db = len(divisor) - 1
    lead = divisor[-1]
    rem = list(a.coeffs)
    quo = [cls._zero] * max(len(rem) - db, 0)
    while len(rem) > db:
        top = rem[-1]
        if not top:
            rem.pop()
            continue
        try:
            t = quot(top, lead)
        except DivisibilityError:
            raise DivisibilityError("inexact polynomial division", remainder=cls(tuple(rem))) from None
        shift = len(rem) - 1 - db
        quo[shift] = t
        for k in range(db):
            rem[shift + k] -= t * divisor[k]
        rem.pop()
    return quo, rem


def _int_quot(a: int, b: int) -> int:
    t, r = divmod(a, b)
    if r:
        raise DivisibilityError("leading coefficient not divisible")
    return t


# ---------------------------------------------------------------------------
# QPoly: integer polynomials in q
# ---------------------------------------------------------------------------


class QPoly(_DensePoly):
    """Dense integer polynomial in q, ascending coefficients."""

    __slots__ = ()
    _coerce = operator.index  # rejects floats and strings rather than truncating or parsing them
    _scalars = (int,)
    _zero = 0
    _quot = staticmethod(_int_quot)

    def __str__(self) -> str:
        return _render(self.coeffs, "q")


Q_ZERO = QPoly()
ONE_PLUS_Q = QPoly((1, 1))


# ---------------------------------------------------------------------------
# XPoly: rational polynomials in x
# ---------------------------------------------------------------------------


class XPoly(_DensePoly):
    """Dense polynomial in x over exact rationals, ascending coefficients."""

    __slots__ = ()
    _coerce = staticmethod(partial(_rational, what="an XPoly coefficient"))
    _scalars = (int, Fraction)
    _zero = Fraction(0)
    _quot = staticmethod(operator.truediv)

    def derivative(self) -> "XPoly":
        """Formal derivative."""
        return XPoly(_derivative(self.coeffs))

    def monic(self) -> "XPoly":
        if not self.coeffs:
            raise UsageError("the zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        return XPoly(tuple(c / lead for c in self.coeffs))

    def __str__(self) -> str:
        return _render(self.coeffs, "x")


X_ZERO = XPoly()
X_ONE = XPoly((Fraction(1),))
X_VAR = XPoly((Fraction(0), Fraction(1)))


def xpoly(*coeffs) -> XPoly:
    """Convenience constructor from ascending int/Fraction coefficients."""
    return XPoly(coeffs)


def qpoly(*coeffs) -> QPoly:
    return QPoly(coeffs)


# ---------------------------------------------------------------------------
# QXPoly: polynomials in x with QPoly coefficients
# ---------------------------------------------------------------------------


def _require_qpoly(v) -> QPoly:
    if isinstance(v, QPoly):
        return v
    if isinstance(v, int):
        return QPoly((v,))
    raise UsageError(f"QXPoly coefficients must be QPoly or int, got {type(v).__name__}")


class QXPoly(_DensePoly):
    """Polynomial in x whose coefficients are integer polynomials in q."""

    __slots__ = ()
    _coerce = staticmethod(_require_qpoly)
    _scalars = (int, QPoly)
    _zero = Q_ZERO
    _quot = staticmethod(QPoly.exact_div)

    def eval_q(self, q0) -> XPoly:
        """Substitute q := q0 (an int or a Fraction) exactly in every coefficient."""
        q0 = _rational(q0, "q")
        num, den = q0.numerator, q0.denominator
        return XPoly(
            tuple(Fraction(_horner(c.coeffs, num, den), den ** max(len(c.coeffs) - 1, 0)) for c in self.coeffs)
        )

    def __str__(self) -> str:
        return _render_qx(self.coeffs)


def qxpoly(*coeffs) -> QXPoly:
    """Constructor from ascending coefficients, each a QPoly, int, or int tuple."""
    return QXPoly(tuple(QPoly(tuple(c)) if isinstance(c, (tuple, list)) else c for c in coeffs))


# ---------------------------------------------------------------------------
# Shared operations
# ---------------------------------------------------------------------------


def eval_q(p: QXPoly, q0) -> XPoly:
    if not isinstance(p, QXPoly):
        raise UsageError(f"eval_q needs a QXPoly, got {type(p).__name__}")
    return p.eval_q(q0)


def exact_divide(a, b):
    """Exact quotient a / b in the matching polynomial ring.

    Accepts XPoly/XPoly and QXPoly/QXPoly (a QPoly or int divisor is promoted
    to a constant QXPoly).  Raises DivisibilityError, carrying the remainder,
    when b does not divide a exactly.
    """
    if not isinstance(a, (XPoly, QXPoly)):
        raise UsageError(f"unsupported dividend type {type(a).__name__}")
    return a.exact_div(b)


def derivative(p: XPoly) -> XPoly:
    if not isinstance(p, XPoly):
        raise UsageError(f"derivative needs an XPoly, got {type(p).__name__}")
    return p.derivative()


# ---------------------------------------------------------------------------
# Integer kernel: primitive integer coefficient tuples
# ---------------------------------------------------------------------------


def _primitive(ints: list[int]) -> tuple[int, ...]:
    """Trim trailing zeros and divide out the content, preserving sign."""
    while ints and ints[-1] == 0:
        ints.pop()
    g = int_gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, den * coeffs) with den the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _positive_primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The primitive part with a positive leading coefficient; () for zero."""
    out = _primitive(list(ints))
    return out if not out or out[-1] > 0 else tuple(-c for c in out)


def _canonical(p: QPoly | XPoly) -> tuple[int, ...]:
    """Denominators cleared, content divided out, leading coefficient
    positive; () for zero.  Every nonzero rational multiple of p has this form."""
    return _positive_primitive(_clear_denominators(p.coeffs)[1])


def _horner(ints: Sequence[int], num: int, den: int) -> int:
    """den^d p(num/den) for p = sum ints[t] x^t of degree d (den > 0), in integers only.

    Horner's rule on sum c_t num^t den^(d-t); when den is a power of two 2^k,
    as at every bisection point, den^s is a shift by k s.
    """
    if not ints:
        return 0
    acc = ints[-1]
    k = den.bit_length() - 1
    if den == 1 << k:
        for s, c in enumerate(reversed(ints[:-1]), 1):
            acc = acc * num + (c << k * s)
    else:
        dp = 1
        for c in reversed(ints[:-1]):
            dp *= den
            acc = acc * num + c * dp
    return acc


def _digit_bytes(bound: int) -> int:
    """The fewest whole bytes nb with 2^(8 nb - 1) > bound >= 0: the one width rule of the
    kernel, for a balanced digit that holds every integer of absolute value up to bound."""
    return (bound.bit_length() + 8) >> 3


def _widen(raw: bytes, nb: int, wide_nb: int) -> bytearray:
    """The little-endian nb-byte fields of raw, each zero-extended to wide_nb >= nb bytes,
    by nb strided slice copies in C."""
    wide = bytearray(len(raw) // nb * wide_nb)
    for b in range(nb):
        wide[b::wide_nb] = raw[b::nb]
    return wide


def _fields(v: int, nb: int, count: int) -> list[int]:
    """The ``count`` unsigned nb-byte fields of v >= 0, least significant first, read in C.

    Below 8 bytes, ``_widen`` widens each field to 8 bytes; up to 8 bytes,
    ``struct`` reads the words as little-endian ``Q``, on any host; above, ``struct``
    slices the fields and ``int.from_bytes`` reads each one."""
    raw = v.to_bytes(nb * count, "little")
    if nb > 8:
        return list(map(int.from_bytes, struct.unpack(f"{nb}s" * count, raw), itertools.repeat("little")))
    return list(struct.unpack(f"<{count}Q", _widen(raw, nb, 8) if nb < 8 else raw))


def _digits(v: int, nb: int, count: int | None = None) -> list[int]:
    """The balanced base-2^W digits of v, W = 8 nb, each in [-2^(W-1), 2^(W-1)), least
    significant first: ``count`` of them, or as many as v needs, the top one perhaps zero."""
    w = nb << 3
    if count is None:
        count = (v.bit_length() + 1) // w + 1  # |v| < 2^(W count - 2)
    # adding half = 2^(W-1) to every digit makes each one nonnegative, with no carries
    halves = int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")
    if nb == 8:
        # flipping each top bit back leaves every digit in two's complement, read as signed words
        return list(struct.unpack(f"<{count}q", ((v + halves) ^ halves).to_bytes(8 * count, "little")))
    return list(map((-1 << (w - 1)).__add__, _fields(v + halves, nb, count)))


def _derivative(coeffs: Sequence) -> tuple:
    """Formal derivative of an ascending coefficient sequence."""
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def _int_gcd(f: Sequence[int], g: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """(h, f / h, g / h) for h the gcd of two integer polynomials, not both zero, primitive with
    lc > 0: GCDHEU (Char, Geddes and Gonnet 1989), the primitive part G of the balanced digits of
    gcd(f(xi), g(xi)) at xi = 2^W, W = 8 ``_digit_bytes(m)`` for m = min(|f|, |g|) (max norms):
    2^(W-1) > m, the same as xi >= 2 m + 2.  A common factor G k of f and g has k(xi) dividing
    the content of G's digits, at most xi / 2, and a nonconstant k has |k(xi)| > xi / 2, its
    roots below 1 + m <= xi / 2; so G is the gcd if it is a constant or it divides f and g
    exactly, by the ``_long_divide`` of every ``exact_div``, whose quotients are the cofactors.
    Else W doubles, with no limit.  A constant gcd is 1, with the cofactors f and g; a zero
    argument has the cofactor (), the other its signed content.

    The loop ends.  With h the gcd, f = h u and g = h v, once xi lies above every root of f g,
    gcd(f(xi), g(xi)) = h(xi) c, where c = gcd(u(xi), v(xi)) divides res(u, v), an integer
    combination a u + b v, or is the gcd of two constants; either way |c| has a bound that does
    not depend on xi.  Once also 2^(W-1) > |c| |h|, the balanced digits are c h, so G = h and
    the trial accepts it, and doubling W reaches that width in logarithmically many tries.
    Nothing here needs f or g primitive."""
    if not f or not g:
        h = _positive_primitive(f or g)
        content = ((f or g)[-1] // h[-1],)
        return (h, content, ()) if f else (h, (), content)
    nb = _digit_bytes(min(max(map(abs, f)), max(map(abs, g))))
    while True:
        xi = 1 << (nb << 3)
        h = _positive_primitive(_digits(int_gcd(_horner(f, xi, 1), _horner(g, xi, 1)), nb))
        if len(h) == 1:
            return h, f, g
        try:
            u, v = (QPoly._trusted(p).exact_div(QPoly._trusted(h)).coeffs for p in (f, g))
            return h, u, v
        except DivisibilityError:  # at the first leading coefficient with no exact quotient
            nb <<= 1


def poly_gcd(a: XPoly, b: XPoly) -> XPoly:
    """Monic greatest common divisor over the rationals, by ``_int_gcd``."""
    a, b = _univariate(a, "a"), _univariate(b, "b")
    if a.is_zero() and b.is_zero():
        raise UsageError("gcd of two zero polynomials is undefined")
    return XPoly(_int_gcd(_canonical(a), _canonical(b))[0]).monic()


# ---------------------------------------------------------------------------
# Routh's array: Hurwitz minors and the stability test of an interlacing pair
# ---------------------------------------------------------------------------


def _interleave(even, odd):
    """(m, c) with even(z^2) + z * odd(z^2) = z^m * (c[0] + c[1] z + ...).

    even and odd are trimmed coefficient tuples of one ring, not both
    empty; c is a list with c[0] and c[-1] nonzero.
    """
    c = list(itertools.chain.from_iterable(itertools.zip_longest(even, odd, fillvalue=0)))
    if not c[-1]:  # the fill after the last coefficient of a longer even part
        c.pop()
    m = 0
    while not c[m]:
        m += 1
    return m, c[m:]


def _routh_minors(a):
    """Delta_1, ..., Delta_n of a[0] z^n + ... + a[n], in order, from the fraction-free Routh array.

    The entries are ints.  At the first zero Delta_k with k < n the array
    reruns on p + eps (z+1)^n, with QPoly entries read as integer
    polynomials in eps, whose minors are never zero; the constant terms of
    its Delta_{k+1}, ..., Delta_n follow.  The ``stability`` module
    docstring derives the array.
    """
    zero, quot = (0, _int_quot) if type(a[0]) is int else (QPoly(), QPoly.exact_div)
    n = len(a) - 1
    older, row = list(a[0::2]), list(a[1::2])
    minors = [row[0]]
    yield row[0]
    for k in range(1, n):
        if not row[0]:
            lifted = _routh_minors([QPoly((c, comb(n, i))) for i, c in enumerate(a)])
            for d in itertools.islice(lifted, k, None):
                yield d.coeff(0)
            return
        new = [row[0] * x - older[0] * y for x, y in zip(older[1:], row[1:] + [zero])]
        if k >= 3:  # d_k = Delta_{k-2}; d_1 = d_2 = 1
            new = [quot(v, minors[k - 3]) for v in new]
        older, row = row, new
        minors.append(row[0])
        yield row[0]


def _routh_pair(f: Sequence[int], g: Sequence[int]) -> tuple[int, bool]:
    """(m, stable) for P = g(z^2) + z f(z^2): z^m is the largest power of z dividing P, and
    stable whether every Hurwitz minor of P / z^m is positive.

    f and g are nonzero integer coefficient tuples, ascending, with
    positive leading coefficients, so P / z^m, of degree at least one, has
    one too, and positive minors make it Hurwitz stable.  Then f interlaces
    g and both are real-rooted (Hermite-Biehler): the roots of f and g are
    simple, negative and strictly interlacing apart from a shared root at 0,
    and f(0) = g(0) = 0 exactly when m >= 2.  The minors are read in order
    and the test stops at the first that is not positive, before any lift.
    """
    m, c = _interleave(g, f)
    return m, all(d > 0 for d in _routh_minors(c[::-1]))


# ---------------------------------------------------------------------------
# Coefficient-shape diagnostics
# ---------------------------------------------------------------------------


class CoeffProps(Record):
    nonnegative: bool
    symmetric: bool
    unimodal: bool
    log_concave: bool


def coeff_props(p: XPoly) -> CoeffProps:
    """Shape report for the coefficient sequence.

    Symmetry is tested against reversal of the span between the lowest and
    highest nonzero coefficients; unimodality and log-concavity are tested on
    that same span (zeros inside the span count).  The zero polynomial gets
    all four flags vacuously true.
    """
    c = _univariate(p, "p").coeffs
    if not c:
        return CoeffProps(True, True, True, True)
    nonneg = all(v >= 0 for v in c)
    lo = next(k for k, v in enumerate(c) if v != 0)
    hi = len(c) - 1
    span = c[lo : hi + 1]
    symmetric = span == tuple(reversed(span))
    unimodal = True
    falling = False
    for prev, cur in zip(span, span[1:]):
        if cur < prev:
            falling = True
        elif cur > prev and falling:
            unimodal = False
            break
    log_concave = all(span[k] * span[k] >= span[k - 1] * span[k + 1] for k in range(1, len(span) - 1))
    return CoeffProps(nonneg, symmetric, unimodal, log_concave)


# ---------------------------------------------------------------------------
# JSON serialization (decimal-string integers, bit-exact round-trip)
# ---------------------------------------------------------------------------


def xpoly_to_json(p: XPoly) -> dict:
    return {"var": "x", "coeffs": [[str(c.numerator), str(c.denominator)] for c in p.coeffs]}


def _json_rows(d, key: str, value, kind: str) -> list[tuple[int, ...]]:
    """The rows of d["coeffs"] as ints, if d is a dict with d[key] == value and d["coeffs"] a list of
    lists of decimal-integer strings as ``str`` writes them; anything else raises UsageError."""
    if not isinstance(d, dict) or d.get(key) != value:
        raise UsageError(f"not a serialized {kind}: {d!r:.60}")
    rows = d.get("coeffs")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise UsageError(f"{kind} coeffs must be a list of lists, got {rows!r:.60}")
    return [tuple(map(_decimal, row)) for row in rows]


def _decimal(v) -> int:
    """The int n with str(n) == v; for any other v, UsageError naming it."""
    try:
        if str(n := int(v)) == v:
            return n
    except (TypeError, ValueError):
        pass
    raise UsageError(f"a coefficient must be a decimal-integer string, got {v!r:.60}")


def xpoly_from_json(d: dict) -> XPoly:
    rows = _json_rows(d, "var", "x", "XPoly")
    for row in rows:
        if len(row) != 2 or not row[1]:
            raise UsageError(f"an XPoly coefficient must be [numerator, nonzero denominator], got {row}")
    return XPoly(tuple(Fraction(*row) for row in rows))


def qxpoly_to_json(p: QXPoly) -> dict:
    return {"vars": ["x", "q"], "coeffs": [[str(v) for v in c.coeffs] for c in p.coeffs]}


def qxpoly_from_json(d: dict) -> QXPoly:
    return QXPoly(tuple(map(QPoly, _json_rows(d, "vars", ["x", "q"], "QXPoly"))))


def poly_to_json(p) -> dict:
    if isinstance(p, XPoly):
        return xpoly_to_json(p)
    if isinstance(p, QXPoly):
        return qxpoly_to_json(p)
    raise UsageError(f"unsupported polynomial type {type(p).__name__}")


def poly_from_json(d: dict):
    if isinstance(d, dict) and "var" in d:
        return xpoly_from_json(d)
    return qxpoly_from_json(d)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def _render(coeffs: Iterable, var: str) -> str:
    """Ascending coefficients as text; a fraction before a power of ``var`` is parenthesized,
    so (1/4)x^3 does not read as 1/(4x^3)."""
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag) if mag.denominator == 1 else f"({mag})"
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _render_qx(coeffs: tuple[QPoly, ...]) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if len(c.coeffs) == 1:
            head = _render(c.coeffs, "q")
        else:
            head = f"({_render(c.coeffs, 'q')})"
        if k == 0:
            body = head
        else:
            if head == "1":
                head = ""
            body = f"{head}x" if k == 1 else f"{head}x^{k}"
        parts.append(body)
    if not parts:
        return "0"
    return " + ".join(parts)
