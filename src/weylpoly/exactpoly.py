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
(``_canonical``, ``_primitive``, ``_prem``, ``_prs``, ``_horner``,
``_digits``) works on integer coefficient tuples.  ``_canonical`` is its one
reduction of a polynomial, shared by all its nonzero rational multiples;
``_prs`` its one remainder sequence, for ``poly_gcd`` and the Sturm chains
and square-free decomposition of ``realroots``; ``_horner`` its one
evaluation, for ``evaluate``, ``eval_q`` and every Sturm sign; ``_digits``
its one reader of packed balanced digits.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import partial
from math import gcd as int_gcd, lcm

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
        """The value at v0, an int or a Fraction, by ``_horner`` (QPoly and XPoly)."""
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


def _prem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Pseudo-remainder |lc(g)| ** max(deg f - deg g + 1, 0) * rem(f, g).

    The scaling is a positive power of |lc(g)|, so the integer remainder has
    the signs of the rational one.  Trailing zeros are not trimmed.
    """
    lead = g[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    low = g[:-1]
    dg = len(low)
    rem = list(f)
    while len(rem) > dg:
        top = sign * rem.pop()
        if scale != 1:
            rem = [scale * c for c in rem]
        if top:
            shift = len(rem) - dg
            for k, c in enumerate(low):
                rem[shift + k] -= top * c
    return rem


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


def _digits(v: int, nb: int, count: int | None = None) -> list[int]:
    """The balanced base-2^W digits of v, W = 8 nb, each in [-2^(W-1), 2^(W-1)), least
    significant first: ``count`` of them, or as many as v needs, the top one perhaps zero."""
    w = nb << 3
    if count is None:
        count = (v.bit_length() + 1) // w + 1  # |v| < 2^(W count - 2)
    half = 1 << (w - 1)
    # adding half to every digit makes each one nonnegative, with no carries
    raw = (v + int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")).to_bytes(nb * count, "little")
    return [int.from_bytes(raw[k : k + nb], "little") - half for k in range(0, nb * count, nb)]


def _derivative(coeffs: Sequence) -> tuple:
    """Formal derivative of an ascending coefficient sequence."""
    return tuple(k * c for k, c in enumerate(coeffs) if k >= 1)


def _prs(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """f, g (left out if zero), then the primitive part of minus each pseudo-remainder.

    A primitive remainder sequence (Collins 1967, Brown 1971): it stops at a
    constant or before a zero remainder, and its last member is gcd(f, g) up
    to sign and content.  ``_prem`` keeps the signs of the rational
    remainders, so ``_prs(p, p')`` is the Sturm chain of p.
    """
    seq = [f]
    while g:
        seq.append(g)
        if len(g) == 1:
            break
        f, g = g, _primitive([-c for c in _prem(f, g)])
    return tuple(seq)


def _int_gcd(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """gcd of two integer polynomials, not both zero, primitive with lc > 0."""
    return _positive_primitive(_prs(f, g)[-1])


def poly_gcd(a: XPoly, b: XPoly) -> XPoly:
    """Monic greatest common divisor over the rationals, by ``_int_gcd``."""
    a, b = _univariate(a, "a"), _univariate(b, "b")
    if a.is_zero() and b.is_zero():
        raise UsageError("gcd of two zero polynomials is undefined")
    return XPoly(_int_gcd(_canonical(a), _canonical(b))).monic()


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


def xpoly_from_json(d: dict) -> XPoly:
    if d.get("var") != "x":
        raise UsageError("not a serialized XPoly")
    return XPoly(tuple(Fraction(int(num), int(den)) for num, den in d["coeffs"]))


def qxpoly_to_json(p: QXPoly) -> dict:
    return {"vars": ["x", "q"], "coeffs": [[str(v) for v in c.coeffs] for c in p.coeffs]}


def qxpoly_from_json(d: dict) -> QXPoly:
    if d.get("vars") != ["x", "q"]:
        raise UsageError("not a serialized QXPoly")
    return QXPoly(tuple(QPoly(tuple(int(v) for v in c)) for c in d["coeffs"]))


def poly_to_json(p) -> dict:
    if isinstance(p, XPoly):
        return xpoly_to_json(p)
    if isinstance(p, QXPoly):
        return qxpoly_to_json(p)
    raise UsageError(f"unsupported polynomial type {type(p).__name__}")


def poly_from_json(d: dict):
    if "var" in d:
        return xpoly_from_json(d)
    return qxpoly_from_json(d)


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def _render(coeffs: Iterable, var: str) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
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
