"""Reference values for the rank-4 families and their stability data.

These closed forms and rounded root values are transcribed independently of
the recurrence code and act as the oracle side of the table-reproduction
checks.  Factored forms are expanded here through the exact ring operations,
so equality tests downstream are coefficient-for-coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .exactpoly import QPoly, QXPoly, XPoly, qpoly, qxpoly, xpoly

_ONE_PLUS_Q = qpoly(1, 1)


def _row(*cols) -> QXPoly:
    """Ascending x-coefficients, each an ascending q-coefficient tuple."""
    return qxpoly(*cols) * _ONE_PLUS_Q


# Rank-4 refined family, common factor (1+q), x-coefficients ascending.
T4_TABLE: tuple[QXPoly, ...] = (
    _row((1,), (4, 6, 1), (1, 6, 4), (0, 0, 1)),
    _row((0,), (4, 5, 1), (2, 6, 4), (0, 1, 1)),
    _row((0,), (2, 4, 1), (4, 6, 4), (0, 2, 1)),
    _row((0,), (1, 3, 1), (4, 6, 4), (1, 3, 1)),
    _row((0,), (0, 1, 3, 1), (0, 4, 6, 4), (0, 1, 3, 1)),
    _row((0,), (0, 1, 2), (0, 4, 6, 4), (0, 1, 4, 2)),
    _row((0,), (0, 1, 1), (0, 4, 6, 2), (0, 1, 5, 4)),
    _row((0,), (0, 1), (0, 4, 6, 1), (0, 1, 6, 4), (0, 0, 0, 1)),
)

# Rank-4 coupled family with roots rounded to 4 significant figures, kept exactly.
K4_TABLE: tuple[XPoly, ...] = (
    xpoly(2, 32, 50, 12),
    xpoly(0, 26, 52, 18),
    xpoly(0, 18, 52, 26),
    xpoly(0, 12, 50, 32, 2),
    xpoly(0, 12, 50, 32, 2),
    xpoly(0, 6, 48, 38, 4),
    xpoly(0, 4, 38, 48, 6),
    xpoly(0, 2, 32, 50, 12),
)

K4_ROOTS: tuple[tuple[Fraction, ...], ...] = tuple(
    tuple(map(Fraction, row))
    for row in (
        ("-3.396", "-0.7008", "-0.07004"),
        ("-2.246", "-0.6432", "0"),
        ("-1.555", "-0.4453", "0"),
        ("-14.28", "-1.427", "-0.2945", "0"),
        ("-14.28", "-1.427", "-0.2945", "0"),
        ("-8.029", "-1.331", "-0.1404", "0"),
        ("-7.124", "-0.7513", "-0.1246", "0"),
        ("-3.396", "-0.7008", "-0.07004", "0"),
    )
)

# Coupled test polynomials, z-coefficients ascending in z, each a q-tuple.
C01_POLY: QXPoly = qxpoly(
    (1,), (4, 5, 1), (4, 6, 1), (2, 6, 4), (1, 6, 4), (0, 1, 1), (0, 0, 1)
)
C06_POLY: QXPoly = qxpoly(
    (1,), (0, 1, 1), (4, 6, 1), (0, 4, 6, 2), (1, 6, 4), (0, 1, 5, 4), (0, 0, 1)
)
C16_POLY: QXPoly = qxpoly(
    (0, 1), (4, 1), (0, 4, 2), (2, 4), (0, 1, 4), (0, 1)
) * QPoly((1, 1))

C01_STRIP_POWER = 1
C06_STRIP_POWER = 1
C16_STRIP_POWER = 2


def _prod(*factors: QPoly) -> QPoly:
    out = qpoly(1)
    for f in factors:
        out = out * f
    return out


_Q = qpoly(0, 1)
_Q2 = _Q * _Q
_Q3 = _Q2 * _Q
_Q5 = _Q3 * _Q2
_P1 = qpoly(1, 1)
_SQ = qpoly(1, 0, -2, 0, 1)  # (q^2 - 1)^2

# The quintic factor inside Delta_4 of the (0,6) coupling.
C06_DELTA4_QUINTIC: QPoly = qpoly(7, 10, -11, -12, 12, 6)

HURWITZ_TABLES: dict[tuple[int, int], tuple[QPoly, ...]] = {
    (0, 1): (
        _prod(_Q, _P1),
        _prod(_Q, qpoly(1, 5, 4)),
        _prod(qpoly(2), _Q, _P1, _P1, qpoly(1, 4, 7)),
        _prod(qpoly(4), _Q, _P1, _P1, qpoly(1, 1, 1, 3)),
        _prod(qpoly(12), _Q, _P1, _P1, _P1, _SQ),
        _prod(qpoly(12), _Q, _P1, _P1, _P1, _SQ),
    ),
    (0, 6): (
        _prod(_Q, qpoly(1, 5, 4)),
        _prod(_Q, qpoly(1, 11, 34, 38, 14)),
        _prod(qpoly(4), _Q3, _P1, _P1, qpoly(1, 1, 1, 3)),
        _prod(qpoly(2), _Q3, _P1, _P1, C06_DELTA4_QUINTIC),
        _prod(qpoly(12), _Q5, _P1, _P1, _P1, _SQ),
        _prod(qpoly(12), _Q5, _P1, _P1, _P1, _SQ),
    ),
    (1, 6): (
        _prod(_Q, qpoly(1, 5, 4)),
        _prod(qpoly(2), _Q, _P1, _P1, qpoly(1, 4, 7)),
        _prod(qpoly(4), _Q2, _P1, _P1, _P1, qpoly(1, 1, 1, 3)),
        _prod(qpoly(12), _Q2, _P1, _P1, _P1, _P1, _SQ),
        _prod(qpoly(12), _Q3, _P1, _P1, _P1, _P1, _P1, _SQ),
    ),
}

# The three couplings whose determinant lists appear above; the remaining
# twelve couplings of the reduced index set have determinants with only
# nonnegative coefficients.
SPECIAL_PAIRS = ((0, 1), (0, 6), (1, 6))
REDUCED_INDEX_SET = (0, 1, 2, 3, 5, 6)

# Small affine assembled values.
TILDE_D3: XPoly = xpoly(0, 4, 16, 4)
