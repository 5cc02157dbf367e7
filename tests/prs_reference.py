"""The primitive remainder sequence: the tests' reference for Sturm chains and gcds.

The library has no remainder sequence and no pseudo-remainder; its one gcd is
the heuristic ``exactpoly._int_gcd``, and its one division ``_long_divide``.
This sequence checks the gcd, and builds the Sturm chains that the root
isolation is compared against.
"""

from collections.abc import Sequence

from weylpoly.exactpoly import _primitive


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


def prs(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """f, g (left out if zero), then the primitive part of minus each pseudo-remainder.

    A primitive remainder sequence (Collins 1967, Brown 1971): it stops at a
    constant or before a zero remainder, and its last member is gcd(f, g) up
    to sign and content.  ``_prem`` keeps the signs of the rational
    remainders, so ``prs(p, p')`` is the Sturm chain of p.
    """
    seq = [f]
    while g:
        seq.append(g)
        if len(g) == 1:
            break
        f, g = g, _primitive([-c for c in _prem(f, g)])
    return tuple(seq)
