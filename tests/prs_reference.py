"""The primitive remainder sequence: the tests' reference for Sturm chains and gcds.

The library has no remainder sequence; its one gcd is the heuristic
``exactpoly._int_gcd``.  This sequence checks it, and builds the Sturm chains
that the root isolation is compared against.
"""

from weylpoly.exactpoly import _prem, _primitive


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
