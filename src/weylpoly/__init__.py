"""Exact arithmetic for Eulerian-like polynomial families of Weyl groups.

The package computes descent-type generating polynomials (types A, B, D,
their q-analogues, and the affine variants), verifies their recurrences
against exhaustive enumeration, and certifies real-rootedness and mutual
interlacing through root isolation by Budan-Fourier counts (Sturm counts
where those prove a polynomial not real-rooted) and Routh-Hurwitz
stability, all over arbitrary-precision rationals.
"""

from .errors import (
    DivisibilityError,
    DomainError,
    EnumerationCapError,
    PreconditionError,
    StabilityInapplicableError,
    UsageError,
    WeylPolyError,
)
from .exactpoly import (
    CoeffProps,
    QPoly,
    QXPoly,
    Rational,
    XPoly,
    coeff_props,
    derivative,
    eval_q,
    exact_divide,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    qpoly,
    qxpoly,
    xpoly,
)
from .realroots import (
    InterlacingVerdict,
    RootInterval,
    RootIsolation,
    count_roots_in,
    interlaces,
    is_real_rooted,
    isolate_roots,
    mutually_interlacing,
    square_free,
)
from .recurrences import (
    NXEntry,
    NXMatrix,
    RefinedFamily,
    TransformSpec,
    WeightedComboSpec,
    assemble,
    ceil_index,
    check_identity,
    fisk_nx_check,
    interlacing_transform,
    nx_const,
    nx_x,
    recurrence_nx_matrix,
    refined_K,
    refined_T1,
    refined_Tq,
    refined_affine_T,
    weighted_combination,
)
from . import realroots, recurrences, weylcomb
from .report import ReportEntry, VerificationReport
from .stability import (
    CPairResult,
    HBSplit,
    StabilityReport,
    build_C,
    hb_split,
    hurwitz_determinants,
    interlace_via_stability,
    q_positive_on_positive_reals,
)
from .verify import run_suite
from .weylcomb import (
    InvSeq,
    InvStatRecord,
    SignedPerm,
    StatRecord,
    brute_polynomial,
    enumerate_objects,
    even_signed_perms,
    inv_stats,
    inversion_sequences,
    psi,
    psi_inverse,
    signed_perms,
    stats,
)

__version__ = "0.1.0"


def cache_info() -> dict[str, dict[str, int]]:
    """Hits, misses, maxsize and currsize of each of the package's five caches, by name."""
    caches = {"weylcomb._joint_table": weylcomb._joint_table, "recurrences._TQ_STORE": recurrences._TQ_STORE,
              "recurrences._T1_STORE": recurrences._T1_STORE, "recurrences._K_STORE": recurrences._K_STORE,
              "realroots._profile": realroots._profile}
    return {name: cache.cache_info()._asdict() for name, cache in caches.items()}
