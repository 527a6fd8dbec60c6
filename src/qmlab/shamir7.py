"""The fixed five-bit product-recovery scheme over GF(7).

Sharing a secret as the coefficient product of a random line with both
coefficients nonzero, five servers at 0..4 can each leak a single set
membership bit and still pin the product down exactly: 5 bits instead of the
6 a two-symbol download would cost.  This module holds that scheme as a
constant, its verification over all 36 qualifying lines, the one-bit leakage
demonstration, and the full 7x7 grid of evaluation images the analysis runs
on.  The grid is a hand-written constant on purpose -- tests cross-check it
cell by cell against the computed bucket images.
"""

from __future__ import annotations

from .galois import field, mask_of
from .qm import LeakageScheme, leak_bit, verify_scheme
from .rscode import bucket_eval

_F7 = frozenset(range(7))
_F7_UNITS = frozenset(range(1, 7))


def _pm(*vals) -> frozenset:
    """Close the given values under negation mod 7."""
    out = set()
    for v in vals:
        out.add(v % 7)
        out.add(-v % 7)
    return frozenset(out)


# Leakage sets bound to servers 0..4 in schedule order.
GF7_SETS = (_pm(0, 2), _pm(0, 1), _pm(0, 3), _pm(0, 2), _pm(0, 1))

# Evaluation images B_gamma(alpha); row = evaluation point, column = product.
_IMAGE_GRID = (
    (_F7, _F7_UNITS, _F7_UNITS, _F7_UNITS, _F7_UNITS, _F7_UNITS, _F7_UNITS),
    (_F7, _pm(1, 2), _pm(1, 3), _pm(0, 3), _pm(2, 3), _pm(0, 1), _pm(0, 2)),
    (_F7, _pm(1, 3), _pm(2, 3), _pm(0, 2), _pm(1, 2), _pm(0, 3), _pm(0, 1)),
    (_F7, _pm(0, 3), _pm(0, 2), _pm(1, 3), _pm(0, 1), _pm(1, 2), _pm(2, 3)),
    (_F7, _pm(2, 3), _pm(1, 2), _pm(0, 1), _pm(1, 3), _pm(0, 2), _pm(0, 3)),
    (_F7, _pm(0, 1), _pm(0, 3), _pm(1, 2), _pm(0, 2), _pm(2, 3), _pm(1, 3)),
    (_F7, _pm(0, 2), _pm(0, 1), _pm(2, 3), _pm(0, 3), _pm(1, 3), _pm(1, 2)),
)


def gf7_scheme() -> LeakageScheme:
    """The five-server, one-bit-per-server scheme over GF(7)."""
    return LeakageScheme(field(7), range(5), range(5), map(mask_of, GF7_SETS))


def verify_gf7() -> bool:
    """Whether the transcript determines the product on every line with
    both coefficients nonzero."""
    scheme = gf7_scheme()
    return verify_scheme(scheme, scheme.ctx.units)


def download_cost() -> tuple:
    """(bits the scheme leaks, bits two full-symbol downloads would cost)."""
    scheme = gf7_scheme()
    return scheme.t, 2 * (scheme.ctx.q - 2).bit_length()


def one_bit_leak(alpha: int, t_set) -> dict:
    """Products ruled out by a single membership bit at one point.

    The responses consistent with bit b are the set itself (b = 0) or its
    complement (b = 1); a product gamma is ruled out when its evaluation
    image at alpha misses every consistent response.  Returns {bit:
    eliminated products}.
    """
    ctx = field(7)
    t_mask = mask_of(t_set)
    out = {}
    for bit in (0, 1):
        consistent = mask_of(x for x in ctx.elements if leak_bit(t_mask, x) == bit)
        out[bit] = frozenset(
            g for g in ctx.elements if not bucket_eval(ctx, g, alpha) & consistent
        )
    return out


def figure1_table() -> tuple:
    """The 7x7 grid of evaluation images, rows by point and columns by
    product, as hand-written constants."""
    return _IMAGE_GRID
