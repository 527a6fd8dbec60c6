"""Complete quadratic character sums and additive-equation solvability.

Polynomials are coefficient tuples, constant term first, entries being field
element encodings.  The character sum of f is sum(chi(f(x)) for x in F_q);
for a square-free f of degree d the sum is bounded by (d-1)*sqrt(q), and the
bound comparison is done on integers (value^2 <= (d-1)^2 * q) so float
rounding can never flip the verdict.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import PreconditionViolated, UnsupportedField
from .galois import FieldCtx
from .residues import b11, quadratic_character


def _trim(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _degree(coeffs) -> int:
    return len(_trim(coeffs)) - 1  # -1 for the zero polynomial


def poly_derivative(ctx: FieldCtx, coeffs) -> tuple:
    out = []
    for i in range(1, len(coeffs)):
        out.append(ctx.mul(i % ctx.p, coeffs[i]))
    return _trim(out)


def _poly_mod(ctx: FieldCtx, a, b) -> tuple:
    a = list(_trim(a))
    b = _trim(b)
    inv_lead = ctx.inv(b[-1])
    while len(a) >= len(b):
        factor = ctx.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = ctx.sub(a[shift + i], ctx.mul(factor, c))
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def poly_gcd(ctx: FieldCtx, a, b) -> tuple:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_mod(ctx, a, b)
    if a:
        inv_lead = ctx.inv(a[-1])
        a = tuple(ctx.mul(c, inv_lead) for c in a)  # monic normal form
    return a


def is_square_free(ctx: FieldCtx, coeffs) -> bool:
    return _degree(poly_gcd(ctx, coeffs, poly_derivative(ctx, coeffs))) == 0


class CharSumReport(NamedTuple):
    poly: tuple
    value: int
    bound: float
    within_bound: bool
    square_free: bool


def complete_char_sum(ctx: FieldCtx, coeffs) -> CharSumReport:
    """Sum chi(f(x)) over the whole field, with the bound comparison and
    whether f is square-free; the caller's check reads both, since Weil's
    bound holds only for square-free f."""
    if ctx.p == 2:
        raise UnsupportedField("character sums need odd characteristic")
    f = _trim(coeffs)
    d = _degree(f)
    if d < 1:
        raise PreconditionViolated("need a polynomial of degree at least 1")
    value = sum(quadratic_character(ctx, ctx.poly_eval(f, x)) for x in ctx.elements)
    return CharSumReport(
        poly=f,
        value=value,
        bound=(d - 1) * math.sqrt(ctx.q),
        within_bound=value * value <= (d - 1) * (d - 1) * ctx.q,
        square_free=is_square_free(ctx, f),
    )


def artin_schreier_solvable(ctx: FieldCtx, c: int) -> tuple[bool, int | None]:
    """Whether y^2 + y + c = 0 has a root, and the smallest root when it does.

    Solvable exactly when trace(c) = 0; the two roots then differ by 1.
    """
    if ctx.p != 2:
        raise UnsupportedField("Artin-Schreier form needs characteristic 2")
    if ctx.trace(c) != 0:
        return False, None
    for y in ctx.elements:
        if ctx.add(ctx.add(ctx.mul(y, y), y), c) == 0:
            other = ctx.add(y, 1)
            assert ctx.add(ctx.add(ctx.mul(other, other), other), c) == 0
            return True, y
    raise AssertionError(f"trace({c}) = 0 but no root found over GF({ctx.q})")


def b11_trace_kernel_check(ctx: FieldCtx) -> bool:
    """Check that the nonzero sums m + 1/m are exactly the units with
    trace(1/y) = 0, over a binary field with e >= 3."""
    if ctx.p != 2 or ctx.e < 3:
        raise UnsupportedField("needs a binary field with e >= 3")
    sums = b11(ctx)
    return all((y in sums) == (ctx.trace(ctx.inv(y)) == 0) for y in ctx.units)
