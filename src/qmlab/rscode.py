"""Degree-1 message polynomials, product buckets, and their evaluation images.

A line is the pair (m, b) for f(x) = m*x + b with the product m*b cached;
the gamma-bucket collects every line whose coefficient product is gamma, and
its evaluation image at alpha is {f(alpha) : f in bucket}.  Images are kept
as q-bit masks (bit i set iff element encoding i is hit) because the pruning
loops downstream live on set-minus and equality.

The canonical parametrized form of a product-gamma line is
sqrt(gamma) * ((1/m)x + m); its alpha-relabel divides the slope by
sqrt(alpha) and multiplies the intercept by sqrt(alpha), which keeps the
product and permutes the bucket.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DuplicatePoints, PreconditionViolated, RegimeMismatch, UnsupportedField
from .galois import FieldCtx, mask_elems, mask_of
from .residues import SqrtSystem, b11, omega_set  # noqa: F401 (b11 re-export)

_BUCKET_LIMIT = 2**10


class Line(NamedTuple):
    m: int  # degree-1 coefficient
    b: int  # constant coefficient
    product: int


def make_line(ctx: FieldCtx, m: int, b: int) -> Line:
    return Line(m, b, ctx.mul(m, b))


def line_eval(ctx: FieldCtx, line: Line, alpha: int) -> int:
    return ctx.add(ctx.mul(line.m, alpha), line.b)


def g_line(ctx: FieldCtx, m: int) -> Line:
    """(1/m)x + m, the product-1 line with parameter m."""
    return make_line(ctx, ctx.inv(m), m)


def h_line(ctx: FieldCtx, sqrt_system: SqrtSystem, gamma: int, m: int) -> Line:
    """sqrt(gamma) * g_m, the canonical product-gamma line with parameter m."""
    r = sqrt_system.sqrt(gamma)
    return make_line(ctx, ctx.mul(r, ctx.inv(m)), ctx.mul(r, m))


@lru_cache(maxsize=None)
def bucket(ctx: FieldCtx, gamma: int) -> frozenset:
    """The lines whose coefficient product is gamma."""
    if ctx.q > _BUCKET_LIMIT:
        raise UnsupportedField(f"bucket enumeration capped at q <= {_BUCKET_LIMIT}")
    if gamma == 0:
        lines = {make_line(ctx, m, 0) for m in ctx.elements}
        lines |= {make_line(ctx, 0, b) for b in ctx.elements}
        assert len(lines) == 2 * ctx.q - 1
    else:
        lines = {make_line(ctx, m, ctx.div(gamma, m)) for m in ctx.units}
        assert sorted(l.m for l in lines) == list(ctx.units)
    return frozenset(lines)


@lru_cache(maxsize=None)
def bucket_eval(ctx: FieldCtx, gamma: int, alpha: int) -> int:
    """The q-bit mask of B_gamma(alpha) = {f(alpha) : f in bucket(gamma)}."""
    mask = 0
    for line in bucket(ctx, gamma):
        mask |= 1 << line_eval(ctx, line, alpha)
    return mask


def relabel(ctx: FieldCtx, sqrt_system: SqrtSystem, line: Line, alpha: int) -> Line:
    """Move the line's parameter from m to m*sqrt(alpha) within its bucket."""
    om = omega_set(ctx)
    if line.product not in om:
        raise RegimeMismatch(f"line product {line.product} outside the restricted set")
    if alpha not in om:
        raise RegimeMismatch(f"{alpha} outside the restricted set")
    if line.m == 0:
        raise PreconditionViolated("relabel needs a nonzero slope")
    r = sqrt_system.sqrt(alpha)
    out = make_line(ctx, ctx.div(line.m, r), ctx.mul(line.b, r))
    assert out.product == line.product
    return out


def scalar_evolution(
    ctx: FieldCtx,
    sqrt_system: SqrtSystem,
    gamma: int,
    alpha: int,
    delta: int,
    beta: int,
) -> bool:
    """Whether B_gamma(alpha) = (sqrt(gamma)sqrt(alpha)/sqrt(delta)sqrt(beta)) * B_delta(beta)."""
    om = omega_set(ctx)
    for v in (gamma, alpha, delta, beta):
        if v not in om:
            raise RegimeMismatch(f"{v} outside the restricted set")
    num = ctx.mul(sqrt_system.sqrt(gamma), sqrt_system.sqrt(alpha))
    den = ctx.mul(sqrt_system.sqrt(delta), sqrt_system.sqrt(beta))
    scale = ctx.div(num, den)
    rhs = mask_of(ctx.mul(scale, y) for y in mask_elems(bucket_eval(ctx, delta, beta)))
    return bucket_eval(ctx, gamma, alpha) == rhs


def encode(ctx: FieldCtx, message, eval_points) -> tuple:
    """Evaluate the message polynomial (constant term first) at each point."""
    points = tuple(eval_points)
    if len(set(points)) != len(points):
        raise DuplicatePoints("evaluation points must be distinct")
    if not 1 <= len(tuple(message)) <= len(points):
        raise PreconditionViolated("need 1 <= k <= number of evaluation points")
    return tuple(ctx.poly_eval(tuple(message), pt) for pt in points)
