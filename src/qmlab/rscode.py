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

Every image comes from the root-scaling law.  B_0(alpha) is the whole field
and B_gamma(0) the units.  For units gamma, alpha with g the primitive
element and gamma*alpha = g^k, choose r with r^2 = gamma*alpha / g^eps;
putting m = r*u/alpha gives m*alpha + gamma/m = r*(u + g^eps/u), so

    B_gamma(alpha) = r * B_{g^eps}(1).

For odd p, eps = k mod 2 and r = g^((k - eps)/2), so there are two base
images, B_1(1) and B_g(1).  For p = 2, q - 1 is odd, so eps = 0 and
r = g^(k * 2^-1 mod (q - 1)).  B_{g^eps}(1) is closed under negation, so
either square root gives the same image.  A field therefore builds at most
q - 1 images, one per k.

Direct evaluation of every line of a bucket stays as the private reference
`_enumerated_image`: it supplies the two bases, and `scalar_evolution` and
the tests check the law against it.  It evaluates a bucket's lines in bulk,
m*alpha + b for all of them at once: the slopes and intercepts are read from
`bucket(gamma)` once per gamma, the slopes are scaled by alpha with
`galois.scale_elems` and the intercepts added with `galois.add_elems`.
This is still one evaluation per line of the bucket; it reads neither the
law nor the images built from it, so the check compares two independent
computations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionViolated, RegimeMismatch, UnsupportedField
from .galois import FieldCtx, add_elems, mask_full, mask_of, scale_elems, scale_mask
from .residues import b11, build_sqrt_system, omega_set  # noqa: F401 (b11 re-export)

_BUCKET_LIMIT = 2**10


class Line(NamedTuple):
    m: int  # degree-1 coefficient
    b: int  # constant coefficient
    product: int


def make_line(ctx: FieldCtx, m: int, b: int) -> Line:
    return Line(m, b, ctx.mul(m, b))


def line_eval(ctx: FieldCtx, line: Line, alpha: int) -> int:
    return ctx.add(ctx.mul(line.m, alpha), line.b)


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
def _bucket_columns(ctx: FieldCtx, gamma: int) -> tuple:
    """(slopes, intercepts) of bucket(gamma), in the same line order."""
    slopes, intercepts, _products = zip(*bucket(ctx, gamma))
    return slopes, intercepts


@lru_cache(maxsize=None)
def _enumerated_image(ctx: FieldCtx, gamma: int, alpha: int) -> int:
    """The q-bit mask of B_gamma(alpha), evaluating every line of the bucket.

    Every line at once: the slopes times alpha through `scale_elems`, plus
    each line's intercept through `add_elems`.  It never reads `_scaled_image`
    or `bucket_eval`, so it stays independent of the law it checks.
    """
    slopes, intercepts = _bucket_columns(ctx, gamma)
    return mask_of(add_elems(ctx, scale_elems(ctx, alpha, slopes), intercepts))


@lru_cache(maxsize=None)
def _scaled_image(ctx: FieldCtx, k: int) -> int:
    """r * B_{g^eps}(1), the image of every unit pair with gamma*alpha = g^k."""
    n = ctx.q - 1
    if ctx.p == 2:
        eps, log_r = 0, k * pow(2, -1, n) % n
    else:
        eps = k % 2
        log_r = (k - eps) // 2
    return scale_mask(ctx, ctx._exp[log_r], _enumerated_image(ctx, ctx._exp[eps], 1))


def bucket_eval(ctx: FieldCtx, gamma: int, alpha: int) -> int:
    """The q-bit mask of B_gamma(alpha) = {f(alpha) : f in bucket(gamma)}.

    The whole field for gamma = 0, the units for alpha = 0, and otherwise
    r * B_{g^eps}(1) by the root-scaling law in the module docstring, cached
    per k = log(gamma) + log(alpha) mod (q - 1).  `_enumerated_image` is the
    direct enumeration it is checked against.
    """
    if ctx.q > _BUCKET_LIMIT:  # also keeps ctx inside galois's exp/log table limit
        raise UnsupportedField(f"bucket enumeration capped at q <= {_BUCKET_LIMIT}")
    if gamma == 0:
        return mask_full(ctx.q)
    if alpha == 0:
        return mask_full(ctx.q) ^ 1
    log = ctx._log
    return _scaled_image(ctx, (log[gamma] + log[alpha]) % (ctx.q - 1))


def relabel(ctx: FieldCtx, line: Line, alpha: int) -> Line:
    """Move the line's parameter from m to m*sqrt(alpha) within its bucket."""
    ss = build_sqrt_system(ctx)
    om = omega_set(ctx)
    if line.product not in om:
        raise RegimeMismatch(f"line product {line.product} outside the restricted set")
    if alpha not in om:
        raise RegimeMismatch(f"{alpha} outside the restricted set")
    if line.m == 0:
        raise PreconditionViolated("relabel needs a nonzero slope")
    r = ss.sqrt(alpha)
    out = make_line(ctx, ctx.div(line.m, r), ctx.mul(line.b, r))
    assert out.product == line.product
    return out


@lru_cache(maxsize=None)
def _rescaled_image(ctx: FieldCtx, scale: int, delta: int, beta: int) -> int:
    """scale * B_delta(beta), from the direct reference; at most q - 1 scales."""
    return scale_mask(ctx, scale, _enumerated_image(ctx, delta, beta))


def scalar_evolution(ctx: FieldCtx, gamma: int, alpha: int, delta: int, beta: int) -> bool:
    """Whether B_gamma(alpha) = (sqrt(gamma)sqrt(alpha)/sqrt(delta)sqrt(beta)) * B_delta(beta)."""
    ss = build_sqrt_system(ctx)
    om = omega_set(ctx)
    for v in (gamma, alpha, delta, beta):
        if v not in om:
            raise RegimeMismatch(f"{v} outside the restricted set")
    num = ctx.mul(ss.sqrt(gamma), ss.sqrt(alpha))
    den = ctx.mul(ss.sqrt(delta), ss.sqrt(beta))
    rhs = _rescaled_image(ctx, ctx.div(num, den), delta, beta)
    return _enumerated_image(ctx, gamma, alpha) == rhs
