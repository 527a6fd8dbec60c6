"""Degree-1 message polynomials, product buckets, and their evaluation images.

A line is the message tuple (b, m) of f(x) = b + m*x, constant first, as
`FieldCtx.poly_eval` reads it; the gamma-bucket collects every line whose
coefficient product b*m is gamma, and its evaluation image at alpha is
{f(alpha) : f in bucket}.  Images are kept as q-bit masks (bit i set iff
element encoding i is hit) because the pruning loops downstream live on
set-minus and equality.

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
the tests check the law against it.  Line i of a unit bucket is m = g^i,
b = gamma * g^-i, so over the two-period exp table its columns m*alpha and b
are the slices exp[log alpha + i] and exp[log gamma + (q - 1) - i], added in
one `galois.add_elems` pass.  It reads neither the law nor the images built
from it.  `scalar_evolution` checks a whole field in one sweep: the
reference image once, its rescaling once per root product, every pair once.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RegimeMismatch, UnsupportedField
from .galois import FieldCtx, add_elems, mask_elems, mask_full, mask_of, scale_elems, scale_mask
from .residues import build_sqrt_system

_BUCKET_LIMIT = 2**10


@lru_cache(maxsize=None)
def bucket(ctx: FieldCtx, gamma: int) -> frozenset:
    """The lines (b, m) whose coefficient product b*m is gamma."""
    if ctx.q > _BUCKET_LIMIT:
        raise UnsupportedField(f"bucket enumeration capped at q <= {_BUCKET_LIMIT}")
    if gamma == 0:
        lines = {(0, m) for m in ctx.elements} | {(b, 0) for b in ctx.elements}
        assert len(lines) == 2 * ctx.q - 1
    else:
        lines = {(ctx.div(gamma, m), m) for m in ctx.units}
        assert sorted(m for _, m in lines) == list(ctx.units)
    return frozenset(lines)


def _unit_values(ctx: FieldCtx, gamma: int, alpha: int) -> list:
    """f(alpha) for the q - 1 lines of unit bucket gamma, line i being m = g^i,
    b = gamma * g^-i: two slices of the exp table and one add pass."""
    exp, log, n = ctx._exp, ctx._log, ctx.q - 1
    lg, la = log[gamma], log[alpha]
    intercepts = exp[lg + n : lg : -1]
    return add_elems(ctx, exp[la : la + n], intercepts) if alpha else intercepts


@lru_cache(maxsize=None)
def _enumerated_image(ctx: FieldCtx, gamma: int, alpha: int) -> int:
    """The q-bit mask of B_gamma(alpha), evaluating every line of the bucket:
    the zero bucket's (m, 0) and (0, b) give m*alpha and b, a unit bucket's
    lines come from `_unit_values`.  It never reads `_scaled_image` or
    `bucket_eval`, so it stays independent of the law it checks."""
    if ctx.q > _BUCKET_LIMIT:  # also keeps ctx inside galois's exp/log table limit
        raise UnsupportedField(f"bucket enumeration capped at q <= {_BUCKET_LIMIT}")
    if gamma == 0:
        return mask_of(scale_elems(ctx, alpha, ctx.elements)) | mask_of(ctx.elements)
    return mask_of(_unit_values(ctx, gamma, alpha))


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


def relabel(ctx: FieldCtx, line: tuple, alpha: int) -> tuple:
    """Move the line (b, m) within its bucket: the slope divides by
    sqrt(alpha) and the constant multiplies by it."""
    b, m = line
    root = build_sqrt_system(ctx)
    product = ctx.mul(b, m)
    if product not in root:
        raise RegimeMismatch(f"line product {product} outside the restricted set")
    if alpha not in root:
        raise RegimeMismatch(f"{alpha} outside the restricted set")
    r = root[alpha]
    out = ctx.mul(b, r), ctx.div(m, r)
    assert ctx.mul(*out) == product
    return out


def scalar_evolution(ctx: FieldCtx) -> tuple | None:
    """The first (gamma, alpha) in Omega^2, gamma outermost, where
    B_gamma(alpha) != sqrt(gamma)sqrt(alpha) * B_1(1), or None.  The law from
    any other reference (delta, beta) follows by substituting this one."""
    root = build_sqrt_system(ctx)
    ref = mask_elems(_enumerated_image(ctx, 1, 1))
    rhs = {}  # scale -> the set scale * B_1(1); at most q - 1 scales
    for g, rg in root.items():
        for a, ra in root.items():
            scale = ctx.mul(rg, ra)
            if scale not in rhs:
                rhs[scale] = set(scale_elems(ctx, scale, ref))
            if set(_unit_values(ctx, g, a)) != rhs[scale]:
                return g, a
    return None
