"""Linear one-symbol probes always collide below full download.

Every prime-subfield-linear probe of a stored evaluation is a trace
functional x -> trace(gamma*x).  Writing field elements in digit
coordinates turns 2e-1 such probes of a line ux+v into 2e-1 linear
conditions on the 2e digits of (u, v), so some nonzero line has an
all-zero probe transcript.  Splitting that line into two addends with
different coefficient products yields two codewords no reconstruction
function can tell apart, which is the whole impossibility argument.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionViolated
from .galois import FieldCtx


class _Query(NamedTuple):
    alpha: int
    gamma: int


class TraceQuery(_Query):
    """Probe trace(gamma * x) of the evaluation at the unit alpha."""

    __slots__ = ()

    def __new__(cls, alpha: int, gamma: int):
        if alpha == 0:
            raise PreconditionViolated("query point must be a unit")
        return super().__new__(cls, alpha, gamma)

    @classmethod
    def _make(cls, iterable):
        """Built through __new__, so `_replace` is checked as well."""
        return cls(*iterable)


def trace_leak(ctx: FieldCtx, query: TraceQuery, x: int) -> int:
    """The leaked prime-subfield symbol trace(gamma * x)."""
    return ctx.trace(ctx.mul(query.gamma, x))


@lru_cache(maxsize=None)
def _trace_powers(ctx: FieldCtx) -> tuple:
    """Tr(x^k) for k < 2e - 1, where x is the basis element encoded as p."""
    p, e = ctx.p, ctx.e
    out = [ctx.trace(p**k) for k in range(e)]
    xk = p ** (e - 1)
    for _ in range(e - 1):
        xk = ctx.mul(xk, p)
        out.append(ctx.trace(xk))
    return tuple(out)


@lru_cache(maxsize=None)
def _trace_word(ctx: FieldCtx, y: int) -> int:
    """Row y of the field's trace-row table packed base p: digit c is
    trace(y * x^c), where the basis element x^c is encoded as p**c.  The
    trace is prime-subfield linear, so the row dotted with the digits of x
    is trace(y*x), and digit c is sum_d y_d * Tr(x^(c+d)) mod p: no field
    product is taken.  The cache fills the table only with rows the
    queries ask for."""
    p, e = ctx.p, ctx.e
    ys = ctx.digits(y)
    ts = _trace_powers(ctx)
    return sum(sum(d * t for d, t in zip(ys, ts[c : c + e])) % p * p**c for c in range(e))


def _kernel_word(rows, width: int, p: int) -> int:
    """First kernel vector of fewer than `width` rows in reduced echelon
    order, packed base p like the rows: unit weight on the first free
    column, then the head digit scaled to 1.

    Each row is reduced by the basis so far, scaled to head digit 1 and
    cleared from the other basis rows, so the basis stays in reduced
    echelon form.  A column is named by its weight p**c; the head column
    of a nonzero word is the largest power of p dividing it.  Only the row
    update depends on p, picked once per call: XOR for p = 2, digit-wise
    mod p otherwise.
    """
    top = p**width
    xor = p == 2

    def sub(row, d, piv, w):
        """row - d * piv, digit-wise mod p, where piv has no digit below weight w."""
        row, out = divmod(row, w)
        piv //= w
        while row or piv:
            out += (row - d * piv) % p * w
            row //= p
            piv //= p
            w *= p
        return out

    basis = []  # (head column weight, row with head digit 1)
    for row in rows:
        for w, piv in basis:
            d = row // w % p
            if d:
                row = row ^ piv if xor else sub(row, d, piv, w)
        if row:
            w = math.gcd(row, top)
            h = row // w % p
            if h != 1:
                row = sub(0, -pow(h, -1, p), row, w)  # 0 - (-1/h) * row
            for n, (b, r) in enumerate(basis):
                d = r // w % p
                if d:
                    basis[n] = b, r ^ row if xor else sub(r, d, row, w)
            basis.append((w, row))
    # the head columns carry digit p - 1 in the sum, so adding 1 carries up
    # to the first free column
    free = math.gcd(sum(w for w, _ in basis) * (p - 1) + 1, top)
    vec = free + sum(-(r // free) % p * w for w, r in basis)
    w = math.gcd(vec, top)
    h = vec // w % p
    return vec if h == 1 else sub(0, -pow(h, -1, p), vec, w)


def zero_trace_line(ctx: FieldCtx, queries) -> tuple:
    """A nonzero line ux + v whose every trace probe reads zero.

    The probes give 2e-1 digit-linear conditions on the 2e digits of
    (u, v), so the kernel is nontrivial; the returned line is the canonical
    kernel vector.  A probe's row is its trace words for u and v side by
    side, and so is the kernel word: u is its low e digits, v the high e.
    linear_impossibility_check verifies what it builds from the line
    against every probe.
    """
    queries = tuple(queries)
    e, q = ctx.e, ctx.q
    if len(queries) != 2 * e - 1:
        raise PreconditionViolated(f"need exactly {2 * e - 1} queries")
    rows = [
        _trace_word(ctx, ctx.mul(qy.gamma, qy.alpha)) + _trace_word(ctx, qy.gamma) * q
        for qy in queries
    ]
    v, u = divmod(_kernel_word(rows, 2 * e, ctx.p), q)
    return u, v


def decompose(ctx: FieldCtx, u: int, v: int) -> tuple:
    """Split (u, v) as u = m + m', v = b + b' with mb != m'b'.

    Scans the shared head value m = b = c upward from zero; c = 0 works
    whenever uv != 0 and c = 1 covers the remaining cases, so the scan is
    total.
    """
    if u == 0 and v == 0:
        raise PreconditionViolated("need a nonzero line to split")
    for c in ctx.elements:
        m2, b2 = ctx.sub(u, c), ctx.sub(v, c)
        if ctx.mul(c, c) != ctx.mul(m2, b2):
            return c, m2, c, b2
    raise AssertionError(f"no separating split for ({u}, {v}) over GF({ctx.q})")


@lru_cache(maxsize=None)
def _lift(ctx: FieldCtx, query: TraceQuery, r: int, i: int) -> TraceQuery:
    """The line probe (alpha^r, gamma * alpha^i) that reads what `query` reads
    of a codeword whose only nonzero coefficients are those of x^i and x^(i+r)."""
    return TraceQuery(ctx.pow(query.alpha, r), ctx.mul(query.gamma, ctx.pow(query.alpha, i)))


def linear_impossibility_check(ctx: FieldCtx, k: int, i: int, j: int, queries) -> tuple | None:
    """A verified collision pair (poly_f, poly_ell) of degree-(k-1) codewords,
    k coefficients each with the constant first, that agree on every probe
    but differ in the i*j coefficient product, so no reconstruction function
    exists for that product; None when the pair fails to verify.

    Higher dimensions reduce to lines: rescaling a stored evaluation by
    alpha^(-i) turns the i and j coefficients into the intercept and slope
    of a line in beta = alpha^(j-i), and folding alpha^i into gamma keeps
    the probes identical.  An [n, k] Reed-Solomon code over GF(q) has
    k <= n <= q, so k > q is rejected.
    """
    queries = tuple(queries)
    if len(queries) != 2 * ctx.e - 1:
        raise PreconditionViolated(f"need exactly {2 * ctx.e - 1} queries")
    if k > ctx.q:
        raise PreconditionViolated(
            f"k={k} exceeds q={ctx.q}: a Reed-Solomon code over GF({ctx.q}) has k <= q"
        )
    if not (0 <= i < k and 0 <= j < k) or i == j:
        raise PreconditionViolated(
            f"targets i={i}, j={j} must be distinct, non-negative and below k={k}"
        )
    r = (j - i) % (ctx.q - 1)
    u, v = zero_trace_line(ctx, (_lift(ctx, qy, r, i) for qy in queries))
    if u == v == 0:
        return None  # a zero line comes only from a faulty kernel and splits into no collision
    m, m2, b, b2 = decompose(ctx, u, v)
    poly_f, poly_ell = [0] * k, [0] * k
    poly_f[i], poly_f[j] = b, m
    poly_ell[i], poly_ell[j] = ctx.neg(b2), ctx.neg(m2)
    transcripts_match = all(
        trace_leak(ctx, qy, ctx.poly_eval(poly_f, qy.alpha))
        == trace_leak(ctx, qy, ctx.poly_eval(poly_ell, qy.alpha))
        for qy in queries
    )
    products_differ = ctx.mul(poly_f[i], poly_f[j]) != ctx.mul(poly_ell[i], poly_ell[j])
    if transcripts_match and products_differ:
        return tuple(poly_f), tuple(poly_ell)
    return None
