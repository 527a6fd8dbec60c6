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


def trace_leak(ctx: FieldCtx, query: TraceQuery, x: int) -> int:
    """The leaked prime-subfield symbol trace(gamma * x)."""
    return ctx.trace(ctx.mul(query.gamma, x))


@lru_cache(maxsize=None)
def _trace_row(ctx: FieldCtx, y: int) -> tuple:
    """Row y of the field's trace-row table: (trace(y * x^c))_c, where the
    basis element x^c is encoded as p**c.  The trace is prime-subfield
    linear, so the row's dot product with the digits of x is trace(y*x).
    The cache fills the table only with rows the queries ask for."""
    return tuple(ctx.trace(ctx.mul(y, ctx.p**c)) for c in range(ctx.e))


def _kernel_vector(rows, width: int, p: int) -> tuple:
    """First kernel vector of the row system in reduced echelon order:
    unit weight on the first free column, then the head digit scaled to 1."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [(x - factor * y) % p for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = next(c for c in range(width) if c not in pivots)
    vec = [0] * width
    vec[free] = 1
    for row, col in zip(mat, pivots):
        vec[col] = -row[free] % p
    head = next(x for x in vec if x)
    scale = pow(head, p - 2, p)
    return tuple(x * scale % p for x in vec)


def zero_trace_line(ctx: FieldCtx, queries) -> tuple:
    """A nonzero line ux + v whose every trace probe reads zero.

    The probes give 2e-1 digit-linear conditions on the 2e digits of
    (u, v), so the kernel is nontrivial; the returned line is the canonical
    kernel vector.  linear_impossibility_check verifies what it builds from
    the line against every probe.
    """
    queries = tuple(queries)
    e = ctx.e
    if len(queries) != 2 * e - 1:
        raise PreconditionViolated(f"need exactly {2 * e - 1} queries")
    rows = [
        _trace_row(ctx, ctx.mul(qy.gamma, qy.alpha)) + _trace_row(ctx, qy.gamma)
        for qy in queries
    ]
    vec = _kernel_vector(rows, 2 * e, ctx.p)
    return ctx.from_digits(vec[:e]), ctx.from_digits(vec[e:])


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
        raise PreconditionViolated("need two distinct coefficient targets")
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
