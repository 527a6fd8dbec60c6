"""Restricted product sets, the base image B_1(1), square-root systems, scaled pairs.

The restricted set Omega_q is the set of nonzero squares for odd
characteristic and, for binary fields with e >= 3, the even powers
{w^(2i) : 0 <= i <= 2^(e-1)-2} of the canonical primitive element w with
trace(1/w) = 0.  A square-root system picks one canonical root per member of
Omega_q by one rule: the smallest root that is itself a square, else the
root outside the exclusion set Upsilon = {sqrt(h)/b0 : h a fourth power},
where sqrt(h) is h's smallest root and b0 the smallest non-square.

Every unit is a square when p = 2 (so sqrt(w^(2i)) = w^i), and when -1 is
not a square exactly one root of each square is a square; the first clause
settles those fields.  When -1 is a square, both roots of a fourth power
are squares, while a square g that is not a fourth power has two
non-square roots y and -y, and Upsilon holds exactly one of them.

Every "arbitrary" choice is resolved to the smallest element encoding so that
two runs produce identical tables.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .errors import NoPairExists, UnsupportedField
from .galois import FieldCtx, find_primitive_zero_inv_trace

P3MOD4_E_ODD = "P3MOD4_E_ODD"
P1MOD4_OR_E_EVEN = "P1MOD4_OR_E_EVEN"
BINARY = "BINARY"


@lru_cache(maxsize=None)
def _qr_set(ctx: FieldCtx) -> frozenset:
    return frozenset(ctx.mul(x, x) for x in ctx.units)


@lru_cache(maxsize=None)
def omega_set(ctx: FieldCtx) -> tuple:
    """The members of Omega_q in ascending order."""
    if ctx.q in (2, 4):
        raise UnsupportedField(f"no restricted set over GF({ctx.q})")
    if ctx.p > 2:
        elems = tuple(sorted(_qr_set(ctx)))
        assert len(elems) == (ctx.q - 1) // 2
        return elems
    w = find_primitive_zero_inv_trace(ctx)
    elems = set()
    x = 1
    w2 = ctx.mul(w, w)
    for _ in range(2 ** (ctx.e - 1) - 1):
        elems.add(x)
        x = ctx.mul(x, w2)
    assert len(elems) == 2 ** (ctx.e - 1) - 1
    return tuple(sorted(elems))


def quadratic_character(ctx: FieldCtx, x: int) -> int:
    """chi(x): 0 at 0, +1 on nonzero squares, -1 otherwise.  Odd p only."""
    if ctx.p == 2:
        raise UnsupportedField("quadratic character needs odd characteristic")
    if x == 0:
        return 0
    return 1 if x in _qr_set(ctx) else -1


def minus_one_is_residue(ctx: FieldCtx) -> bool:
    if ctx.p == 2:
        raise UnsupportedField("needs odd characteristic")
    return quadratic_character(ctx, ctx.neg(1)) == 1


def quartic_residues(ctx: FieldCtx) -> frozenset:
    """Fourth powers of the units; equals the squares of the nonzero squares."""
    if ctx.p == 2:
        raise UnsupportedField("needs odd characteristic")
    return frozenset(ctx.mul(x, x) for x in _qr_set(ctx))


def regime_of(ctx: FieldCtx) -> str:
    if ctx.p == 2:
        return BINARY
    if ctx.p % 4 == 3 and ctx.e % 2 == 1:
        return P3MOD4_E_ODD
    return P1MOD4_OR_E_EVEN


def _square_roots(ctx: FieldCtx) -> dict:
    """Every square's roots in ascending order, from one pass over the field."""
    roots: dict[int, list[int]] = {}
    for x in ctx.elements:
        roots.setdefault(ctx.mul(x, x), []).append(x)
    return roots


@lru_cache(maxsize=None)
def build_sqrt_system(ctx: FieldCtx) -> dict:
    """gamma -> canonical sqrt(gamma) for every gamma in Omega_q, in Omega
    order; shared by every caller, so read it and never mutate it."""
    if ctx.q in (2, 4, 5):
        raise UnsupportedField(f"no square-root system over GF({ctx.q})")
    qr = _qr_set(ctx)
    roots = _square_roots(ctx)
    upsilon = frozenset()
    if regime_of(ctx) == P1MOD4_OR_E_EVEN:  # only here can both roots be non-squares
        b0 = min(x for x in ctx.units if x not in qr)
        upsilon = frozenset(ctx.div(roots[h][0], b0) for h in quartic_residues(ctx))
    # the smallest root that is a square, else the smallest outside Upsilon
    return {
        g: min(roots[g], key=lambda x: (x not in qr, x in upsilon))
        for g in omega_set(ctx)
    }


class ScaledPair(NamedTuple):
    a: int
    b: int


@lru_cache(maxsize=None)
def b11(ctx: FieldCtx) -> frozenset:
    """The sums {m + 1/m : m a unit}, i.e. the evaluation image B_1(1)."""
    if ctx.q in (2, 4):
        raise UnsupportedField(f"no restricted-set theory over GF({ctx.q})")
    out = frozenset(ctx.add(m, ctx.inv(m)) for m in ctx.units)
    if ctx.p > 2:
        assert len(out) == (ctx.q + 1) // 2
    else:
        assert len(out) == ctx.q // 2
    return out


def scaled_pair(ctx: FieldCtx) -> ScaledPair:
    """Two members a, b of B_1(1)* whose root-scaled copies tile almost all units.

    For every d in Omega_q, the union of sqrt(g)*{a, b} over g in
    Omega_q \\ {d} has exactly q-3 elements (odd q) or q-4 (binary).  The
    choice is regime dependent:

    * P3MOD4_E_ODD: smallest square and smallest non-square in B_1(1)*.
      Scaling the square roots of the squares (= QR itself) by a keeps them
      squares while b moves them onto the non-squares, so the two copies
      never collide.
    * P1MOD4_OR_E_EVEN: (a, -a) with a the smallest square in B_1(1)*.  The
      canonical roots hit one of each pair {r, -r}, so {a*root, -a*root}
      ranges over a * (units minus the two roots of the excluded d) no matter
      how the per-element root was chosen.  (Here -a is itself a square; a
      square/non-square pair cannot work in this regime: the root set would
      have to be invariant under multiplication by -a/b, whose order is even,
      while any such invariant transversal forces odd order.)
    * BINARY: (w^(2^(e-1)), w); both lie in B_1(1) because trace(1/w) = 0 and
      the trace is Frobenius invariant.

    Over GF(5) no pair of any kind exists: B_1(1)* = {2, 3} consists of
    non-squares only and -2 = 3 shares its square class with 2.
    """
    if ctx.q == 5:
        raise NoPairExists("B_1(1)* over GF(5) = {2,3} admits no usable pair")
    build_sqrt_system(ctx)  # GF(2) and GF(4) have none and are refused here
    b11_star = b11(ctx) - {0}
    regime = regime_of(ctx)
    if regime == BINARY:
        w = find_primitive_zero_inv_trace(ctx)
        a = ctx.pow(w, 2 ** (ctx.e - 1))
        b = w
    elif regime == P3MOD4_E_ODD:
        qr = _qr_set(ctx)
        a = min(y for y in b11_star if y in qr)
        b = min(y for y in b11_star if y not in qr)
    else:
        qr = _qr_set(ctx)
        a = min(y for y in b11_star if y in qr)
        b = ctx.neg(a)
    assert a != b and a != 0 and b != 0
    assert a in b11_star and b in b11_star
    return ScaledPair(a, b)


def scaled_pair_union_sizes(ctx: FieldCtx, pair: ScaledPair) -> dict:
    """{delta: |union over g in Omega_q \\ {delta} of sqrt(g) * {a, b}|} for
    every delta in Omega_q.

    One pass counts how many roots hit each product; leaving delta out
    loses exactly those of its two products that no other root hits.
    """
    products = {
        g: (ctx.mul(r, pair.a), ctx.mul(r, pair.b)) for g, r in build_sqrt_system(ctx).items()
    }
    hits = Counter(x for both in products.values() for x in both)
    return {g: len(hits) - (hits[x] == 1) - (hits[y] == 1) for g, (x, y) in products.items()}
