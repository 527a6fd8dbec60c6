"""Tests for restricted sets, square-root systems, and scaled pairs."""

from __future__ import annotations

import pytest

from qmlab.errors import NoPairExists, QmLabError, RegimeMismatch, UnsupportedField
from qmlab.galois import field, prime_power
from qmlab.residues import (
    BINARY,
    P1MOD4_OR_E_EVEN,
    P3MOD4_E_ODD,
    build_sqrt_system,
    minus_one_is_residue,
    omega_set,
    quadratic_character,
    quartic_residues,
    regime_of,
    scaled_pair,
    scaled_pair_union_sizes,
    upsilon_set,
)

SUPPORTED_Q = [
    q
    for q in [3, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
              43, 47, 49, 53, 59, 61, 64, 81, 113, 121, 125, 127, 128]
    if q not in (2, 4, 5)
]


def test_omega_set_frozen_values():
    assert omega_set(field(3)).elements == (1,)
    assert omega_set(field(5)).elements == (1, 4)
    assert omega_set(field(7)).elements == (1, 2, 4)
    assert omega_set(field(13)).elements == (1, 3, 4, 9, 10, 12)
    # GF(8): even powers of the canonical primitive w = x with trace(1/w) = 0
    om8 = omega_set(field(8))
    assert om8.kind == "W" and om8.omega == 2
    assert om8.elements == (1, 4, 7)
    om16 = omega_set(field(16))
    assert om16.omega == 2 and len(om16.elements) == 7
    assert 1 in om16


def test_omega_set_unsupported():
    with pytest.raises(UnsupportedField):
        omega_set(field(2))
    with pytest.raises(UnsupportedField):
        omega_set(field(4))


def test_omega_set_sizes():
    for q in SUPPORTED_Q:
        ctx = field(q)
        om = omega_set(ctx)
        if ctx.p > 2:
            assert len(om.elements) == (q - 1) // 2
        else:
            assert len(om.elements) == q // 2 - 1


def test_quadratic_character_gf7():
    ctx = field(7)
    vals = {x: quadratic_character(ctx, x) for x in ctx.elements}
    assert vals == {0: 0, 1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1}


def test_quadratic_character_multiplicative():
    for q in (9, 13, 25, 27):
        ctx = field(q)
        for x in ctx.units:
            for y in ctx.units:
                cx = quadratic_character(ctx, x)
                cy = quadratic_character(ctx, y)
                assert quadratic_character(ctx, ctx.mul(x, y)) == cx * cy


def test_quadratic_character_binary_rejected():
    with pytest.raises(UnsupportedField):
        quadratic_character(field(8), 1)


def test_minus_one_is_residue():
    assert not minus_one_is_residue(field(3))
    assert minus_one_is_residue(field(5))
    assert not minus_one_is_residue(field(7))
    assert minus_one_is_residue(field(9))
    assert minus_one_is_residue(field(13))
    assert not minus_one_is_residue(field(27))
    assert minus_one_is_residue(field(49))


def test_quartic_residues_frozen():
    assert quartic_residues(field(3)) == frozenset({1})
    assert quartic_residues(field(5)) == frozenset({1})
    assert quartic_residues(field(9)) == frozenset({1, 2})
    assert quartic_residues(field(13)) == frozenset({1, 3, 9})


def test_regime_of():
    assert regime_of(field(7)) == P3MOD4_E_ODD
    assert regime_of(field(3)) == P3MOD4_E_ODD
    assert regime_of(field(27)) == P3MOD4_E_ODD
    assert regime_of(field(5)) == P1MOD4_OR_E_EVEN
    assert regime_of(field(9)) == P1MOD4_OR_E_EVEN
    assert regime_of(field(13)) == P1MOD4_OR_E_EVEN
    assert regime_of(field(49)) == P1MOD4_OR_E_EVEN
    assert regime_of(field(8)) == BINARY
    assert regime_of(field(16)) == BINARY


def test_sqrt_system_frozen_tables():
    assert build_sqrt_system(field(7)).root == {1: 1, 2: 4, 4: 2}
    assert build_sqrt_system(field(8)).root == {1: 1, 4: 2, 7: 4}
    assert build_sqrt_system(field(9)).root == {1: 1, 2: 3, 3: 7, 6: 4}


def test_sqrt_system_unsupported():
    for q in (2, 4, 5):
        with pytest.raises(UnsupportedField):
            build_sqrt_system(field(q))


def test_sqrt_system_roots_square_back():
    for q in SUPPORTED_Q:
        ctx = field(q)
        ss = build_sqrt_system(ctx)
        om = omega_set(ctx)
        assert set(ss.root) == om.member_set
        for g, r in ss.root.items():
            assert ctx.mul(r, r) == g


def test_sqrt_system_regime_shapes():
    for q in SUPPORTED_Q:
        ctx = field(q)
        ss = build_sqrt_system(ctx)
        om = omega_set(ctx)
        if ss.regime == P3MOD4_E_ODD:
            # roots of the squares are exactly the squares again
            assert set(ss.root.values()) == om.member_set
        elif ss.regime == P1MOD4_OR_E_EVEN:
            qr = om.member_set
            r4 = quartic_residues(ctx)
            for g in om.elements:
                if g in r4:
                    assert ss.root[g] in qr
                else:
                    assert ss.root[g] not in qr


def test_sqrt_lookup_outside_restricted_set():
    ss = build_sqrt_system(field(7))
    assert ss.sqrt(2) == 4
    with pytest.raises(RegimeMismatch):
        ss.sqrt(3)


def test_upsilon_gf9():
    ctx = field(9)
    roots = {1: 1, 2: 3}
    ups = upsilon_set(ctx, 1, 4, roots)
    assert ups == frozenset({5, 8})


def test_upsilon_gf13():
    ctx = field(13)
    roots = {1: 1, 3: 4, 9: 3}
    ups = upsilon_set(ctx, 1, 2, roots)
    assert ups == frozenset({2, 7, 8})
    for y in ups:
        assert quadratic_character(ctx, y) == -1
        assert ctx.neg(y) not in ups


def test_upsilon_rejections():
    with pytest.raises(RegimeMismatch):
        upsilon_set(field(7), 1, 3, {})  # wrong regime
    ctx = field(13)
    with pytest.raises(RegimeMismatch):
        upsilon_set(ctx, 2, 2, {})  # a must be a nonzero square
    with pytest.raises(RegimeMismatch):
        upsilon_set(ctx, 1, 3, {})  # b must be a non-square


def test_scaled_pair_frozen():
    assert scaled_pair(field(3)) == scaled_pair(field(3))
    p3 = scaled_pair(field(3))
    assert (p3.a, p3.b) == (1, 2)
    p7 = scaled_pair(field(7))
    assert (p7.a, p7.b) == (1, 5)
    p9 = scaled_pair(field(9))
    assert (p9.a, p9.b) == (1, 2)
    p13 = scaled_pair(field(13))
    assert (p13.a, p13.b) == (1, 12)
    p8 = scaled_pair(field(8))
    assert (p8.a, p8.b) == (7, 2)


def test_scaled_pair_gf5_impossible():
    with pytest.raises(NoPairExists):
        scaled_pair(field(5))


def test_scaled_pair_members_of_b11():
    for q in SUPPORTED_Q:
        ctx = field(q)
        pair = scaled_pair(ctx)
        b11 = {ctx.add(m, ctx.inv(m)) for m in ctx.units}
        assert pair.a in b11 and pair.b in b11
        assert pair.a not in (0, pair.b)


def test_union_size_frozen():
    for q, expect in [(3, 0), (7, 4), (8, 4), (9, 6), (13, 10)]:
        ctx = field(q)
        sizes = scaled_pair_union_sizes(ctx, scaled_pair(ctx))
        assert set(sizes) == set(omega_set(ctx).elements)
        assert set(sizes.values()) == {expect}


def test_union_size_all_supported():
    for q in SUPPORTED_Q:
        ctx = field(q)
        expect = q - 4 if ctx.p == 2 else q - 3
        assert set(scaled_pair_union_sizes(ctx, scaled_pair(ctx)).values()) == {expect}, q


def test_union_sizes_match_the_union_per_delta():
    # the reference builds each union over Omega minus delta outright
    checked = 0
    for q in range(2, 244):
        if prime_power(q) is None:
            continue
        ctx = field(q)
        try:
            pair = scaled_pair(ctx)
        except QmLabError:  # GF(2), GF(4): no restricted set; GF(5): no pair
            continue
        ss = build_sqrt_system(ctx)
        om = ss.omega_set.elements
        want = {
            delta: len({ctx.mul(ss.root[g], x) for g in om if g != delta for x in pair})
            for delta in om
        }
        assert scaled_pair_union_sizes(ctx, pair) == want, q  # keys: all of Omega
        checked += 1
    assert checked == 65
