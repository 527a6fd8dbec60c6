"""Tests for restricted sets, square-root systems, and scaled pairs."""

from __future__ import annotations

import json

import pytest

from qmlab import cli, residues
from qmlab.errors import NoPairExists, QmLabError, UnsupportedField
from qmlab.galois import field, find_primitive_zero_inv_trace, prime_power
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
)

SUPPORTED_Q = [
    q
    for q in [3, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41,
              43, 47, 49, 53, 59, 61, 64, 81, 113, 121, 125, 127, 128]
    if q not in (2, 4, 5)
]


def test_omega_set_frozen_values():
    assert omega_set(field(3)) == (1,)
    assert omega_set(field(5)) == (1, 4)
    assert omega_set(field(7)) == (1, 2, 4)
    assert omega_set(field(13)) == (1, 3, 4, 9, 10, 12)
    # GF(8): even powers of the canonical primitive w = x with trace(1/w) = 0
    assert find_primitive_zero_inv_trace(field(8)) == 2
    assert omega_set(field(8)) == (1, 4, 7)
    om16 = omega_set(field(16))
    assert find_primitive_zero_inv_trace(field(16)) == 2 and len(om16) == 7
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
            assert len(om) == (q - 1) // 2
        else:
            assert len(om) == q // 2 - 1


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
    with pytest.raises(UnsupportedField):
        quartic_residues(field(8))
    with pytest.raises(UnsupportedField):
        minus_one_is_residue(field(8))


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
    assert build_sqrt_system(field(7)) == {1: 1, 2: 4, 4: 2}
    assert build_sqrt_system(field(8)) == {1: 1, 4: 2, 7: 4}
    assert build_sqrt_system(field(9)) == {1: 1, 2: 3, 3: 7, 6: 4}


def test_sqrt_system_unsupported():
    for q in (2, 4, 5):
        with pytest.raises(UnsupportedField):
            build_sqrt_system(field(q))


def test_sqrt_system_roots_square_back():
    for q in SUPPORTED_Q:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        assert tuple(root) == omega_set(ctx)  # the keys are Omega, in order
        for g, r in root.items():
            assert ctx.mul(r, r) == g


def test_sqrt_system_regime_shapes():
    for q in SUPPORTED_Q:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        om = omega_set(ctx)
        if regime_of(ctx) == P3MOD4_E_ODD:
            # roots of the squares are exactly the squares again
            assert set(root.values()) == set(om)
        elif regime_of(ctx) == P1MOD4_OR_E_EVEN:
            qr = set(om)
            r4 = quartic_residues(ctx)
            for g in om:
                if g in r4:
                    assert root[g] in qr
                else:
                    assert root[g] not in qr


def _squares(ctx) -> frozenset:
    return frozenset(ctx.mul(x, x) for x in ctx.units)


def _reference_upsilon(ctx, a: int, b: int, partial_roots: dict) -> frozenset:
    """{(a/b) * sqrt(g) : g a fourth power}, sqrt(g) read from partial_roots;
    a non-square set holding one of each pair {y, -y} when -1 is a square."""
    qr = _squares(ctx)
    r4 = quartic_residues(ctx)
    ratio = ctx.div(a, b)
    out = set()
    for g in r4:
        root = partial_roots[g]
        assert ctx.mul(root, root) == g and root in qr
        out.add(ctx.mul(ratio, root))
    assert len(out) == len(r4)
    assert all(quadratic_character(ctx, y) == -1 for y in out)
    assert not any(ctx.neg(y) in out for y in out)
    return frozenset(out)


def _three_branch_roots(ctx) -> dict:
    """The canonical roots built regime by regime: w^i for w^(2i) on binary
    fields; the unique square root that is a square when -1 is not a square;
    otherwise the smallest square root of each fourth power and, for every
    other square, the smallest non-square root outside Upsilon, built from
    the pair (1, smallest non-square)."""
    om = omega_set(ctx)
    root = {}
    if regime_of(ctx) == BINARY:
        w = find_primitive_zero_inv_trace(ctx)
        x = r = 1
        for _ in om:
            root[x] = r
            x = ctx.mul(x, ctx.mul(w, w))
            r = ctx.mul(r, w)
        return root
    qr = _squares(ctx)
    roots = {}
    for x in ctx.elements:
        roots.setdefault(ctx.mul(x, x), []).append(x)
    if regime_of(ctx) == P3MOD4_E_ODD:
        for g in om:
            (root[g],) = [x for x in roots[g] if x in qr]
        return root
    r4 = quartic_residues(ctx)
    for g in sorted(r4):
        root[g] = next(x for x in roots[g] if x in qr)
    b0 = min(x for x in ctx.units if x not in qr)
    ups = _reference_upsilon(ctx, 1, b0, root)
    for g in sorted(set(om) - r4):
        root[g] = next(x for x in roots[g] if x not in qr and x not in ups)
    return root


def test_one_rule_matches_the_three_branch_construction():
    checked = 0
    for q in range(2, 1025):
        if prime_power(q) is None or q in (2, 4, 5):
            continue
        ctx = field(q)
        assert build_sqrt_system(ctx) == _three_branch_roots(ctx), q
        checked += 1
    assert checked == 195


@pytest.mark.parametrize(
    "q, b0, upsilon", [(9, 4, {5, 8}), (13, 2, {2, 7, 8})], ids=["gf9", "gf13"]
)
def test_roots_of_other_squares_avoid_upsilon(q, b0, upsilon):
    # Upsilon holds one of the two non-square roots of each square that is
    # not a fourth power; the canonical root is the other one
    ctx = field(q)
    qr = _squares(ctx)
    assert min(x for x in ctx.units if x not in qr) == b0
    roots = build_sqrt_system(ctx)
    r4 = quartic_residues(ctx)
    assert _reference_upsilon(ctx, 1, b0, {g: roots[g] for g in r4}) == upsilon
    others = [g for g in roots if g not in r4]
    assert others
    for g in others:
        assert roots[g] not in upsilon and ctx.neg(roots[g]) in upsilon


@pytest.fixture
def shifted_roots_of_4(monkeypatch):
    """_square_roots with each root of 4 moved up by one (GF(7): 4 -> [3, 6])."""
    exact = residues._square_roots

    def shifted(ctx):
        roots = exact(ctx)
        roots[4] = [(x + 1) % ctx.q for x in roots[4]]
        return roots

    monkeypatch.setattr(residues, "_square_roots", shifted)
    build_sqrt_system.cache_clear()
    yield
    monkeypatch.undo()
    build_sqrt_system.cache_clear()


def test_a_wrong_root_table_is_a_failed_check(capsys, shifted_roots_of_4):
    # sqrt(4) reads 3: the union without 2 loses 4 and 6, which only 2's roots hit
    code = cli.cmd_dispatch(["residues", "--q", "7", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    report = json.loads(captured.out)
    assert report["sqrt"] == {"1": 1, "2": 4, "4": 3}
    union = next(c for c in report["checks"] if c["name"] == "union-sizes")
    assert not union["pass"] and union["counterexample"] == {"2": 3}
    rows = {row.name: row for row in cli._sweep_rows(7) + cli._fixed_rows(7, 0)}
    for name in ("union-sizes-gf7", "scalar-evolution-gf7"):
        check = cli._timed_row(rows[name])[0]
        assert not check["pass"] and "error" not in check and check["counterexample"], check


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
        assert set(sizes) == set(omega_set(ctx))
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
        root = build_sqrt_system(ctx)
        om = omega_set(ctx)
        want = {
            delta: len({ctx.mul(root[g], x) for g in om if g != delta for x in pair})
            for delta in om
        }
        assert scaled_pair_union_sizes(ctx, pair) == want, q  # keys: all of Omega
        checked += 1
    assert checked == 65
