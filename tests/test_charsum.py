"""Tests for character sums, Artin-Schreier solvability, trace-kernel check."""

from __future__ import annotations

import json
from functools import partial

import pytest

from qmlab import charsum, cli
from qmlab.charsum import (
    artin_schreier_solvable,
    b11_trace_kernel_check,
    complete_char_sum,
    is_square_free,
    poly_gcd,
)
from qmlab.errors import PreconditionViolated, UnsupportedField
from qmlab.galois import field, prime_factors
from qmlab.residues import b11, quadratic_character

ODD_Q = [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121]


def test_identity_poly_sums_to_zero():
    rep = complete_char_sum(field(7), (0, 1))
    assert rep.value == 0
    assert rep.square_free
    assert rep.within_bound
    assert rep.bound == 0.0


def test_cubic_example_gf7():
    # f(x) = x(x^2 + 1) = x^3 + x
    rep = complete_char_sum(field(7), (0, 1, 0, 1))
    assert rep.value == 0
    assert rep.square_free
    assert rep.within_bound
    assert abs(rep.bound - 2 * 7 ** 0.5) < 1e-12


def test_square_poly_escapes_bound():
    rep = complete_char_sum(field(7), (0, 0, 1))  # x^2
    assert rep.value == 6  # chi(x^2) = 1 for every unit
    assert not rep.square_free
    assert not rep.within_bound


def test_rejections():
    with pytest.raises(UnsupportedField):
        complete_char_sum(field(8), (0, 1))
    with pytest.raises(PreconditionViolated):
        complete_char_sum(field(7), (3,))
    with pytest.raises(PreconditionViolated):
        complete_char_sum(field(7), (0, 0))


def test_weil_bound_cubic_all_odd_q():
    for q in ODD_Q:
        rep = complete_char_sum(field(q), (0, 1, 0, 1))
        assert rep.square_free
        assert rep.within_bound, q


def test_a_wrong_character_is_a_failed_weil_check(capsys, monkeypatch):
    # chi = 1 everywhere sums x^3 + x to q = 7, past 2*sqrt(7)
    monkeypatch.setattr(charsum, "quadratic_character", lambda ctx, x: 1)
    code = cli.cmd_dispatch(["charsum", "--q", "7", "--poly", "0,1,0,1", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    (check,) = json.loads(captured.out)["checks"]
    assert check["name"] == "weil-bound" and not check["pass"] and check["value"] == 7
    rows = cli._sweep_rows(7) + cli._fixed_rows(7, 0)
    (row,) = [row for row in rows if row.name == "weil-bound-gf7"]
    check = cli._timed_row(row)[0]
    assert not check["pass"] and "error" not in check, check


def test_char_sum_shift_invariance():
    # summing over the whole field, chi(f(x + c)) gives the same total
    ctx = field(9)
    base = complete_char_sum(ctx, (0, 1, 0, 1)).value
    for c in ctx.units:
        # f(x + c) expanded for f = x^3 + x: coefficients via evaluation
        vals = sum(
            quadratic_character(ctx, ctx.poly_eval((0, 1, 0, 1), ctx.add(x, c)))
            for x in ctx.elements
        )
        assert vals == base


def test_poly_gcd_monic_and_square_free():
    ctx = field(7)
    # (x + 1)^2 = x^2 + 2x + 1 shares the factor x + 1 with its derivative
    assert poly_gcd(ctx, (1, 2, 1), (2, 2)) == (1, 1)
    assert not is_square_free(ctx, (1, 2, 1))
    assert is_square_free(ctx, (1, 1))
    assert is_square_free(ctx, (0, 1, 0, 1))


def test_artin_schreier_zero_case():
    for q in (8, 16, 32):
        ok, root = artin_schreier_solvable(field(q), 0)
        assert ok and root == 0


def test_artin_schreier_gf4_omega():
    ok, root = artin_schreier_solvable(field(4), 2)
    assert not ok and root is None


def test_artin_schreier_exhaustive():
    for q in (8, 16, 32, 64):
        ctx = field(q)
        for c in ctx.elements:
            ok, root = artin_schreier_solvable(ctx, c)
            assert ok == (ctx.trace(c) == 0)
            if ok:
                assert ctx.add(ctx.add(ctx.mul(root, root), root), c) == 0
                # brute-force count: exactly the two roots {y, y+1}
                roots = [
                    y
                    for y in ctx.elements
                    if ctx.add(ctx.add(ctx.mul(y, y), y), c) == 0
                ]
                assert set(roots) == {root, ctx.add(root, 1)}


def test_artin_schreier_odd_rejected():
    with pytest.raises(UnsupportedField):
        artin_schreier_solvable(field(7), 1)


def test_b11_trace_kernel():
    for q in (8, 16, 32, 64):
        assert b11_trace_kernel_check(field(q))
    with pytest.raises(UnsupportedField):
        b11_trace_kernel_check(field(4))
    with pytest.raises(UnsupportedField):
        b11_trace_kernel_check(field(7))


def test_b11_residue_mix_all_odd_q():
    # The nonzero sums m + 1/m contain both a square and a non-square for
    # every odd q up to 121 except two genuine outliers: over GF(5) the set
    # {2, 3} has no square, and over GF(9) the set equals QR_9 exactly, so it
    # has no non-square.
    for q in range(3, 122, 2):
        if len(prime_factors(q)) != 1:
            continue
        ctx = field(q)
        b11_star = {ctx.add(m, ctx.inv(m)) for m in ctx.units} - {0}
        has_res = any(quadratic_character(ctx, y) == 1 for y in b11_star)
        has_non = any(quadratic_character(ctx, y) == -1 for y in b11_star)
        if q == 5:
            assert not has_res and has_non
        elif q == 9:
            assert has_res and not has_non
            assert b11_star == {y for y in ctx.units if quadratic_character(ctx, y) == 1}
        else:
            assert has_res and has_non, q


def test_residue_mix_outliers_complete_for_every_odd_q():
    # Theorem: for every odd q, B_1(1)* holds a square and a non-square
    # unless q is 5 or 9.  Proof.  For y outside {0, 2, -2}, y = m + 1/m has
    # a unit solution iff m^2 - y*m + 1 has a root, i.e. iff y^2 - 4 is a
    # nonzero square.  With chi the quadratic character and s = +-1, such y
    # with chi(y) = s number
    #   N(s) = 1/4 * sum over y outside {0, +-2} of (1 + s*chi(y))(1 + chi(y^2 - 4))
    #        = (q - 4 - s*(chi(2) + chi(-2)) - chi(-1) + s*W) / 4,
    # using sum chi(y) = 0 and sum chi(y^2 - 4) = -1 over the field, where
    # W = sum chi(y^3 - 4y) (zero at 0 and +-2).  y^3 - 4y = y(y - 2)(y + 2)
    # is square-free for odd p, so Weil gives |W| <= 2*sqrt(q) and
    # N(s) >= (q - 7 - 2*sqrt(q)) / 4, positive once q > 7 and (q - 7)^2 > 4q.
    # (q - 7)^2 - 4q grows by 2q - 17 from q to q + 1, so once positive past
    # q = 8 it stays positive
    threshold = next(q for q in range(8, 100) if (q - 7) ** 2 > 4 * q)
    assert threshold == 15 and 2 * threshold - 17 > 0
    # the count identity and Weil's bound, computed on the fields themselves
    for q in [q for q in range(3, 122, 2) if len(prime_factors(q)) == 1]:
        ctx = field(q)
        chi = partial(quadratic_character, ctx)
        two = ctx.add(1, 1)
        star = b11(ctx) - {0, two, ctx.neg(two)}
        w = sum(chi(ctx.mul(y, ctx.sub(ctx.mul(y, y), ctx.add(two, two)))) for y in ctx.elements)
        assert w * w <= 4 * q, q
        for s in (1, -1):
            count = sum(1 for y in star if chi(y) == s)
            edge = s * (chi(two) + chi(ctx.neg(two))) + chi(ctx.neg(1))
            assert 4 * count == q - 4 - edge + s * w, q
            assert q < threshold or count > 0, q
    # below the threshold, every odd prime power by enumeration
    for q in [q for q in range(3, threshold, 2) if len(prime_factors(q)) == 1]:
        ctx = field(q)
        signs = {quadratic_character(ctx, y) for y in b11(ctx) - {0}}
        assert signs == ({-1} if q == 5 else {1} if q == 9 else {1, -1}), q
