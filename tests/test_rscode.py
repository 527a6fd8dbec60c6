"""Tests for lines, buckets, evaluation images and relabels."""

from __future__ import annotations

import json
import random

import pytest

from qmlab import cli, rscode
from qmlab.errors import RegimeMismatch, UnsupportedField
from qmlab.galois import field, mask_full, mask_of, prime_power, scale_mask
from qmlab.residues import b11, build_sqrt_system, omega_set
from qmlab.rscode import _enumerated_image, bucket, bucket_eval, relabel, scalar_evolution

SUPPORTED_Q = [3, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def test_line_tuple_product_and_eval():
    ctx = field(7)
    line = (5, 3)  # f(x) = 5 + 3x
    assert ctx.mul(*line) == 1
    assert ctx.poly_eval(line, 2) == ctx.add(6, 5)


def test_bucket_gf7_unit():
    ctx = field(7)
    got = bucket(ctx, 1)
    want = {(m, ctx.inv(m)) for m in ctx.units}
    assert got == want
    assert len(got) == 6


def test_bucket_gf3():
    ctx = field(3)
    assert bucket(ctx, 1) == {(1, 1), (2, 2)}


def test_bucket_zero_gf7():
    ctx = field(7)
    lines = bucket(ctx, 0)
    assert len(lines) == 13
    assert all(ctx.mul(b, m) == 0 for b, m in lines)


def test_bucket_invariants():
    for q in (7, 8, 9):
        ctx = field(q)
        for g in ctx.units:
            lines = bucket(ctx, g)
            assert len(lines) == q - 1
            assert {m for _, m in lines} == set(ctx.units)
            assert all(ctx.mul(b, m) == g for b, m in lines)


def test_bucket_eval_figure_rows():
    ctx = field(7)
    assert bucket_eval(ctx, 4, 1) == mask_of({2, 3, 4, 5})
    assert bucket_eval(ctx, 1, 0) == mask_of(ctx.units)
    assert bucket_eval(ctx, 1, 1) == mask_of({1, 2, 5, 6})
    # the zero bucket contains every constant line, so its image is the field
    for a in ctx.elements:
        assert bucket_eval(ctx, 0, a) == mask_of(ctx.elements)
    # at alpha = 0 every nonzero bucket evaluates to the constant terms = units
    for g in ctx.units:
        assert bucket_eval(ctx, g, 0) == mask_of(ctx.units)


def test_bucket_eval_matches_enumeration_on_every_pair():
    # the root-scaling law against line-by-line enumeration, all q^2 pairs
    for q in range(2, 82):
        if prime_power(q) is None:
            continue
        ctx = field(q)
        for g in ctx.elements:
            for a in ctx.elements:
                assert bucket_eval(ctx, g, a) == _enumerated_image(ctx, g, a), (q, g, a)


@pytest.mark.parametrize("q", [121, 125, 128, 243])
def test_bucket_eval_matches_enumeration_on_large_fields(q):
    ctx = field(q)
    rng = random.Random(q)
    pairs = [(0, a) for a in ctx.elements] + [(g, 0) for g in ctx.elements]
    pairs += [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(200)]
    for g, a in pairs:
        assert bucket_eval(ctx, g, a) == _enumerated_image(ctx, g, a), (g, a)


def _line_by_line(ctx, gamma, alpha):
    return mask_of(ctx.poly_eval(line, alpha) for line in bucket(ctx, gamma))


def test_enumerated_image_matches_line_by_line_on_every_pair():
    for q in [q for q in range(2, 33) if prime_power(q)] + [49, 64]:
        ctx = field(q)
        for g in ctx.elements:
            for a in ctx.elements:
                assert _enumerated_image(ctx, g, a) == _line_by_line(ctx, g, a), (q, g, a)
        # the ends of both exp-table slices: log gamma = q - 2 reads the
        # intercepts up to exp[2(q - 1) - 1], log alpha = 0 the slopes from exp[0]
        last = ctx._exp[q - 2]
        for g, a in ((last, 1), (last, last), (1, 1), (1, last)):
            assert _enumerated_image(ctx, g, a) == _line_by_line(ctx, g, a), (q, g, a)
        # the zero bucket hits the whole field, and at alpha = 0 a unit bucket the units
        assert all(_enumerated_image(ctx, 0, a) == mask_full(q) for a in ctx.elements)
        assert all(_enumerated_image(ctx, g, 0) == mask_full(q) ^ 1 for g in ctx.units)


@pytest.mark.parametrize("q", [49, 64, 81, 121, 243])
def test_enumerated_image_matches_line_by_line_on_seeded_pairs(q):
    ctx = field(q)
    rng = random.Random(q)
    pairs = [(0, 0), (0, rng.randrange(1, q)), (rng.randrange(1, q), 0)]
    pairs += [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(40)]
    for g, a in pairs:
        assert _enumerated_image(ctx, g, a) == _line_by_line(ctx, g, a), (g, a)


def test_enumerated_image_never_reads_the_scaling_law(monkeypatch):
    def boom(*_args):
        raise AssertionError("the reference read the image it is checked against")

    monkeypatch.setattr(rscode, "_scaled_image", boom)
    monkeypatch.setattr(rscode, "bucket_eval", boom)
    for q in (7, 8, 9, 16):
        ctx = field(q)
        for g in ctx.elements:
            for a in ctx.elements:
                assert rscode._enumerated_image.__wrapped__(ctx, g, a) == _line_by_line(ctx, g, a)


@pytest.mark.parametrize("gamma, alpha", [(0, 1), (1, 0), (3, 5)])
def test_bucket_eval_keeps_the_field_size_cap(gamma, alpha):
    with pytest.raises(UnsupportedField, match="capped at q <= 1024"):
        bucket_eval(field(2048), gamma, alpha)
    # GF(1031), the first prime past the cap, still has exp/log tables
    with pytest.raises(UnsupportedField, match="capped at q <= 1024"):
        bucket(field(1031), gamma)
    with pytest.raises(UnsupportedField, match="capped at q <= 1024"):
        _enumerated_image(field(1031), gamma, alpha)


def test_b11_frozen():
    assert b11(field(5)) == {0, 2, 3}
    assert b11(field(3)) == {1, 2}
    assert b11(field(7)) == {1, 2, 5, 6}
    assert b11(field(8)) == {0, 2, 4, 7}
    assert b11(field(9)) == {0, 1, 2, 3, 6}


def test_b11_sizes_and_rejects():
    for q in SUPPORTED_Q + [81, 121, 125, 127, 128]:
        ctx = field(q)
        expect = (q + 1) // 2 if ctx.p > 2 else q // 2
        assert len(b11(ctx)) == expect
    for q in (2, 4):
        with pytest.raises(UnsupportedField):
            b11(field(q))


def test_b11_equals_bucket_eval():
    for q in (7, 8, 9, 13):
        ctx = field(q)
        assert mask_of(b11(ctx)) == bucket_eval(ctx, 1, 1)


def _h_line(ctx, root, gamma, m):
    """sqrt(gamma) * ((1/m)x + m), the canonical product-gamma line with parameter m."""
    r = root[gamma]
    return ctx.mul(r, m), ctx.mul(r, ctx.inv(m))


def test_canonical_lines_fill_the_bucket():
    # m -> sqrt(gamma) * ((1/m)x + m) is a bijection from the units onto bucket(gamma)
    for q in (7, 8, 9):
        ctx = field(q)
        root = build_sqrt_system(ctx)
        for g in omega_set(ctx):
            lines = [_h_line(ctx, root, g, m) for m in ctx.units]
            assert all(ctx.mul(*line) == g for line in lines)
            assert set(lines) == bucket(ctx, g) and len(lines) == ctx.q - 1


def test_relabel_frozen_example():
    ctx = field(7)
    out = relabel(ctx, (3, 5), 4)
    assert out == (6, 6)


def test_relabel_identity_at_one():
    ctx = field(7)
    line = (3, 5)
    assert relabel(ctx, line, 1) == line


def test_relabel_rejections():
    ctx = field(7)
    with pytest.raises(RegimeMismatch):
        relabel(ctx, (3, 5), 3)  # 3 not a square mod 7
    with pytest.raises(RegimeMismatch):
        relabel(ctx, (3, 1), 1)  # product 3 outside restricted set


def test_relabel_permutes_bucket():
    for q in (7, 8, 9):
        ctx = field(q)
        for g in omega_set(ctx):
            lines = bucket(ctx, g)
            for a in omega_set(ctx):
                image = {relabel(ctx, l, a) for l in lines}
                assert image == lines


def test_relabel_evaluation_identity():
    # the relabelled line evaluated at alpha is sqrt(gamma)sqrt(alpha)(m + 1/m)
    for q in (7, 9):
        ctx = field(q)
        root = build_sqrt_system(ctx)
        om = omega_set(ctx)
        for g in om:
            for a in om:
                scale = ctx.mul(root[g], root[a])
                for m in ctx.units:
                    line = _h_line(ctx, root, g, m)
                    moved = relabel(ctx, line, a)
                    want = ctx.mul(scale, ctx.add(m, ctx.inv(m)))
                    assert ctx.poly_eval(moved, a) == want


def _law_holds(ctx, gamma, alpha):
    """B_gamma(alpha) = sqrt(gamma)sqrt(alpha) * B_1(1), both images enumerated line by
    line from `bucket`, roots read as rscode reads them."""
    root = rscode.build_sqrt_system(ctx)
    scale = ctx.mul(root[gamma], root[alpha])
    return _line_by_line(ctx, gamma, alpha) == scale_mask(ctx, scale, _line_by_line(ctx, 1, 1))


def _first_law_failure(ctx):
    """The sweep's answer pair by pair: the first failing (gamma, alpha), gamma outermost."""
    om = omega_set(ctx)
    return next(((g, a) for g in om for a in om if not _law_holds(ctx, g, a)), None)


def test_scalar_evolution_exhaustive():
    # the sweep's reference is (1, 1); substituting it gives the law from any
    # (delta, beta) in Omega^2, checked here line by line
    for q in (7, 8, 9):
        ctx = field(q)
        assert scalar_evolution(ctx) is None, q
        root = build_sqrt_system(ctx)
        om = omega_set(ctx)
        for d in om:
            for be in om:
                den = ctx.mul(root[d], root[be])
                ref = _line_by_line(ctx, d, be)
                for g in om:
                    for a in om:
                        scale = ctx.div(ctx.mul(root[g], root[a]), den)
                        got = _line_by_line(ctx, g, a)
                        assert got == scale_mask(ctx, scale, ref), (q, d, be, g, a)


def test_scalar_evolution_checks_the_law_not_bucket_eval(monkeypatch):
    def boom(*_args):
        raise AssertionError("scalar_evolution read the image it checks")

    for name in ("bucket", "bucket_eval", "_scaled_image"):
        monkeypatch.setattr(rscode, name, boom)
    for q in (7, 8, 9, 16, 25):
        ctx = field(q)
        assert scalar_evolution(ctx) is None


@pytest.mark.parametrize("q", [7, 8, 9, 13, 16, 25, 27])
def test_scalar_evolution_matches_a_per_pair_reference(monkeypatch, q):
    ctx = field(q)
    assert scalar_evolution(ctx) is None
    assert _first_law_failure(ctx) is None
    factor = ctx._exp[1]  # a primitive element, never +-1 here
    for gamma in omega_set(ctx):
        with monkeypatch.context() as patch:
            _tamper_root(patch, ctx, gamma, factor)
            got = scalar_evolution(ctx)
            assert got is not None and got == _first_law_failure(ctx), gamma


def _tamper_root(monkeypatch, ctx, gamma, factor):
    """Make rscode read ctx's canonical root table with sqrt(gamma) multiplied
    by factor (not +-1); every other field keeps its real table."""
    root = build_sqrt_system(ctx)
    assert factor not in (1, ctx.neg(1))
    bad = {**root, gamma: ctx.mul(factor, root[gamma])}
    monkeypatch.setattr(
        rscode, "build_sqrt_system", lambda c: bad if c == ctx else build_sqrt_system(c)
    )


def test_scalar_evolution_detects_a_wrong_root(monkeypatch):
    ctx = field(7)
    _tamper_root(monkeypatch, ctx, 2, 2)
    witness = scalar_evolution(ctx)
    assert witness is not None and 2 in witness
    # pairs that never read the tampered root still agree
    om = omega_set(ctx)
    assert all(_law_holds(ctx, g, a) for g in om for a in om if 2 not in (g, a))


def test_scalar_evolution_row_fails_on_a_wrong_root(capsys, monkeypatch):
    ctx = field(7)
    _tamper_root(monkeypatch, ctx, 2, 2)
    code = cli.cmd_dispatch(["suite", "--qmax", "7", "--json"])
    rows = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 1
    row = rows["scalar-evolution-gf7"]
    assert not row["pass"]
    witness = row["counterexample"]
    assert set(witness) == {"gamma", "alpha"}
    assert 2 in (witness["gamma"], witness["alpha"])
    assert scalar_evolution(ctx) == (witness["gamma"], witness["alpha"])


def test_one_scaling_identity_small_fields():
    # B_gamma(alpha) = sqrt(gamma)sqrt(alpha) * B_1(1) on the restricted sets
    for q in [qq for qq in SUPPORTED_Q if qq <= 64]:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        base = b11(ctx)
        for g in omega_set(ctx):
            for a in omega_set(ctx):
                scale = ctx.mul(root[g], root[a])
                want = {ctx.mul(scale, y) for y in base}
                assert bucket_eval(ctx, g, a) == mask_of(want)


def test_sqrt_pullback_identity_small_fields():
    # {alpha/m + m} = {sqrt(alpha)/m + sqrt(alpha)*m} over the restricted set
    for q in [qq for qq in SUPPORTED_Q if qq <= 64]:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        for a in omega_set(ctx):
            r = root[a]
            lhs = {ctx.add(ctx.div(a, m), m) for m in ctx.units}
            rhs = {ctx.add(ctx.div(r, m), ctx.mul(r, m)) for m in ctx.units}
            assert lhs == rhs
