"""Field construction, arithmetic axioms, trace, primitive elements, masks."""

import random

import pytest

from qmlab.errors import DivisionByZero, UnsupportedField
from qmlab.galois import (
    _TABLE_LIMIT,
    MAX_Q,
    FieldCtx,
    add_elems,
    canonical_irreducible,
    field,
    find_primitive,
    find_primitive_zero_inv_trace,
    mask_complement,
    mask_elems,
    mask_from_hex,
    mask_of,
    mask_to_hex,
    prime_power,
    scale_elems,
    scale_mask,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]


def test_canonical_irreducibles():
    # Derived by hand: smallest (c0, c1, ..., 1) in lexicographic order that
    # has no nontrivial monic divisor.
    assert canonical_irreducible(7, 1) == (0, 1)
    assert canonical_irreducible(2, 2) == (1, 1, 1)  # x^2+x+1
    assert canonical_irreducible(3, 2) == (1, 0, 1)  # x^2+1 (-1 is no square mod 3)
    assert canonical_irreducible(2, 3) == (1, 0, 1, 1)  # x^3+x^2+1, before x^3+x+1
    assert canonical_irreducible(2, 4) == (1, 0, 0, 1, 1)  # x^4+x^3+1
    assert canonical_irreducible(5, 2) == (1, 1, 1)  # x^2+1 splits (2^2=-1); x^2+x+1 does not
    assert canonical_irreducible(11, 2) == (1, 0, 1)


def test_bad_construction():
    with pytest.raises(ValueError):
        FieldCtx(6, 1)
    with pytest.raises(ValueError):
        FieldCtx(2, 0)
    with pytest.raises(ValueError):
        FieldCtx(2, 3, irreducible=(1, 0, 0, 1))  # x^3+1 = (x+1)(x^2+x+1)
    with pytest.raises(ValueError):
        FieldCtx(2, 3, irreducible=(1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        field(12)
    with pytest.raises(ValueError):
        field(1)


def test_equal_contexts_share_one_cache_entry():
    # the hash is taken once at construction; equality still compares (p, e, irreducible)
    a, b = FieldCtx(3, 2), FieldCtx(3, 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != FieldCtx(3, 2, irreducible=(2, 1, 1))  # x^2+x+2, also irreducible
    find_primitive(a)
    before = find_primitive.cache_info()
    assert find_primitive(b) == find_primitive(a)
    after = find_primitive.cache_info()
    assert after.hits - before.hits == 2
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_oversized_fields_rejected_before_factoring():
    # a prime this large would take far too long to trial-divide
    big = 1_000_000_000_000_000_003
    for make in (lambda: field(big), lambda: FieldCtx(big, 1), lambda: FieldCtx(2, 10**18)):
        with pytest.raises(ValueError, match="exceeds the supported limit"):
            make()
    with pytest.raises(ValueError, match="exceeds the supported limit"):
        FieldCtx(2, MAX_Q.bit_length())
    assert field(MAX_Q).q == MAX_Q


def _digitwise(p, e, a, b, sign):
    """a + sign*b on base-p digit vectors, independent of FieldCtx."""
    out, weight = 0, 1
    for _ in range(e):
        out += (a % p + sign * (b % p)) % p * weight
        a, b, weight = a // p, b // p, weight * p
    return out


def test_add_sub_neg_match_digitwise_reference():
    rng = random.Random(20261018)
    exhaustive = [q for q in range(4, 244) if (pe := prime_power(q)) and pe[1] > 1]
    sampled = [625, 729, 2187, 4096, 6561, 8192]
    for q in exhaustive + sampled:
        ctx = field(q)
        p, e = ctx.p, ctx.e
        # the path under test: XOR for p = 2, Zech tables for odd p up to the
        # table limit, digit lists above it
        assert (ctx._zech is not None) == (p > 2 and q <= _TABLE_LIMIT), q
        if ctx._zech is not None:
            assert len(ctx._zech) == q - 1 and ctx._zech[(q - 1) // 2] == -1
        if q in exhaustive:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(20000)]
            pairs += [(0, b) for b in range(0, q, 7)] + [(a, 0) for a in range(0, q, 7)]
        for a, b in pairs:
            assert ctx.add(a, b) == _digitwise(p, e, a, b, 1), (q, a, b)
            assert ctx.sub(a, b) == _digitwise(p, e, a, b, -1), (q, a, b)
        for a in {a for a, _ in pairs}:
            assert ctx.neg(a) == _digitwise(p, e, 0, a, -1), (q, a)


def test_prime_field_ops():
    f7 = field(7)
    assert f7.mul(3, 5) == 1
    assert f7.add(6, 6) == 5
    assert f7.sub(0, 1) == 6
    assert f7.inv(3) == 5
    assert f7.div(1, 2) == 4
    assert f7.pow(3, 6) == 1
    assert f7.pow(0, 0) == 1
    with pytest.raises(DivisionByZero):
        f7.inv(0)
    with pytest.raises(DivisionByZero):
        f7.div(3, 0)


def test_gf4_multiplication_forced_by_modulus():
    f4 = field(4)
    w = 2  # the class of x
    assert f4.mul(w, w) == f4.add(w, 1)  # x^2 = x+1 mod x^2+x+1
    assert f4.mul(w, 1) == w


def test_field_axioms_exhaustive():
    for q in [4, 5, 7, 8, 9, 16, 27]:
        ctx = field(q)
        for a in ctx.elements:
            assert ctx.mul(a, 1) == a
            assert ctx.add(a, ctx.neg(a)) == 0
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1
                assert ctx.pow(a, q - 1) == 1
            for b in ctx.elements:
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.add(a, b) == ctx.add(b, a)
        # distributivity on a sample grid
        for a in range(0, q, 3):
            for b in range(0, q, 2):
                for c in ctx.elements:
                    lhs = ctx.mul(a, ctx.add(b, c))
                    rhs = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                    assert lhs == rhs


def test_mul_matches_raw_polynomial_mul():
    # mul and inv index the two-period exp table with no modulo, pow with one,
    # and div is mul by inv; all must agree with schoolbook reduction: every
    # pair (a, b) of each tabled field up to 64, with b also the exponent, and
    # sampled pairs above
    for q in [q for q in range(2, 65) if prime_power(q)]:
        ctx = field(q)
        assert len(ctx._exp) == 2 * (q - 1) and ctx._exp[: q - 1] == ctx._exp[q - 1 :]
        inv_ref = {b: ctx._raw_pow(b, q - 2) for b in ctx.units}
        for a in ctx.elements:
            power = 1  # a^b by repeated schoolbook multiplication
            for b in ctx.elements:
                assert ctx.mul(a, b) == ctx._raw_mul(a, b), (q, a, b)
                assert ctx.pow(a, b) == power, (q, a, b)
                if b:
                    assert ctx.div(a, b) == ctx._raw_mul(a, inv_ref[b]), (q, a, b)
                power = ctx._raw_mul(power, a)
            if a:
                assert ctx.inv(a) == inv_ref[a] == ctx.pow(a, -1), (q, a)
    # sampled above 64; past the table limit _raw_pow is both the code under
    # test and the reference, so there the field identities are the check
    # that can fail, on fewer samples as each inv is a square-and-multiply
    rng = random.Random(20261019)
    for q in (243, 4096, 2**13, 3**8, 5**6, 65537):
        ctx = field(q)
        tabled = ctx._exp is not None
        assert tabled == (q <= _TABLE_LIMIT), q
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400 if tabled else 100)]
        pairs += [(a, b) for a in (0, 1, q - 1) for b in (0, 1, q - 1)]
        for a, b in pairs:
            assert ctx.mul(a, b) == ctx._raw_mul(a, b), (q, a, b)
            assert ctx.pow(a, b) == ctx._raw_pow(a, b % (q - 1) if a else b), (q, a, b)
            if b:
                inv_b = ctx._raw_pow(b, q - 2)
                assert ctx.inv(b) == inv_b, (q, b)
                assert ctx.div(a, b) == ctx._raw_mul(a, inv_b), (q, a, b)
            if a and b:
                assert ctx.mul(a, ctx.inv(a)) == 1, (q, a)
                assert ctx.mul(ctx.div(a, b), b) == a, (q, a, b)
                assert ctx.pow(a, q - 1) == 1, (q, a)
        with pytest.raises(DivisionByZero):
            ctx.pow(0, -1)
    with pytest.raises(DivisionByZero):
        field(64).div(0, 0)


def test_trace_table_matches_the_frobenius_sum():
    for q in [q for q in range(2, 257) if prime_power(q)]:
        ctx = FieldCtx(*prime_power(q))  # a fresh context, so the table is built here
        assert ctx._trace is None
        got = [ctx.trace(a) for a in ctx.elements]
        assert ctx._trace == got == [ctx._trace_sum(a) for a in ctx.elements], q
    # an odd-p extension field above the table limit runs the loop per call
    big = field(3**8)
    assert big._exp is None
    rng = random.Random(3)
    for a in [0, 1, 2, big.q - 1] + rng.sample(range(big.q), 40):
        t = big.trace(a)
        assert t == big._trace_sum(a) and t < 3
        assert big.trace(big.add(a, 1)) == (t + big.e) % 3  # Tr(1) = e mod p
    assert big._trace is None


@pytest.mark.parametrize("q", [2**13, 2**16, 3**9, 5**6])
def test_untabled_trace_matches_the_frobenius_sum(q):
    # above the table limit trace reads digits against (Tr(x^d))_d
    ctx = field(q)
    assert ctx._exp is None
    rng = random.Random(q)
    basis = [ctx.p**d for d in range(ctx.e)]
    for a in [0, 1, q - 1] + basis + [rng.randrange(q) for _ in range(60)]:
        assert ctx.trace(a) == ctx._trace_sum(a), (q, a)
    assert ctx._trace is None
    assert ctx._trace_basis == [ctx._trace_sum(b) for b in basis]


@pytest.mark.parametrize("q", [7, 16, 81, 6561])
def test_add_elems_matches_add(q):
    # one field per add path: mod p, XOR, Zech logarithms, digit lists
    ctx = field(q)
    rng = random.Random(q)
    if q <= 81:
        xs = [a for a in ctx.elements for _ in ctx.elements]
        ys = [b for _ in ctx.elements for b in ctx.elements]
    else:
        xs = [rng.randrange(q) for _ in range(2000)] + [0, 0, q - 1]
        ys = [rng.randrange(q) for _ in range(2000)] + [0, q - 1, 0]
    assert add_elems(ctx, xs, ys) == list(map(ctx.add, xs, ys))
    assert add_elems(ctx, (), ()) == []


def test_trace_values():
    assert field(7).trace(5) == 5  # e=1: identity
    for q in SMALL_Q:
        assert field(q).trace(0) == 0
    f8 = field(8)
    assert f8.trace(1) == 1  # 1+1+1 over F_2
    f4 = field(4)
    assert f4.trace(2) == 1  # w + w^2 = 1
    assert f4.trace(1) == 0


def test_trace_linear_surjective_kernel_size():
    for q in [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128]:
        ctx = field(q)
        p = ctx.p
        images = set()
        kernel = 0
        for a in ctx.elements:
            t = ctx.trace(a)
            assert t < p
            images.add(t)
            if t == 0:
                kernel += 1
            # F_p-linearity: trace(c*a) = c*trace(a) for c in the prime subfield
            for c in range(p):
                assert ctx.trace(ctx.mul(c, a)) == (c * t) % p
        assert images == set(range(p))
        assert kernel == p ** (ctx.e - 1)


def test_trace_additive_and_frobenius_invariant():
    for q in [8, 9, 16, 27, 64]:
        ctx = field(q)
        for a in ctx.elements:
            assert ctx.trace(ctx.pow(a, ctx.p)) == ctx.trace(a)
            for b in range(0, q, 3):
                assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % ctx.p


def test_prime_power():
    powers = {p**e: (p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19) for e in range(1, 9)}
    for n in range(-2, 400):
        want = powers.get(n)
        if want is None and n > 1 and all(n % d for d in range(2, n)):
            want = (n, 1)  # primes above 19
        assert prime_power(n) == want, n
    assert prime_power(2**20) == (2, 20) and prime_power(2 * 1_000_003) is None
    with pytest.raises(ValueError, match="not a prime power"):
        field(12)


def test_find_primitive():
    assert find_primitive(field(7)) == 3
    assert find_primitive(field(2)) == 1
    assert find_primitive(field(4)) == 2
    for q in SMALL_Q:
        ctx = field(q)
        g = find_primitive(ctx)
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert len(seen) == q - 1


def test_find_primitive_zero_inv_trace():
    with pytest.raises(UnsupportedField):
        find_primitive_zero_inv_trace(field(4))
    with pytest.raises(UnsupportedField):
        find_primitive_zero_inv_trace(field(9))
    # witness for every binary field with 3 <= e <= 7
    for e in range(3, 8):
        ctx = field(2**e)
        w = find_primitive_zero_inv_trace(ctx)
        assert ctx._order(w) == ctx.q - 1
        assert ctx.trace(ctx.inv(w)) == 0
    assert find_primitive_zero_inv_trace(field(8)) == 2  # the class of x


def test_masks_roundtrip():
    q = 7
    m = mask_of({0, 2, 5})
    assert m == 0b0100101
    assert mask_elems(m) == (0, 2, 5)
    assert mask_elems(0) == ()
    rng = random.Random(5)
    for width in (1, 64, 65, 243, 1000):
        wide = rng.getrandbits(width) | (1 << (width - 1))
        assert mask_elems(wide) == tuple(i for i in range(width) if (wide >> i) & 1)
    assert mask_complement(m, q) == mask_of({1, 3, 4, 6})
    assert mask_to_hex(m, q) == "25"
    assert mask_from_hex("25", q) == m
    with pytest.raises(ValueError):
        mask_from_hex("ff", 7)


def test_poly_eval():
    f7 = field(7)
    assert f7.poly_eval((2, 3), 0) == 2  # 3x+2 at 0
    assert f7.poly_eval((2, 3), 1) == 5
    assert f7.poly_eval((2, 3), 2) == 1
    assert f7.poly_eval((0, 0, 1), 5) == 4  # x^2 at 5


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 25, 64, 81, 243, 6561, 8192])
def test_poly_eval_matches_a_digitwise_horner(q):
    # one field per poly_eval path: mod p, tabled p = 2, and mul/add with
    # Zech, XOR and digit-list addition
    ctx = field(q)
    p = ctx.p

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            prod = ctx._raw_mul(acc, x)
            acc = ctx.from_digits((a + b) % p for a, b in zip(ctx.digits(prod), ctx.digits(c)))
        return acc

    rng = random.Random(q)
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(12)]
    lists = [[]]
    for k in range(1, 6):
        lists += [[0] * k, [q - 1] * k, [0] * (k - 1) + [rng.randrange(1, q)]]
        lists += [[rng.randrange(q) for _ in range(k)] for _ in range(4)]
    for coeffs in lists:
        for x in xs:
            assert ctx.poly_eval(coeffs, x) == horner(coeffs, x), (q, coeffs, x)
            assert ctx.poly_eval(tuple(coeffs), x) == horner(coeffs, x), (q, coeffs, x)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 25, 64, 81, 243, 6561, 8192])
def test_scale_kernel_matches_mul(q):
    # tabled fields shift logs; 6561 and 8192 lie above the table limit
    ctx = field(q)
    rng = random.Random(q)
    xs = list(ctx.elements) if q <= 256 else [0, 1, q - 1] + rng.sample(range(q), 100)
    cs = list(ctx.elements) if q <= 81 else [0, 1, q - 1] + rng.sample(range(q), 8)
    for c in cs:
        want = [ctx.mul(c, x) for x in xs]
        assert scale_elems(ctx, c, xs) == want, (q, c)
        assert scale_mask(ctx, c, mask_of(xs)) == mask_of(want), (q, c)
