import itertools
import json
import random

import pytest

from qmlab import cli, linleak
from qmlab.errors import PreconditionViolated
from qmlab.galois import field
from qmlab.linleak import (
    TraceQuery,
    _lift,
    _trace_word,
    decompose,
    linear_impossibility_check,
    trace_leak,
    zero_trace_line,
)


def query_space(ctx):
    return [TraceQuery(a, g) for a in ctx.units for g in ctx.elements]


# ---------------------------------------------------------------- probes


def test_query_point_must_be_a_unit():
    for g in field(8).elements:
        with pytest.raises(PreconditionViolated):
            TraceQuery(0, g)
    query = TraceQuery(gamma=5, alpha=3)
    assert (query.alpha, query.gamma) == (3, 5)
    assert query == TraceQuery(3, 5) and hash(query) == hash(TraceQuery(3, 5))
    assert query != TraceQuery(5, 3)


def test_replace_and_make_check_the_point_as_the_constructor_does():
    with pytest.raises(PreconditionViolated, match="^query point must be a unit$"):
        TraceQuery(1, 0)._replace(alpha=0)
    with pytest.raises(PreconditionViolated, match="^query point must be a unit$"):
        TraceQuery._make((0, 1))
    moved = TraceQuery(1, 0)._replace(gamma=3)
    assert moved == TraceQuery(1, 3) and type(moved) is TraceQuery
    assert TraceQuery._make((2, 5)) == TraceQuery(2, 5)


def test_trace_leak_values():
    ctx7 = field(7)
    for g in ctx7.elements:
        for x in ctx7.elements:
            assert trace_leak(ctx7, TraceQuery(1, g), x) == ctx7.mul(g, x)
    ctx4 = field(4)
    assert trace_leak(ctx4, TraceQuery(1, 1), 2) == 1
    for q in (4, 8, 9, 16, 27):
        ctx = field(q)
        for x in ctx.elements:
            assert trace_leak(ctx, TraceQuery(1, 0), x) == 0
            assert trace_leak(ctx, TraceQuery(1, 1), x) < ctx.p


# ---------------------------------------------------------------- coordinates


def test_trace_row_identity():
    """zero_trace_line relies on sum_c digit_c(word_y) * digits(x)[c] = trace(y*x) mod p."""
    rng = random.Random(0)

    def holds(ctx, y, x):
        word = _trace_word(ctx, y)
        row = ctx.digits(word)  # the e base-p digits of the packed word
        dot = sum(r * d for r, d in zip(row, ctx.digits(x))) % ctx.p
        return word < ctx.q and dot == ctx.trace(ctx.mul(y, x))

    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        ctx = field(q)
        bad = [(y, x) for y in ctx.elements for x in ctx.elements if not holds(ctx, y, x)]
        assert not bad, (q, bad[:5])
    for q in (25, 27, 32, 49, 64, 81, 121, 243):
        ctx = field(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(200)]
        bad = [(y, x) for y, x in pairs if not holds(ctx, y, x)]
        assert not bad, (q, bad[:5])


@pytest.mark.parametrize("q, count", [(8, None), (9, None), (2**13, 200), (3**8, 200)])
def test_trace_word_matches_the_direct_formula(q, count):
    # digit c of word(y) is Tr(y * x^c), here a raw product and a Frobenius sum
    ctx = field(q)
    p, e = ctx.p, ctx.e
    rng = random.Random(q)
    ys = ctx.elements if count is None else [rng.randrange(q) for _ in range(count)]
    for y in ys:
        want = sum(ctx._trace_sum(ctx._raw_mul(y, p**c)) * p**c for c in range(e))
        assert _trace_word(ctx, y) == want, y


# ---------------------------------------------------------------- kernel lines


def test_zero_trace_line_canonical_values():
    assert zero_trace_line(field(7), [TraceQuery(1, 1)]) == (1, 6)
    assert zero_trace_line(field(4), [TraceQuery(1, 0)] * 3) == (1, 0)


def test_zero_trace_line_needs_exact_query_count():
    with pytest.raises(PreconditionViolated):
        zero_trace_line(field(7), [])
    with pytest.raises(PreconditionViolated):
        zero_trace_line(field(4), [TraceQuery(1, 1)] * 4)


def test_zero_trace_line_exhaustive_gf4():
    ctx = field(4)
    for tup in itertools.product(query_space(ctx), repeat=3):
        u, v = zero_trace_line(ctx, tup)
        assert (u, v) != (0, 0)
        for qy in tup:
            assert trace_leak(ctx, qy, ctx.add(ctx.mul(u, qy.alpha), v)) == 0


def _brute_force_line(ctx, queries):
    """The canonical kernel line found by enumerating GF(p)^(2e): among the
    nonzero (u, v) that every probe reads as zero, those whose highest
    nonzero digit index is smallest are the multiples of one line, and the
    canonical one has first nonzero digit 1."""
    best, found = None, []
    for u in ctx.elements:
        for v in ctx.elements:
            if (u, v) == (0, 0):
                continue
            if any(trace_leak(ctx, qy, ctx.add(ctx.mul(u, qy.alpha), v)) for qy in queries):
                continue
            digits = ctx.digits(u) + ctx.digits(v)
            high = max(c for c, d in enumerate(digits) if d)
            if best is None or high < best:
                best, found = high, []
            if high == best and next(d for d in digits if d) == 1:
                found.append((u, v))
    assert len(found) == 1, found
    return found[0]


def test_zero_trace_line_is_the_brute_force_line():
    ctx = field(4)
    for tup in itertools.product(query_space(ctx), repeat=3):
        assert zero_trace_line(ctx, tup) == _brute_force_line(ctx, tup), tup
    rng = random.Random(2)
    for q, n in ((8, 300), (9, 300), (16, 100), (27, 100)):
        ctx = field(q)
        t = 2 * ctx.e - 1
        for _ in range(n):
            # gamma = 0 and repeated probes give rank-deficient systems
            space = [TraceQuery(rng.randrange(1, q), rng.choice((0, rng.randrange(q))))
                     for _ in range(t)]
            tup = [rng.choice(space) for _ in range(t)]
            assert zero_trace_line(ctx, tup) == _brute_force_line(ctx, tup), (q, tup)


def test_zero_trace_line_sampled_extensions():
    rng = random.Random(1)
    for q in (8, 9):
        ctx = field(q)
        t = 2 * ctx.e - 1
        for _ in range(200):
            tup = [
                TraceQuery(rng.randrange(1, q), rng.randrange(q)) for _ in range(t)
            ]
            u, v = zero_trace_line(ctx, tup)
            for qy in tup:
                assert trace_leak(ctx, qy, ctx.add(ctx.mul(u, qy.alpha), v)) == 0


# ---------------------------------------------------------------- splitting


def test_decompose_canonical_values():
    ctx = field(7)
    assert decompose(ctx, 1, 0) == (1, 0, 1, 6)
    assert decompose(ctx, 1, 1) == (0, 1, 0, 1)
    with pytest.raises(PreconditionViolated):
        decompose(ctx, 0, 0)


def test_decompose_postconditions_everywhere():
    for q in (4, 7, 9):
        ctx = field(q)
        for u in ctx.elements:
            for v in ctx.elements:
                if (u, v) == (0, 0):
                    continue
                m, m2, b, b2 = decompose(ctx, u, v)
                assert ctx.add(m, m2) == u
                assert ctx.add(b, b2) == v
                assert ctx.mul(m, b) != ctx.mul(m2, b2)


# ---------------------------------------------------------------- collisions


def test_collision_canonical_gf7():
    f, ell = linear_impossibility_check(field(7), 2, 0, 1, [TraceQuery(1, 1)])
    assert f == (0, 0)
    assert ell == (1, 6)


def test_collision_exhaustive_gf4():
    ctx = field(4)
    count = 0
    for tup in itertools.product(query_space(ctx), repeat=3):
        f, ell = linear_impossibility_check(ctx, 2, 0, 1, tup)
        assert ctx.mul(f[0], f[1]) != ctx.mul(ell[0], ell[1])
        for qy in tup:
            assert trace_leak(ctx, qy, ctx.poly_eval(f, qy.alpha)) == trace_leak(
                ctx, qy, ctx.poly_eval(ell, qy.alpha)
            )
        count += 1
    assert count == 1728


def test_collision_seeded_gf8():
    ctx = field(8)
    rng = random.Random(0)
    for _ in range(1000):
        tup = tuple(
            TraceQuery(rng.randrange(1, 8), rng.randrange(8)) for _ in range(5)
        )
        f, ell = linear_impossibility_check(ctx, 2, 0, 1, tup)
        assert ctx.mul(f[0], f[1]) != ctx.mul(ell[0], ell[1])


def _off_by_one_kernel(monkeypatch):
    """Patch the kernel so its last digit is one more than it should be."""
    exact = linleak._kernel_word

    def wrong(rows, width, p):
        word = exact(rows, width, p)
        top = p ** (width - 1)
        last = word // top
        return word - last * top + (last + 1) % p * top

    monkeypatch.setattr(linleak, "_kernel_word", wrong)


def _assert_a_failed_check(capsys, q):
    code = cli.cmd_dispatch(["linleak", "check", "--q", str(q), "--samples", "5", "--json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    ctx = field(q)
    first = next(cli._sampled_queries(ctx, 2 * ctx.e - 1, 1, 0))
    assert (code, captured.err) == (1, "")
    assert report["verified"] == 0 and report["witness"] is None
    (check,) = report["checks"]
    assert check["name"] == "all-collisions-verify" and not check["pass"]
    assert check["counterexample"]["queries"] == [[qy.alpha, qy.gamma] for qy in first]


def test_a_wrong_kernel_is_a_failed_check(capsys, monkeypatch):
    _off_by_one_kernel(monkeypatch)
    _assert_a_failed_check(capsys, 8)


def test_a_wrong_kernel_is_a_failed_check_on_odd_p(capsys, monkeypatch):
    # GF(9) runs the digit-wise mod p row update instead of XOR
    _off_by_one_kernel(monkeypatch)
    _assert_a_failed_check(capsys, 9)


def test_a_wrong_kernel_fails_the_suite_rows(monkeypatch):
    # GF(4) has tuples whose wrong kernel vector is zero: still a failed row
    _off_by_one_kernel(monkeypatch)
    rows = {row.name: row for row in cli._sweep_rows(8) + cli._fixed_rows(8, 0)}
    for name in ("linleak-exhaustive-gf4", "linleak-seeded-gf8"):
        check = cli._timed_row(rows[name])[0]
        assert not check["pass"] and "error" not in check, check


# ---------------------------------------------------------------- impossibility


def test_impossibility_check_gf4_exhaustive(monkeypatch):
    # each tuple is verified once: two leaks per probe, 2 * 3 on GF(4)
    calls = 0

    def counted(ctx, query, x):
        nonlocal calls
        calls += 1
        return trace_leak(ctx, query, x)

    monkeypatch.setattr(linleak, "trace_leak", counted)
    ctx = field(4)
    for tup in itertools.product(query_space(ctx), repeat=3):
        assert linear_impossibility_check(ctx, 2, 0, 1, tup)
    assert calls == 1728 * 2 * 3


def test_impossibility_check_higher_dimension():
    ctx = field(4)
    tup = (TraceQuery(1, 2), TraceQuery(2, 1), TraceQuery(3, 3))
    assert linear_impossibility_check(ctx, 3, 0, 2, tup)
    assert linear_impossibility_check(ctx, 3, 2, 0, tup)
    assert linear_impossibility_check(ctx, 4, 1, 3, tup)


def test_impossibility_check_hypothesis_boundary():
    ctx = field(4)
    full_download = [TraceQuery(1, g) for g in (1, 2, 3, 1)]  # t = 2e
    with pytest.raises(PreconditionViolated):
        linear_impossibility_check(ctx, 2, 0, 1, full_download)
    with pytest.raises(PreconditionViolated):
        linear_impossibility_check(ctx, 2, 1, 1, [TraceQuery(1, 1)] * 3)


def test_impossibility_check_rejects_k_above_q():
    # an [n, k] Reed-Solomon code over GF(q) has k <= n <= q
    ctx = field(4)
    tup = (TraceQuery(1, 2), TraceQuery(2, 1), TraceQuery(3, 3))
    assert linear_impossibility_check(ctx, 4, 0, 3, tup)
    for k in (5, 100_000):
        with pytest.raises(PreconditionViolated, match=f"k={k} exceeds q=4"):
            linear_impossibility_check(ctx, k, 0, k - 1, tup)


@pytest.mark.parametrize("q", [4, 8])
@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (2, 0)])  # k does not enter the lift
def test_lift_matches_the_direct_formula(q, i, j):
    # the cached lift of each probe is (alpha^r, gamma * alpha^i), r = j - i mod q - 1
    ctx = field(q)
    r = (j - i) % (q - 1)
    for qy in query_space(ctx):
        a_i = ctx._raw_pow(qy.alpha, i)
        want = TraceQuery(ctx._raw_pow(qy.alpha, r), ctx._raw_mul(qy.gamma, a_i))
        assert _lift(ctx, qy, r, i) == want, qy
