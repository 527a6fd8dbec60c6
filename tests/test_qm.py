"""Tests for leakage schemes, transcript replay, verification, and search."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from qmlab.cli import scheme_from_obj, scheme_to_obj
from qmlab.errors import (
    BudgetExceeded,
    InvalidScheme,
    PreconditionViolated,
    RegimeMismatch,
    UnsupportedField,
)
from qmlab.galois import field, mask_elems, mask_full, mask_of, prime_power
from qmlab.qm import (
    APPENDIX,
    FAIL,
    INVALID_TRANSCRIPT,
    MQM,
    QM,
    SUCCESS,
    LeakageScheme,
    _color_graph,
    _domain_messages,
    _join_sides,
    _message_maps,
    _MessageMap,
    _mode_domain,
    _pick_constraint,
    _point_action,
    _recolor_end,
    _separation_problem,
    _symmetries,
    convert_eliminator,
    leak_bit,
    mqm_check,
    run_qm,
    search_min_bandwidth,
    transcript,
    verify_scheme,
)
from qmlab.residues import build_sqrt_system, omega_set
from qmlab.rscode import relabel
from qmlab.shamir7 import gf7_scheme


# test ids name the search modes as the paper does
_PAPER_MODE_NAMES = {QM: "QM", MQM: "mQM", APPENDIX: "Appendix"}


def _mode_id(value):
    """The paper's name for a mode parameter; None leaves pytest's own id."""
    return _PAPER_MODE_NAMES.get(value) if isinstance(value, str) else None


def gf7_appendix_scheme() -> LeakageScheme:
    ctx = field(7)
    sets = [{0, 2, 5}, {0, 1, 6}, {0, 3, 4}, {0, 2, 5}, {0, 1, 6}]
    return LeakageScheme(
        ctx, frozenset(range(5)), (0, 1, 2, 3, 4),
        tuple(mask_of(s) for s in sets),
    )


def full_download_scheme(ctx, points=(1, 2)) -> LeakageScheme:
    # one bit per binary digit of each downloaded symbol; the transcript
    # pins both evaluations exactly, so every message pair is separated
    bits = max(1, (ctx.q - 1).bit_length())
    schedule, sets = [], []
    for a in points:
        for w in range(bits):
            schedule.append(a)
            sets.append(mask_of(x for x in ctx.elements if not (x >> w) & 1))
    return LeakageScheme(
        ctx, frozenset(points), tuple(schedule), tuple(sets)
    )


def all_messages(ctx, domain):
    dom = frozenset(domain)
    for c0 in ctx.elements:
        for c1 in ctx.elements:
            if ctx.mul(c0, c1) in dom:
                yield (c0, c1), ctx.mul(c0, c1)


def test_scheme_validation():
    ctx = field(7)
    with pytest.raises(InvalidScheme, match=r"^schedule\[1\]: 1 is not a server$") as err:
        LeakageScheme(ctx, frozenset({0}), (0, 1), (1, 1))
    assert err.value.entry == "schedule[1]"
    with pytest.raises(InvalidScheme, match=r"^servers\[2\]: 7 is not an element of GF\(7\)$"):
        LeakageScheme(ctx, [0, 6, 7], (0,), (1,))  # the servers as given
    with pytest.raises(InvalidScheme):
        LeakageScheme(ctx, frozenset({0}), (0,), (1, 2))
    with pytest.raises(InvalidScheme):
        LeakageScheme(ctx, frozenset({0}), (0,), (1 << 7,))


def test_replace_and_make_check_the_scheme_as_the_constructor_does():
    scheme = gf7_scheme()
    with pytest.raises(InvalidScheme, match=r"^schedule\[0\]: 9 is not a server$"):
        scheme._replace(schedule=(9,), sets=(1 << 9,))
    with pytest.raises(InvalidScheme, match=r"^schedule\[0\]: 9 is not a server$"):
        LeakageScheme._make((scheme.ctx, scheme.servers, (9,), (1 << 9,)))
    fewer = scheme._replace(schedule=(0, 1), sets=scheme.sets[:2])
    assert fewer == LeakageScheme(scheme.ctx, scheme.servers, (0, 1), scheme.sets[:2])
    assert type(fewer) is LeakageScheme
    assert LeakageScheme._make(scheme) == scheme


def test_a_scheme_is_its_queries_however_they_are_given():
    ctx = field(7)
    sets = (0x25, 0x43, 0x19)
    built = [
        LeakageScheme(ctx, [0, 1, 2], [0, 1, 2], list(sets)),
        LeakageScheme(ctx, range(3), range(3), iter(sets)),
        LeakageScheme(ctx, (2, 1, 0), (0, 1, 2), sets),
    ]
    assert built[0] == built[1] == built[2]
    assert len({hash(s) for s in built}) == 1 and len(set(built)) == 1
    assert built[0].servers == frozenset(range(3)) and built[0].schedule == (0, 1, 2)
    assert built[0] != LeakageScheme(ctx, range(3), (0, 1, 2), (0x25, 0x43, 0x18))


def test_a_scheme_file_with_the_targets_swapped_loads_as_the_same_scheme():
    obj = scheme_to_obj(gf7_scheme())
    swapped = scheme_from_obj({**obj, "i": 1, "j": 0})
    assert swapped == scheme_from_obj(obj) and hash(swapped) == hash(scheme_from_obj(obj))
    assert scheme_to_obj(swapped) == obj


def test_leak_bit():
    assert leak_bit(0, 3) == 1
    assert leak_bit(mask_full(7), 3) == 0
    assert leak_bit(mask_of({0, 1, 6}), 3) == 1
    assert leak_bit(mask_of({0, 1, 6}), 6) == 0


def test_transcript_examples():
    s = gf7_appendix_scheme()
    assert transcript(s, (0, 0)) == (0, 0, 0, 0, 0)  # 0 lies in every set
    assert transcript(s, (1, 1)) == (1, 1, 0, 1, 1)  # f = x + 1
    assert transcript(s, (2, 2)) != transcript(s, (4, 4))  # products 4 vs 2


def test_run_qm_no_information():
    ctx = field(7)
    s = LeakageScheme(ctx, frozenset({0}), (), ())
    assert run_qm(s, ()).kind == FAIL


def test_run_qm_appendix_success():
    s = gf7_appendix_scheme()
    bits = transcript(s, (1, 1))
    out = run_qm(s, bits, product_domain=field(7).units)
    assert out == (SUCCESS, 1)


def test_run_qm_full_domain_product_zero_collision():
    # the constants 3 and 4 share the transcript of x + 1, so without the
    # nonzero-product restriction the zero bucket also survives
    s = gf7_appendix_scheme()
    bits = transcript(s, (1, 1))
    assert bits == transcript(s, (3, 0)) == transcript(s, (4, 0))
    assert run_qm(s, bits).kind == FAIL


def test_run_qm_invalid_transcript():
    ctx = field(7)
    s = LeakageScheme(ctx, frozenset({0}), (0,), (mask_full(7),))
    assert run_qm(s, (1,)).kind == INVALID_TRANSCRIPT
    assert run_qm(s, (0,)).kind == FAIL


def test_run_qm_length_check():
    s = gf7_appendix_scheme()
    with pytest.raises(PreconditionViolated):
        run_qm(s, (1, 1))


def test_verify_appendix_scheme():
    s = gf7_appendix_scheme()
    assert verify_scheme(s, field(7).units)
    # blanking any one set breaks it
    broken = LeakageScheme(
        s.ctx, s.servers, s.schedule,
        s.sets[:2] + (0,) + s.sets[3:],
    )
    assert not verify_scheme(broken, field(7).units)


def test_verify_full_download():
    ctx = field(7)
    s = full_download_scheme(ctx)
    assert verify_scheme(s, ctx.elements)
    assert verify_scheme(s, ctx.units)
    assert mqm_check(s)  # points {1, 2} lie in the restricted set


def test_verify_matches_replay():
    # the separation criterion agrees with replaying every transcript
    ctx7 = field(7)
    schemes = [
        (gf7_appendix_scheme(), tuple(ctx7.units)),
        (gf7_appendix_scheme(), tuple(ctx7.elements)),
        (full_download_scheme(ctx7), tuple(ctx7.elements)),
    ]
    ctx5 = field(5)
    rng = random.Random(0)
    for _ in range(8):
        schedule = tuple(rng.randrange(5) for _ in range(3))
        sets = tuple(rng.getrandbits(5) for _ in range(3))
        s = LeakageScheme(ctx5, frozenset(range(5)), schedule, sets)
        schemes.append((s, tuple(ctx5.elements)))
        schemes.append((s, tuple(ctx5.units)))
    for scheme, domain in schemes:
        replay_ok = all(
            run_qm(scheme, transcript(scheme, f), domain) == (SUCCESS, g)
            for f, g in all_messages(scheme.ctx, domain)
        )
        assert verify_scheme(scheme, domain) == replay_ok


def test_domain_messages_match_the_double_loop():
    # the bucket enumeration lists the c0-major double loop's messages in its order
    for q in [q for q in range(2, 17) if prime_power(q)]:
        ctx = field(q)
        for mode in (QM, APPENDIX, MQM):
            try:
                domain = _mode_domain(ctx, mode)
            except UnsupportedField:
                assert (q, mode) in ((2, MQM), (4, MQM))  # no restricted set
                continue
            assert _domain_messages(ctx, domain) == list(all_messages(ctx, domain)), (q, mode)


def test_mqm_check():
    # the appendix scheme contacts 0 and 3, which are outside the squares
    assert not mqm_check(gf7_appendix_scheme())
    ctx3 = field(3)
    empty = LeakageScheme(ctx3, frozenset({1}), (), ())
    assert mqm_check(empty)  # one product class needs no bits


def test_convert_eliminator_edges():
    ctx = field(7)
    assert convert_eliminator(ctx, 0, 1) == 0
    assert convert_eliminator(ctx, mask_full(7), 1) == mask_of(ctx.units)
    assert convert_eliminator(ctx, mask_of({0, 1}), 1) == mask_of({1})
    with pytest.raises(RegimeMismatch):
        convert_eliminator(ctx, 1, 3)


def test_convert_eliminator_matches_relabel_route():
    # V must equal (1/sqrt(alpha)) applied to the alpha-evaluations of the
    # relabelled qualifying lines, and contain sqrt(gamma)(m + 1/m) for each
    for q in (7, 8, 9):
        ctx = field(q)
        root = build_sqrt_system(ctx)
        om = omega_set(ctx)
        rng = random.Random(q)
        masks = [1 << x for x in ctx.elements]
        masks += [rng.getrandbits(ctx.q) for _ in range(64)]
        for a in om:
            inv_ra = ctx.inv(root[a])
            for t_mask in masks:
                got = mask_elems(convert_eliminator(ctx, t_mask, a))
                vals = set()
                for g in om:
                    rg = root[g]
                    for m in ctx.units:
                        h = (ctx.mul(rg, m), ctx.mul(rg, ctx.inv(m)))
                        if (t_mask >> ctx.poly_eval(h, a)) & 1:
                            moved = relabel(ctx, h, a)
                            vals.add(ctx.mul(inv_ra, ctx.poly_eval(moved, a)))
                            assert ctx.mul(rg, ctx.add(m, ctx.inv(m))) in got
                assert vals == set(got)


def test_search_trivial_restricted():
    t, scheme = search_min_bandwidth(field(3), MQM, {1})
    assert t == 0 and scheme.t == 0


def test_search_qm_gf3():
    t, scheme = search_min_bandwidth(field(3), QM, {0, 1, 2})
    assert t == 2
    assert verify_scheme(scheme, field(3).elements)


def test_search_qm_gf5():
    t, scheme = search_min_bandwidth(field(5), QM, set(range(5)))
    assert t == 4
    assert verify_scheme(scheme, field(5).elements)


def test_search_appendix_gf5():
    t, scheme = search_min_bandwidth(field(5), APPENDIX, set(range(5)))
    assert t == 3
    assert verify_scheme(scheme, field(5).units)


def test_search_mqm_gf7():
    t, scheme = search_min_bandwidth(field(7), MQM, {1, 2, 4})
    assert t == 3
    assert scheme.schedule == (1, 2, 4)
    assert scheme.sets == (0x3C, 0x18, 0x24)
    assert mqm_check(scheme)


def test_search_mqm_gf8():
    t, scheme = search_min_bandwidth(field(8), MQM, {1, 4, 7})
    assert t == 4
    assert mqm_check(scheme)


def test_search_appendix_gf7_beats_five_bits():
    # the hand-built 5-bit scheme is a feasible point; exhaustive search
    # proves 4 bits suffice for the nonzero-product domain at these servers
    t, scheme = search_min_bandwidth(
        field(7), APPENDIX, set(range(5)), budget=3_000_000
    )
    assert t == 4
    assert scheme.schedule == (3, 3, 4, 4)
    assert scheme.sets == (60, 90, 60, 90)
    assert verify_scheme(scheme, field(7).units)


def _partitions(n, cells):
    """Every partition of range(n) into at most `cells` cells, as a restricted
    growth string: entry v is v's cell, and cell c + 1 first appears after c."""
    if n == 0:
        yield ()
        return
    for head in _partitions(n - 1, cells):
        for c in range(min(cells, max(head, default=-1) + 2)):
            yield head + (c,)


def _backtrack_colouring(q, edges, colours):
    """A proper colouring of vertices 0..q-1 with at most `colours` colours, by
    plain backtracking, or None; a loop (u, u) has none."""
    nbrs = [set() for _ in range(q)]
    for u, v in edges:
        if u == v:
            return None
        nbrs[u].add(v)
        nbrs[v].add(u)
    colour = [None] * q

    def place(v):
        if v == q:
            return True
        for c in range(colours):
            if all(colour[w] != c for w in nbrs[v]):
                colour[v] = c
                if place(v + 1):
                    return True
        colour[v] = None
        return False

    return tuple(colour) if place(0) else None


def _brute_force_scheme(ctx, domain, points, t):
    """A t-bit scheme as {point: (bits, cell of each value)}, or None when
    none exists: a brute force that shares no code with the search.

    Each split of t over the points is tried.  Every point but the one with
    the most bits takes each partition into at most 2^b cells; the message
    pairs with different products that no such point separates must then
    split at that last point, so its forced-split graph must be
    2^b-colourable."""
    dom = set(domain)
    messages = [
        (c0, c1) for c0 in ctx.elements for c1 in ctx.elements if ctx.mul(c0, c1) in dom
    ]
    values = {
        a: [ctx.add(c0, ctx.mul(c1, a)) for c0, c1 in messages] for a in points
    }
    pairs = [
        (x, y)
        for x in range(len(messages))
        for y in range(x)
        if ctx.mul(*messages[x]) != ctx.mul(*messages[y])
    ]
    cap = (ctx.q - 1).bit_length()

    def splits(total, n):
        if n == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap) + 1):
            for rest in splits(total - first, n - 1):
                yield (first,) + rest

    def search(rest, last, bits, open_pairs, chosen):
        if not rest:
            val = values[last]
            edges = {(val[x], val[y]) for x, y in open_pairs}
            colouring = _backtrack_colouring(ctx.q, edges, 2 ** bits[last])
            return None if colouring is None else {**chosen, last: (bits[last], colouring)}
        a, more = rest[0], rest[1:]
        val = values[a]
        for cell in _partitions(ctx.q, 2 ** bits[a]):
            left = [(x, y) for x, y in open_pairs if cell[val[x]] == cell[val[y]]]
            found = search(more, last, bits, left, {**chosen, a: (bits[a], cell)})
            if found:
                return found
        return None

    for split in splits(t, len(points)):
        bits = dict(zip(points, split))
        last = max(points, key=lambda a: bits[a])
        rest = [a for a in points if a != last and bits[a]]
        found = search(rest, last, bits, pairs, {})
        if found:
            return found
    return None


@pytest.mark.parametrize(
    "q, mode, domain, points, minimum",
    [
        (5, QM, "all", (0, 1, 2, 3, 4), 4),
        (7, MQM, "omega", (1, 2, 4), 3),
        (8, MQM, "omega", (1, 4, 7), 4),
    ],
    ids=_mode_id,
)
def test_search_minima_match_a_brute_force(q, mode, domain, points, minimum):
    ctx = field(q)
    dom = ctx.elements if domain == "all" else omega_set(ctx)
    assert _brute_force_scheme(ctx, dom, points, minimum - 1) is None
    found = _brute_force_scheme(ctx, dom, points, minimum)
    assert found and sum(bits for bits, _ in found.values()) == minimum
    schedule, sets = [], []
    for a, (bits, cell) in sorted(found.items()):
        for w in range(bits):
            schedule.append(a)
            sets.append(mask_of(v for v in ctx.elements if (cell[v] >> w) & 1))
    scheme = LeakageScheme(ctx, frozenset(points), schedule, sets)
    assert scheme.t == minimum and verify_scheme(scheme, dom)
    assert search_min_bandwidth(ctx, mode, set(points))[0] == minimum


@pytest.mark.parametrize(
    "q, mode, servers, nodes",
    [
        (7, APPENDIX, range(5), 1_157),
        (5, QM, range(5), 1_070),
        (8, MQM, (1, 4, 7), 830),
        (3, QM, range(3), 11),
        (7, MQM, range(7), 55),
        (5, APPENDIX, range(5), 152),
        (4, QM, range(4), 249),
        # t = 8: probes with 4 or more colors; no map keeps {0, 5} but the
        # value scalings, and each refuted tuple dies on one-option constraints
        (9, QM, (0, 5), 625),
    ],
    ids=_mode_id,
)
def test_search_node_budget_boundaries(q, mode, servers, nodes):
    # the exact node count pins the search tree: any change to which nodes
    # are visited, or in what order, moves one of these boundaries; the
    # search without its symmetry skips needed 3,636, 4,168, 998, 14, 109,
    # 245, 970 and 625 nodes
    assert search_min_bandwidth(field(q), mode, set(servers), budget=nodes) is not None
    with pytest.raises(BudgetExceeded):
        search_min_bandwidth(field(q), mode, set(servers), budget=nodes - 1)


@pytest.mark.parametrize(
    "q, mode, servers, budget, t",
    [(7, APPENDIX, range(4), 3_635, 4), (7, APPENDIX, range(5), 79, 2),
     (8, MQM, (1, 4, 7), 829, 4), (7, QM, range(7), 0, 0), (7, QM, range(7), 1, 1),
     (9, MQM, (1, 2, 3, 6), 1_223, 3), (9, MQM, (1, 2, 3, 6), 5_000, 4),
     (7, APPENDIX, range(5), 1_156, 4)],
    ids=_mode_id,
)
def test_budget_hit_carries_the_proven_lower_bound(q, mode, servers, budget, t):
    # the search tries t in ascending order, so a budget hit at t refutes
    # every smaller t; searching with t_max = t - 1 confirms the refutation.
    # 1,156, 79, 829 and 1,223 are the largest budgets that stop at t: one
    # node below the nodes that refute every t' <= t, or that find the scheme.
    # On servers 0..3, every budget from 450 to 49,075 stops at t = 4
    with pytest.raises(BudgetExceeded) as err:
        search_min_bandwidth(field(q), mode, set(servers), budget=budget)
    assert (err.value.budget, err.value.t) == (budget, t)
    bits = "bit" if t == 1 else "bits"
    assert str(err.value) == (
        f"search expanded more than {budget} nodes; no scheme with fewer than {t} {bits}"
    )
    if t:
        assert search_min_bandwidth(field(q), mode, set(servers), t_max=t - 1) is None


@lru_cache(maxsize=None)
def _evaluations(ctx, domain, points):
    """Each in-domain message's evaluations at the points, and its product."""
    dom = set(domain)
    messages = [
        (c0, c1) for c0 in ctx.elements for c1 in ctx.elements if ctx.mul(c0, c1) in dom
    ]
    evals = [[ctx.add(c0, ctx.mul(c1, a)) for a in points] for c0, c1 in messages]
    return evals, [ctx.mul(c0, c1) for c0, c1 in messages]


@lru_cache(maxsize=None)
def _constraints_on(ctx, domain, points, support: frozenset) -> set:
    """Brute force over the in-domain message pairs with different products:
    the set of constraints on the support (point indices).  A constraint is
    the set of options of one pair, the (point index, low value, high value)
    triples where the pair's two evaluations differ, each encoded as one int."""
    q = ctx.q
    evals, products = _evaluations(ctx, domain, points)
    return {
        frozenset(
            k * q * q + min(ex[k], ey[k]) * q + max(ex[k], ey[k])
            for k in support
            if ex[k] != ey[k]
        )
        for (ex, gx), (ey, gy) in itertools.combinations(zip(evals, products), 2)
        if gx != gy
    }


def _carries_constraints(ctx, domain, points, perm, values) -> bool:
    """Whether the point action maps the constraints on its support (the
    points perm sends somewhere) onto the constraints on the support's
    image, through a bijection of values at each point."""
    q = ctx.q
    support = [k for k, image in enumerate(perm) if image is not None]
    if any(sorted(values[k]) != list(range(q)) for k in support):
        return False
    relabel = [0] * (len(perm) * q * q)
    for k in support:
        for u, v in itertools.combinations(range(q), 2):
            x, y = values[k][u], values[k][v]
            relabel[k * q * q + u * q + v] = perm[k] * q * q + min(x, y) * q + max(x, y)
    source = _constraints_on(ctx, domain, points, frozenset(support))
    target = _constraints_on(ctx, domain, points, frozenset(perm[k] for k in support))
    return {frozenset(map(relabel.__getitem__, c)) for c in source} == target


def _carries_messages(ctx, domain, points, perm, values) -> bool:
    """A faster test that implies _carries_constraints, for a support of
    two or more points, where the evaluations there fix the message: the
    action sends each in-domain message's evaluations on the support to
    those of a distinct in-domain message on the image, and every in-domain
    pair has different products exactly when its image pair does."""
    evals, products = _evaluations(ctx, domain, points)
    support = [k for k, image in enumerate(perm) if image is not None]
    owner = {tuple(e[perm[k]] for k in support): y for y, e in enumerate(evals)}
    phi = [owner.get(tuple(values[k][e[k]] for k in support)) for e in evals]
    if None in phi or len(set(phi)) != len(phi):
        return False
    return all(
        (products[x] != products[y]) == (products[phi[x]] != products[phi[y]])
        for x, y in itertools.combinations(range(len(evals)), 2)
    )


@pytest.mark.parametrize(
    "q, mode, servers",
    [(q, mode, None) for q in (2, 3, 4, 5, 7, 8, 9) for mode in (QM, APPENDIX, MQM)
     if mode != MQM or q not in (2, 4)]
    + [(7, APPENDIX, range(5)), (9, MQM, (1, 2, 6))],
    ids=_mode_id,
)
def test_search_symmetries_carry_the_constraints_onto_themselves(q, mode, servers):
    # every map the search uses, checked on the message pairs themselves: a
    # map that does not keep the separation problem fails here even when it
    # happens to leave every witness alone
    ctx = field(q)
    servers = frozenset(ctx.elements if servers is None else servers)
    alphas = _separation_problem(ctx, mode, servers)[0]
    domain = _mode_domain(ctx, mode)
    symmetries = _symmetries(ctx, mode, alphas)
    for perm, tables in symmetries:
        carries = _carries_messages if len(perm) - perm.count(None) > 1 else _carries_constraints
        for values in tables:
            assert carries(ctx, domain, alphas, perm, values), (perm, values)
            if values == tables[0]:  # the literal check too, once per point map
                assert _carries_constraints(ctx, domain, alphas, perm, values), perm
    # the value scalings (lam, lam) fix every point; binary Omega keeps lam = 1 only
    scalings = [g for g in _message_maps(ctx, mode) if g == (g.lam, g.lam, False, 0)]
    assert len(scalings) == (1 if mode == MQM and ctx.p == 2 else q - 1)
    fixed = dict(symmetries)[tuple(range(len(alphas)))]
    assert all(_point_action(ctx, g, alphas)[1] in fixed for g in scalings)


def _refused(ctx, mode, g) -> bool:
    """The map is not derived, and the brute force over every point of the
    field confirms that it breaks the separation problem."""
    points = tuple(ctx.elements)
    action = _point_action(ctx, g, points)
    return g not in _message_maps(ctx, mode) and not _carries_constraints(
        ctx, _mode_domain(ctx, mode), points, *action
    )


@pytest.mark.parametrize("q", [8, 16])
def test_binary_omega_admits_no_frobenius_and_only_unit_products(q):
    ctx = field(q)
    maps = _message_maps(ctx, MQM)
    assert {(ctx.mul(g.lam, g.nu), g.frob) for g in maps} == {(1, 0)}
    assert _refused(ctx, MQM, _MessageMap(1, 1, False, 1))  # Frobenius
    for s in range(2, q):
        assert _refused(ctx, MQM, _MessageMap(s, 1, False, 0))


def test_odd_mqm_admits_square_products_only():
    ctx = field(7)
    om = omega_set(ctx)
    assert {ctx.mul(g.lam, g.nu) for g in _message_maps(ctx, MQM)} == set(om)
    assert _refused(ctx, MQM, _MessageMap(3, 1, False, 0))
    # Frobenius keeps the squares of GF(9)
    assert {g.frob for g in _message_maps(field(9), MQM)} == {0, 1}


def test_the_swap_never_moves_server_0():
    ctx = field(7)
    alphas = tuple(ctx.elements)
    for g in _message_maps(ctx, QM):
        perm, _ = _point_action(ctx, g, alphas)
        assert (perm[0] is None) == g.swap
        if g.swap:  # elsewhere it sends alpha to lam / (nu * alpha)
            assert all(perm[a] == ctx.div(g.lam, ctx.mul(g.nu, a)) for a in ctx.units)


def _pick_by_scan(n: int, open_: int, viable):
    """The reference: scan the open constraints in index order, counting each
    one's viable options in full; the first with at most one decides."""
    best, fewest = None, None
    for ci in range(n):
        if not (open_ >> ci) & 1:
            continue
        count = sum((m >> ci) & 1 for m in viable)
        if count <= 1:
            return ci
        if fewest is None or count < fewest:
            best, fewest = ci, count
    return best


def test_pick_constraint_matches_an_in_order_scan():
    rng = random.Random(23)
    for trial in range(3000):
        n = rng.randint(1, 70)
        points = rng.randint(1, 11)
        density = rng.random()
        open_ = sum(1 << ci for ci in range(n) if rng.random() < 0.7)
        viable = [
            sum(1 << ci for ci in range(n) if rng.random() < density)
            for _ in range(points)
        ]
        if trial % 3 and n >= 2 and points >= 2:
            # an open constraint with no option and another with one, in either order
            low, high = sorted(rng.sample(range(n), 2))
            none, one = (low, high) if trial % 3 == 1 else (high, low)
            open_ |= 1 << low | 1 << high
            viable = [m & ~(1 << none) & ~(1 << one) for m in viable]
            viable[rng.randrange(points)] |= 1 << one
            assert _pick_by_scan(n, open_, viable) <= low
        assert _pick_constraint(open_, viable) == _pick_by_scan(n, open_, viable)
    assert _pick_constraint(0, [0b111]) is None
    assert _pick_constraint(0b110, [0b011, 0b111]) == 2  # 1 has two options, 2 has one
    assert _pick_constraint(0b111, [0b011, 0b011, 0b100]) == 2  # counts 2, 2, 1
    assert _pick_constraint(0b111, [0b110, 0b110, 0b011]) == 0  # counts 1, 3, 2
    assert _pick_constraint(0b111, [0b110, 0b110, 0b110]) == 0  # no option refutes first
    assert _pick_constraint(0b111, [0b101, 0b111, 0b011]) == 1  # counts 3, 2, 2


def _first_coloring_every_color(q: int, adj, colors: int):
    """The reference: the first proper coloring in encoding order, trying
    every color at every vertex."""
    assign = [0] * q

    def place(v: int) -> bool:
        if v == q:
            return True
        banned = {assign[u] for u in range(v) if (adj[v] >> u) & 1}
        for c in range(colors):
            if c not in banned:
                assign[v] = c
                if place(v + 1):
                    return True
        return False

    return tuple(assign) if place(0) else None


def test_color_graph_matches_the_enumeration_of_every_color():
    # canonical colors skip only colorings that relabel an earlier one
    rng = random.Random(20)
    for _ in range(1500):
        q = rng.randint(1, 10)
        colors = rng.choice((1, 2, 3, 4, 5, 8))
        density = rng.random()
        adj = [0] * q
        for u in range(q):
            for v in range(u):
                if rng.random() < density:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        assert _color_graph(q, adj, colors) == _first_coloring_every_color(q, adj, colors)


def test_recolor_end_moves_one_end_to_a_free_color():
    # a moved coloring must color the graph plus uv properly, and None must
    # mean that each end's neighbors use every color but its own
    rng = random.Random(9)
    for _ in range(400):
        q = rng.randint(3, 11)
        colors = rng.choice((4, 8))
        adj = [0] * q
        for x in range(q):
            for y in range(x):
                if rng.random() < 0.5:
                    adj[x] |= 1 << y
                    adj[y] |= 1 << x
        coloring = _color_graph(q, adj, colors)
        pairs = [(u, v) for u in range(q) for v in range(u)
                 if not (adj[u] >> v) & 1 and coloring and coloring[u] == coloring[v]]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        moved = _recolor_end(coloring, adj, u, v, colors)
        if moved is None:
            for w in (u, v):
                seen = {coloring[x] for x in range(q) if (adj[w] >> x) & 1}
                assert seen | {coloring[w]} == set(range(colors))
            continue
        probe = adj[:]
        probe[u] |= 1 << v
        probe[v] |= 1 << u
        assert sum(a != b for a, b in zip(moved, coloring)) == 1
        assert all(moved[x] != moved[y] and moved[x] < colors
                   for x in range(q) for y in range(q) if (probe[x] >> y) & 1)


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_side_labels_answer_two_coloring(q):
    # random edge sequences: the label verdict must match a 2-coloring of the
    # committed graph plus the probed edge, and only accepted edges commit
    rng = random.Random(q)
    for _ in range(40):
        adj = [0] * q
        lab = list(range(0, 2 * q, 2))
        for _ in range(3 * q):
            u, v = rng.sample(range(q), 2)
            probe = adj[:]
            probe[u] |= 1 << v
            probe[v] |= 1 << u
            accepted = lab[u] != lab[v]
            assert accepted == (_color_graph(q, probe, 2) is not None)
            if accepted:
                adj = probe
                lab = _join_sides(lab, u, v)


def test_search_monotone_extension():
    _, scheme = search_min_bandwidth(field(7), MQM, {1, 2, 4})
    extended = LeakageScheme(
        scheme.ctx, scheme.servers,
        scheme.schedule + (1,), scheme.sets + (mask_of({0}),),
    )
    assert mqm_check(extended)


def test_search_budget_and_limits():
    with pytest.raises(BudgetExceeded):
        search_min_bandwidth(field(7), QM, frozenset(range(7)), budget=0)
    with pytest.raises(PreconditionViolated):
        search_min_bandwidth(field(13), MQM, {1})
    with pytest.raises(PreconditionViolated):
        search_min_bandwidth(field(7), "bogus", {1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: search_min_bandwidth(field(7), QM, {1, 7}), "servers must be field elements"),
        (lambda: search_min_bandwidth(field(7), QM, {-1, 2}), "servers must be field elements"),
        (lambda: transcript(gf7_appendix_scheme(), (1,)), "message must have 2 coefficients"),
        (lambda: transcript(gf7_appendix_scheme(), (1, 1, 0)), "message must have 2 coefficients"),
    ],
    ids=["search-server-7", "search-server-minus-1", "transcript-short", "transcript-long"],
)
def test_library_preconditions_the_cli_checks_first(call, message):
    # the CLI rejects these inputs before calling in, so only here do the
    # library's own checks run
    with pytest.raises(PreconditionViolated, match=f"^{message}$"):
        call()


def test_search_infeasible_within_tmax():
    assert search_min_bandwidth(field(7), MQM, {1, 2, 4}, t_max=2) is None
