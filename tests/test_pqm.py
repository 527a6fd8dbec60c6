import math
import random

import pytest

from qmlab.errors import InvalidScheme, PreconditionViolated, UnknownStrategy
from qmlab.galois import field, mask_elems, mask_of, scale_mask
from qmlab.pqm import (
    BoundReport,
    _alice,
    _class_images,
    _cluster_planes,
    bandwidth_bound,
    mqm_to_pqm,
    play_game,
    replay_transcript,
    run_pqm,
)
from qmlab.qm import (
    FAIL,
    MQM,
    SUCCESS,
    LeakageScheme,
    convert_eliminator,
    leak_bit,
    mqm_check,
    search_min_bandwidth,
    transcript,
)
from qmlab.residues import b11, build_sqrt_system, omega_set


def restricted_messages(ctx):
    om = omega_set(ctx)
    return [
        (c0, c1) for c0 in ctx.units for c1 in ctx.units if ctx.mul(c0, c1) in om
    ]


def gf7_witness():
    ctx = field(7)
    return LeakageScheme(
        ctx, frozenset({1, 2, 4}), (1, 2, 4), (0x3C, 0x18, 0x24)
    )


def gf9_witness():
    # hand-picked five-query scheme over the restricted schedule; not minimal,
    # but verified below, which is all the replay machinery needs
    ctx = field(9)
    return LeakageScheme(
        ctx, frozenset({1, 2, 3, 6}), (1, 1, 2, 2, 3), (0x7, 0x4E, 0x7, 0xA1, 0x6)
    )


# ---------------------------------------------------------------- state


def start_classes(ctx):
    """The decoder's start state, built directly: B_1(1) in every class."""
    ref = mask_of(b11(ctx))
    return {g: ref for g in omega_set(ctx)}


def test_initial_state_is_reference_image_per_class():
    ctx = field(7)
    out, state = run_pqm(ctx, (), ())
    assert list(state.classes) == [1, 2, 4]
    for mask in state.classes.values():
        assert mask == mask_of(b11(ctx))
    assert state.history == (12,) and state.rounds == 0
    assert out == FAIL and state.nonempty() == [1, 2, 4]


def test_round_validates_inputs():
    ctx = field(7)
    with pytest.raises(PreconditionViolated):
        run_pqm(ctx, (1 << 7,), (0,))
    with pytest.raises(PreconditionViolated):
        run_pqm(ctx, (mask_of({1}),), (2,))


def test_round_shrinks_and_bit1_never_drops_zero():
    ctx = field(9)  # reference image contains 0 here
    v_seq = (mask_of({1, 4, 8}), mask_of({0, 2}), 0)
    _, state = run_pqm(ctx, (), ())
    assert all(mask & 1 for mask in state.classes.values())
    for n in range(1, len(v_seq) + 1):
        _, nxt = run_pqm(ctx, v_seq[:n], (1,) * n)
        for g in state.classes:
            assert nxt.classes[g] & ~state.classes[g] == 0
            assert nxt.classes[g] & 1  # 0 survives every bit-1 round
        state = nxt


REFERENCE_Q = (7, 8, 9, 13, 16, 25, 27, 32, 49)


def reference_round(ctx, root, classes, v_set, bit):
    """The scaled-eliminator formula: drop (1/sqrt(g))*r for every removed r,
    where bit 0 removes V and bit 1 removes the units outside V."""
    removed = v_set if bit == 0 else frozenset(ctx.units) - frozenset(v_set)
    out = {}
    for g, mask in classes.items():
        inv_root = ctx.inv(root[g])
        out[g] = mask & ~mask_of(ctx.mul(inv_root, r) for r in removed)
    return out


def test_round_matches_scaled_eliminator_reference():
    for q in REFERENCE_Q:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        rng = random.Random(q)
        start = start_classes(ctx)
        v_sets = [frozenset(), frozenset(range(q)), frozenset(ctx.units)]
        for _ in range(4):
            v = frozenset(u for u in range(q) if rng.getrandbits(1))
            v_sets += [v | {0}, v - {0}]
        for v_set in v_sets:
            for bit in (0, 1):
                _, got = run_pqm(ctx, (mask_of(v_set),), (bit,))
                want = reference_round(ctx, root, start, v_set, bit)
                assert got.classes == want, (q, sorted(v_set), bit)
                assert got.rounds == 1
                assert got.history[1] == sum(m.bit_count() for m in want.values())


def reference_game(ctx, strategy, seed, max_rounds=None, v_seq=()):
    """The game loop as three scaled-eliminator rounds per round (both branch
    sizes, then the chosen branch) with greedy weights summed over (u, class)."""
    root = build_sqrt_system(ctx)
    rng = random.Random(seed)
    classes = start_classes(ctx)
    history = [sum(m.bit_count() for m in classes.values())]
    ties = []
    played = 0
    cap = 4 * ctx.e * (ctx.p - 1).bit_length() if max_rounds is None else max_rounds
    while sum(1 for m in classes.values() if m) > 1 and played < cap:
        if strategy == "replay":
            if played == len(v_seq):
                break
            v_set = mask_elems(v_seq[played])
        elif strategy == "greedy-halving":
            weight = {}
            for u in range(ctx.q):
                weight[u] = sum(
                    (mask >> ctx.mul(ctx.inv(root[g]), u)) & 1
                    for g, mask in classes.items()
                )
            side_v, side_rest, v_set = 0, 0, set()
            for u in sorted(range(ctx.q), key=lambda u: (-weight[u], u)):
                if side_v <= side_rest:
                    v_set.add(u)
                    side_v += weight[u]
                elif u != 0:
                    side_rest += weight[u]
        else:
            v_set = {u for u in range(ctx.q) if rng.getrandbits(1)}
        sizes = [
            sum(m.bit_count() for m in reference_round(ctx, root, classes, v_set, b).values())
            for b in (0, 1)
        ]
        bit = 0 if sizes[0] >= sizes[1] else 1
        if sizes[0] == sizes[1]:
            ties.append(played)
        classes = reference_round(ctx, root, classes, v_set, bit)
        history.append(sum(m.bit_count() for m in classes.values()))
        played += 1
    alive = [g for g, m in sorted(classes.items()) if m]
    return {
        "q": ctx.q,
        "strategy": strategy,
        "seed": seed,
        "rounds": played if len(alive) <= 1 else math.inf,
        "rounds_played": played,
        "survivors": history,
        "ties": ties,
        "classes_left": alive,
    }


def test_game_matches_three_call_reference():
    for q in REFERENCE_Q:
        ctx = field(q)
        rng = random.Random(q)
        v_long = tuple(mask_of(u for u in range(q) if rng.getrandbits(1)) for _ in range(40))
        runs = [("greedy-halving", 0, None, ())] + [("random-set", s, None, ()) for s in range(5)]
        # round caps, including 0, which the API accepts
        runs += [("greedy-halving", 0, cap, ()) for cap in (0, 1, 3)]
        runs += [("random-set", 2, cap, ()) for cap in (0, 2)]
        # replay: a sequence exhausted after 3 rounds, an empty one, a long
        # one the game ends or the round cap stops, and a capped one
        runs += [("replay", 0, None, v) for v in (v_long[:3], (), v_long)]
        runs += [("replay", 0, 2, v_long)]
        for strategy, seed, cap, v_seq in runs:
            got = play_game(ctx, strategy, seed=seed, max_rounds=cap, v_seq=v_seq)
            want = reference_game(ctx, strategy, seed, max_rounds=cap, v_seq=v_seq)
            assert got == want, (q, strategy, seed, cap, len(v_seq))


PRUNE_Q = (121, 125, 128, 243)  # the fields the benchmark's games play


@pytest.mark.parametrize("q", PRUNE_Q)
def test_stalled_games_match_three_call_reference(q):
    # on the benchmark's fields the greedy game stalls: 20 or more of its
    # rounds leave the survivors unchanged and read the memoized V
    ctx = field(q)
    runs = [("greedy-halving", 0, None)] + [("random-set", s, None) for s in range(5)]
    runs += [(strategy, 0, cap) for strategy in ("greedy-halving", "random-set")
             for cap in (0, 1, 3)]
    for strategy, seed, cap in runs:
        got = play_game(ctx, strategy, seed=seed, max_rounds=cap)
        assert got == reference_game(ctx, strategy, seed, max_rounds=cap), (strategy, seed, cap)
    history = play_game(ctx, "greedy-halving")["survivors"]
    assert sum(a == b for a, b in zip(history, history[1:])) >= 20, q


def test_greedy_eliminator_matches_the_per_round_sort():
    # the game record cannot see where the weight-0 elements go (they hold
    # no class point), so V itself is compared with the per-round sort
    for q in REFERENCE_Q + PRUNE_Q:
        ctx = field(q)
        rng = random.Random(q)
        images = _class_images(ctx)
        emit = _alice(ctx, "greedy-halving", 0, (), _cluster_planes(images))
        alives = [(1 << q) - 1] + [rng.getrandbits(q) for _ in range(20)]
        for alive in alives:
            weight = [0] * q
            for image in images.values():
                for u in mask_elems(image & alive):
                    weight[u] += 1
            side_v, side_rest, want = 0, 0, 0
            for u in sorted(range(q), key=lambda u: (-weight[u], u)):
                if side_v <= side_rest:
                    want |= 1 << u
                    side_v += weight[u]
                elif u != 0:
                    side_rest += weight[u]
            assert emit(alive, 0) == want, (q, hex(alive))


def test_class_images_scale_the_reference_image():
    for q in REFERENCE_Q + PRUNE_Q:
        ctx = field(q)
        ref = mask_of(b11(ctx))
        want = {g: scale_mask(ctx, r, ref) for g, r in build_sqrt_system(ctx).items()}
        images = _class_images(ctx)
        assert images == want and list(images) == list(want), q
        # plane k holds the y whose cluster size #{gamma : y in I_gamma} has bit k set
        cluster = [0] * q
        for image in images.values():
            for y in mask_elems(image):
                cluster[y] += 1
        planes = _cluster_planes(images)
        decoded = [sum((plane >> y & 1) << k for k, plane in enumerate(planes)) for y in range(q)]
        assert decoded == cluster, q


def test_run_pqm_matches_round_by_round_reference():
    for q in REFERENCE_Q:
        ctx = field(q)
        root = build_sqrt_system(ctx)
        rng = random.Random(q + 1)
        for n in (1, 4, 9):
            v_seq = [frozenset(u for u in range(q) if rng.getrandbits(1)) for _ in range(n)]
            bits = [rng.getrandbits(1) for _ in range(n)]
            classes = start_classes(ctx)
            history = [sum(m.bit_count() for m in classes.values())]
            for v_set, bit in zip(v_seq, bits):
                classes = reference_round(ctx, root, classes, v_set, bit)
                history.append(sum(m.bit_count() for m in classes.values()))
            outcome, state = run_pqm(ctx, [mask_of(v) for v in v_seq], bits)
            assert state.classes == classes and list(state.classes) == list(classes)
            assert state.history == tuple(history) and state.rounds == n
            left = sum(1 for m in classes.values() if m)
            assert outcome == (SUCCESS if left <= 1 else FAIL), (q, n)


def test_run_pqm_trivial_cases():
    ctx3 = field(3)
    out, state = run_pqm(ctx3, (), ())
    assert out == SUCCESS and len(state.classes) == 1

    ctx7 = field(7)
    out, state = run_pqm(ctx7, (), ())
    assert out == FAIL and state.nonempty() == [1, 2, 4]

    with pytest.raises(PreconditionViolated):
        run_pqm(ctx7, (mask_of({1}),), (0, 1))


# ---------------------------------------------------------------- translation


def test_translation_requires_restricted_shape():
    w = gf7_witness()
    bad_schedule = LeakageScheme(
        w.ctx, frozenset({1, 2, 3, 4}), (1, 2, 3), w.sets
    )
    with pytest.raises(InvalidScheme):
        mqm_to_pqm(bad_schedule)


def test_translation_of_the_gf7_witness():
    w = gf7_witness()
    assert mqm_check(w)
    v_seq = mqm_to_pqm(w)
    assert len(v_seq) == 3
    assert v_seq[0] == mask_of({2, 3, 4, 5})


def test_empty_scheme_translates_to_empty_success():
    ctx = field(3)
    empty = LeakageScheme(ctx, frozenset({1}), (), ())
    v_seq = mqm_to_pqm(empty)
    assert v_seq == ()
    out, _ = run_pqm(ctx, v_seq, ())
    assert out == SUCCESS


def exhaustive_replay(scheme, size_cap):
    ctx = scheme.ctx
    for message in restricted_messages(ctx):
        out, state = replay_transcript(scheme, message)
        assert out == SUCCESS, (message, state.nonempty())
        for g in state.nonempty():
            assert state.classes[g].bit_count() <= size_cap
        hist = state.history
        assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_gf7_witness_succeeds_on_every_transcript():
    exhaustive_replay(gf7_witness(), size_cap=2)


def test_gf9_witness_succeeds_on_every_transcript():
    w = gf9_witness()
    assert mqm_check(w)
    exhaustive_replay(w, size_cap=2)


def test_searched_schemes_replay_end_to_end():
    for q, cap in ((7, 2), (8, 3)):
        ctx = field(q)
        _, scheme = search_min_bandwidth(ctx, MQM, omega_set(ctx))
        exhaustive_replay(scheme, size_cap=cap)


def test_replay_removes_the_side_each_bit_discards():
    # bit b discards the lines whose value x at the query has leak_bit(T, x) != b,
    # so the replay removes the eliminator of those values.  Replays with the
    # sides swapped also end in success with no class left, so whole states
    # are compared, on every in-Omega message
    for q in (7, 8):
        ctx = field(q)
        _, scheme = search_min_bandwidth(ctx, MQM, omega_set(ctx))
        for message in restricted_messages(ctx):
            v_seq = [
                convert_eliminator(
                    ctx, mask_of(x for x in ctx.elements if leak_bit(t_mask, x) != bit), a
                )
                for a, t_mask, bit in zip(scheme.schedule, scheme.sets, transcript(scheme, message))
            ]
            want = run_pqm(ctx, v_seq, (0,) * len(v_seq))
            assert replay_transcript(scheme, message) == want, (q, message)


def test_tampered_scheme_translates_but_can_fail():
    w = gf9_witness()
    sets = list(w.sets)
    sets[2] ^= 1  # move the element 0 across the third query set
    tampered = LeakageScheme(w.ctx, w.servers, w.schedule, tuple(sets))
    assert len(mqm_to_pqm(tampered)) == 5  # structural validation still passes
    out, state = replay_transcript(tampered, (1, 3))
    assert out == FAIL
    assert state.nonempty() == [3, 6]


# ---------------------------------------------------------------- bounds

BOUND_TABLE = {
    2: (-math.inf, -2),
    3: (-1.0, 0),
    4: (-2.0, -1),
    5: (1.0, 2),
    7: (2.169925, 3),
    8: (1.169925, 2),
    9: (3.0, 4),
    11: (3.643856, 4),
    13: (4.169925, 5),
    16: (3.614710, 4),
}


def test_bound_table():
    for q, (real, integer) in BOUND_TABLE.items():
        report = bandwidth_bound(field(q))
        assert isinstance(report, BoundReport)
        if math.isinf(real):
            assert math.isinf(report.real_bound) and report.real_bound < 0
        else:
            assert report.real_bound == pytest.approx(real, abs=1e-6)
        assert report.integer_round_bound == integer


def test_integer_bound_counts_initial_survivors():
    # |Omega| * |B_1(1)| start points; GF(5) has no square-root system, so
    # the count comes from the sets themselves, not from a replay
    assert len(omega_set(field(5))) * len(b11(field(5))) == 6
    for q in (3, 5, 7, 8, 9, 11, 13, 16):
        ctx = field(q)
        report = bandwidth_bound(ctx)
        total = len(omega_set(ctx)) * len(b11(ctx))
        correction = 1 if ctx.p > 2 else 2
        assert report.integer_round_bound == (max(total, 1) - 1).bit_length() - correction


# ---------------------------------------------------------------- game

INTEGER_FLOORS = {7: 3, 8: 2, 9: 4, 11: 4, 13: 5, 16: 4}


def test_single_class_game_ends_immediately():
    assert play_game(field(3), "greedy-halving")["rounds"] == 0


def test_unknown_strategy():
    with pytest.raises(UnknownStrategy):
        play_game(field(7), "clairvoyant")


def test_game_floor_for_every_builtin_strategy():
    for q, floor in INTEGER_FLOORS.items():
        ctx = field(q)
        runs = [("greedy-halving", 0)] + [("random-set", s) for s in range(5)]
        for strategy, seed in runs:
            assert play_game(ctx, strategy, seed=seed)["rounds"] >= floor, (q, strategy)


def test_replay_strategy_consumes_translated_sequence():
    w = gf7_witness()
    v_seq = mqm_to_pqm(w)
    record = play_game(w.ctx, "replay", v_seq=v_seq)
    assert record["rounds_played"] == len(v_seq)
    assert record["rounds"] == math.inf  # adversarial bits defeat three rounds
    assert len(record["classes_left"]) > 1


def test_adversary_keeps_at_least_half_each_round():
    for q in (7, 9, 16):
        record = play_game(field(q), "greedy-halving")
        hist = record["survivors"]
        for before, after in zip(hist, hist[1:]):
            assert after >= (before + 1) // 2


def test_game_is_deterministic_and_logs_ties():
    first = play_game(field(7), "random-set", seed=3)
    second = play_game(field(7), "random-set", seed=3)
    assert first == second
    greedy = play_game(field(7), "greedy-halving")
    assert all(isinstance(r, int) for r in greedy["ties"])
    assert greedy["ties"]  # the balanced splits do tie here


def test_game_respects_round_cap():
    record = play_game(field(13), "greedy-halving", max_rounds=2)
    assert record["rounds_played"] <= 2
    assert record["rounds"] == math.inf
