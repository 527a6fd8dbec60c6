"""Pruning decoder on reference-point classes, round bounds, and the query game.

The decoder keeps one survivor class per restricted product gamma, all
starting from the reference image B_1(1).  A round publishes an eliminator
V, a q-bit mask like every field subset here, and a bit: bit 0 removes the
rescaled eliminator (1/sqrt(gamma))*V from every class, bit 1 removes the
rescaled complement of V in the units.  Success means at most one class is
left nonempty.

Point x of class gamma lies in the rescaled V iff y = sqrt(gamma)*x is in
V, and in the rescaled units-complement iff y is a unit outside V, so a
round keeps or drops a whole y-cluster whatever the class.  The survivors
are therefore one q-bit y-mask `alive`, starting full: bit 0 keeps
alive & ~V, bit 1 keeps alive & (V | {0}).  With the class image
I_gamma = sqrt(gamma)*B_1(1), built once per field, class gamma holds
|I_gamma & alive| points, and its x-values are (1/sqrt(gamma))*(I_gamma &
alive).  The game and the transcript replay advance that one mask.

A bit-leakage scheme in the restricted regime translates into such an
eliminator sequence (one per query), and the adversarial game plays the
same pruning loop with the bits chosen by an adversary who always keeps the
larger side, which is what forces the round floor.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import InvalidScheme, PreconditionViolated, UnknownStrategy
from .galois import FieldCtx, mask_complement, mask_elems, mask_full, mask_of, scale_elems
from .galois import scale_mask
from .qm import FAIL, SUCCESS, LeakageScheme, convert_eliminator, transcript
from .residues import b11, build_sqrt_system, omega_set

STRATEGIES = ("greedy-halving", "random-set", "replay")


class PqmState(NamedTuple):
    """Survivor classes after some rounds of the pruning decoder."""

    classes: dict  # gamma -> q-bit mask of surviving reference values
    rounds: int
    history: tuple  # total survivors at the start and after each round

    def nonempty(self) -> list:
        return [g for g, m in sorted(self.classes.items()) if m]


def _eliminator(ctx: FieldCtx, v_mask: int) -> int:
    """V, after checking it is a q-bit mask."""
    if not 0 <= v_mask < 1 << ctx.q:
        raise PreconditionViolated("each eliminator must be a q-bit mask")
    return v_mask


def _keep(alive: int, v_mask: int, bit: int) -> int:
    """The y-values of `alive` a round keeps: bit 0 drops V, bit 1 drops the
    units outside V, so y = 0 survives every bit-1 round."""
    if bit == 0:
        return alive & ~v_mask
    if bit == 1:
        return alive & (v_mask | 1)
    raise PreconditionViolated("bit must be 0 or 1")


def _class_images(ctx: FieldCtx) -> dict:
    """gamma -> I_gamma = sqrt(gamma)*B_1(1), as a q-bit y-mask, in class order;
    the elements of B_1(1) are listed once for all classes."""
    ref = sorted(b11(ctx))
    return {g: mask_of(scale_elems(ctx, r, ref)) for g, r in build_sqrt_system(ctx).items()}


def _total(images: dict, alive: int) -> int:
    return sum((image & alive).bit_count() for image in images.values())


def run_pqm(ctx: FieldCtx, v_seq, bits) -> tuple:
    """Replay a transcript against the eliminator sequence of q-bit masks.

    Returns (outcome, final state); the outcome is success exactly when at
    most one class survives.  Class gamma's final x-mask is
    (1/sqrt(gamma))*(I_gamma & alive).
    """
    root = build_sqrt_system(ctx)
    v_seq = tuple(v_seq)
    bits = tuple(bits)
    if len(bits) != len(v_seq):
        raise PreconditionViolated("transcript length must match the eliminators")
    images = _class_images(ctx)
    alive = mask_full(ctx.q)
    history = [_total(images, alive)]
    for v_mask, bit in zip(v_seq, bits):
        alive = _keep(alive, _eliminator(ctx, v_mask), bit)
        history.append(_total(images, alive))
    classes = {
        g: scale_mask(ctx, ctx.inv(root[g]), image & alive)
        for g, image in images.items()
    }
    state = PqmState(classes, len(v_seq), tuple(history))
    outcome = SUCCESS if len(state.nonempty()) <= 1 else FAIL
    return outcome, state


def mqm_to_pqm(scheme: LeakageScheme) -> tuple:
    """Translate a restricted-regime scheme into one eliminator mask per query.

    Validation is structural only (schedule inside the restricted set); a
    scheme with tampered sets still translates, it just loses the success
    guarantee.
    """
    ctx = scheme.ctx
    om = omega_set(ctx)
    if not all(a in om for a in scheme.schedule):
        raise InvalidScheme("translation needs a schedule inside the restricted set")
    build_sqrt_system(ctx)  # GF(q) without one is refused, even for an empty schedule
    return tuple(
        convert_eliminator(ctx, t_mask, a)
        for a, t_mask in zip(scheme.schedule, scheme.sets)
    )


def replay_transcript(scheme: LeakageScheme, message) -> tuple:
    """Run one encoder message end to end through the translated decoder.

    Each leaked bit tells the line decoder which side of the query set to
    discard: bit 0 keeps the lines that land inside T (discards the rest),
    bit 1 keeps the ones outside.  The pruning replay mirrors that choice
    side for side: it translates the discarded side of each query -- T when
    the bit is 1, the complement of T when it is 0 -- in one `mqm_to_pqm`
    call and removes each translated mask.  Removing an explicit mask is
    the bit-0 branch of the pruning round, so the replay feeds constant
    zero bits.

    Every discarded line's reference point lies inside the converted image
    of the discarded side, so once the line decoder has killed a whole
    product bucket the matching class is empty too: for a verified scheme
    at most the true product's class can outlive the replay.  That bound
    holds only in the empty sense on the GF(7), GF(8) and GF(9) schemes the
    suite and tests replay: every one of their replays ends with no class
    left, the true product's class included, while run_qm decodes the true
    product from the same transcripts.
    """
    ctx = scheme.ctx
    bits = transcript(scheme, message)
    discarded = [t if bit else mask_complement(t, ctx.q) for t, bit in zip(scheme.sets, bits)]
    v_seq = mqm_to_pqm(LeakageScheme(ctx, 2, 0, 1, scheme.servers, scheme.schedule, discarded))
    return run_pqm(ctx, v_seq, (0,) * len(v_seq))


class BoundReport(NamedTuple):
    real_bound: float
    integer_round_bound: int


def bandwidth_bound(ctx: FieldCtx) -> BoundReport:
    """Closed-form round floors; both forms are reported as stated, with no
    cross-assertion between them.  Degenerate small q are allowed and may
    come out non-positive (or -inf for q = 2)."""
    q = ctx.q
    if ctx.p > 2:
        real = 2 * math.log2(q - 1) - 3
        total = (q - 1) * (q + 1) // 4
        integer = (max(total, 1) - 1).bit_length() - 1
    else:
        real = 2 * math.log2(q - 2) - 4 if q > 2 else -math.inf
        total = (q - 2) * q // 4
        integer = (max(total, 1) - 1).bit_length() - 2
    return BoundReport(real, integer)


def _alice(ctx: FieldCtx, strategy: str, seed: int, v_seq: tuple, images: dict):
    """Per-game eliminator generator for the named strategy; it is called
    with the surviving y-mask and the round index and returns a q-bit mask.

    Greedy-halving's V depends on the surviving mask `alive` alone, so each
    game memoizes it per `alive`: a round that keeps every survivor (a
    stalled round) asks for the same V again and gets it from the memo."""
    if strategy == "greedy-halving":
        # weight of u = surviving points the bit-0 branch would drop: the
        # cluster size #{gamma : u in I_gamma} while u is alive, 0 after;
        # balance the two branch weights by largest-first assignment
        cluster = [0] * ctx.q
        for image in images.values():
            for u in mask_elems(image):
                cluster[u] += 1
        memo = {}

        def emit(alive: int, _round: int):
            if alive in memo:
                return memo[alive]
            weight = [c if alive >> u & 1 else 0 for u, c in enumerate(cluster)]
            side_v, side_rest = 0, 0
            v = 0
            for u in sorted(range(ctx.q), key=lambda u: (-weight[u], u)):
                if side_v <= side_rest:
                    v |= 1 << u
                    side_v += weight[u]
                elif u != 0:
                    side_rest += weight[u]
            memo[alive] = v
            return v

        return emit
    if strategy == "random-set":
        rng = random.Random(seed)

        def emit(_alive: int, _round: int):
            return mask_of(u for u in range(ctx.q) if rng.getrandbits(1))

        return emit
    if strategy == "replay":
        v_seq = tuple(v_seq)

        def emit(_alive: int, round_index: int):
            if round_index >= len(v_seq):
                return None  # sequence exhausted, game cannot continue
            return v_seq[round_index]

        return emit
    raise UnknownStrategy(f"no strategy named {strategy!r}")


def play_game(
    ctx: FieldCtx, strategy: str, seed: int = 0, max_rounds: int | None = None, v_seq=()
) -> dict:
    """Alice emits eliminators, the adversary always answers with the bit
    keeping the most survivors (ties: bit 0, logged).  The game advances one
    surviving y-mask: a round's branches are alive & ~V and alive & (V | {0}),
    and a branch holds sum over gamma of |I_gamma & branch| survivors.
    The cap is max_rounds, by default 4 * e * ceil(log2 p); v_seq, a
    sequence of q-bit masks, feeds the replay strategy.  Returns the full
    game record; rounds is math.inf when the cap or an exhausted replay
    sequence stops the game first."""
    images = _class_images(ctx)
    emit = _alice(ctx, strategy, seed, v_seq, images)
    alive = mask_full(ctx.q)
    history = [_total(images, alive)]
    ties = []
    played = 0
    if max_rounds is None:
        max_rounds = 4 * ctx.e * (ctx.p - 1).bit_length()  # 4 * e * ceil(log2 p)
    while True:
        left = [g for g, image in images.items() if image & alive]
        if len(left) <= 1 or played >= max_rounds:
            break
        v_mask = emit(alive, played)
        if v_mask is None:
            break
        _eliminator(ctx, v_mask)
        branches = [_keep(alive, v_mask, bit) for bit in (0, 1)]
        sizes = [_total(images, branch) for branch in branches]
        bit = 0 if sizes[0] >= sizes[1] else 1
        if sizes[0] == sizes[1]:
            ties.append(played)
        alive = branches[bit]
        history.append(sizes[bit])
        played += 1
    return {
        "q": ctx.q,
        "strategy": strategy,
        "seed": seed,
        "rounds": played if len(left) <= 1 else math.inf,
        "rounds_played": played,
        "survivors": history,
        "ties": ties,
        "classes_left": left,
    }
