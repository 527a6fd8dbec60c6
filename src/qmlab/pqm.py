"""Pruning decoder on reference-point classes, round bounds, and the query game.

The decoder keeps one survivor class per restricted product gamma, all
starting from the reference image B_1(1).  A round publishes an eliminator
set V and a bit: bit 0 removes the rescaled eliminator (1/sqrt(gamma))*V
from every class, bit 1 removes the rescaled complement of V in the units.
Success means at most one class is left nonempty.

A round is one pass over the survivors that yields both branches: point x
of class gamma lies in the rescaled V iff sqrt(gamma)*x is in V, and in the
rescaled units-complement iff sqrt(gamma)*x is a unit outside V.  Its cost
follows the surviving points, not q times the number of classes.

A bit-leakage scheme in the restricted regime translates into such an
eliminator sequence (one per query), and the adversarial game plays the
same pruning loop with the bits chosen by an adversary who always keeps the
larger side, which is what forces the round floor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import InvalidScheme, PreconditionViolated, UnknownStrategy
from .galois import FieldCtx, mask_complement, mask_elems, mask_of
from .qm import FAIL, SUCCESS, LeakageScheme, convert_eliminator, transcript
from .residues import SqrtSystem, b11, build_sqrt_system, omega_set

STRATEGIES = ("greedy-halving", "random-set", "replay")


@dataclass
class PqmState:
    classes: dict  # gamma -> q-bit mask of surviving reference values
    rounds: int = 0
    history: tuple = ()  # total survivors after each applied round

    def nonempty(self) -> list:
        return [g for g, m in sorted(self.classes.items()) if m]

    def total(self) -> int:
        return sum(m.bit_count() for m in self.classes.values())


def initial_state(ctx: FieldCtx) -> PqmState:
    mask0 = mask_of(b11(ctx))
    return PqmState({g: mask0 for g in omega_set(ctx).elements})


def _eliminator(ctx: FieldCtx, v_set) -> frozenset:
    v_set = frozenset(v_set)
    if not all(0 <= x < ctx.q for x in v_set):
        raise PreconditionViolated("eliminator entries must be field elements")
    return v_set


def _branches(ctx: FieldCtx, sqrt_system: SqrtSystem, classes: dict, v_set) -> tuple:
    """The classes after bit 0 and after bit 1, from one walk over the
    survivors: y = sqrt(gamma)*x in V drops x on bit 0, a unit y outside V
    drops it on bit 1, and y = 0 (x = 0 outside V) stays on both."""
    mul = ctx.mul
    kept0, kept1 = {}, {}
    for g, mask in classes.items():
        root = sqrt_system.sqrt(g)
        drop0 = drop1 = 0
        for x in mask_elems(mask):
            y = mul(root, x)
            if y in v_set:
                drop0 |= 1 << x
            elif y != 0:
                drop1 |= 1 << x
        kept0[g] = mask & ~drop0
        kept1[g] = mask & ~drop1
        assert (kept0[g] | kept1[g]) & ~mask == 0  # shrink only
    return kept0, kept1


def _advance(state: PqmState, classes: dict) -> PqmState:
    out = PqmState(classes, state.rounds + 1)
    out.history = state.history + (out.total(),)
    return out


def pqm_round(
    ctx: FieldCtx, sqrt_system: SqrtSystem, state: PqmState, v_set, bit: int
) -> PqmState:
    """One pruning round: drop the rescaled V side (bit 0) or the rescaled
    units-complement of V (bit 1, so 0 is never dropped) from every class."""
    v_set = _eliminator(ctx, v_set)
    if bit not in (0, 1):
        raise PreconditionViolated("bit must be 0 or 1")
    return _advance(state, _branches(ctx, sqrt_system, state.classes, v_set)[bit])


def run_pqm(ctx: FieldCtx, sqrt_system: SqrtSystem, v_seq, bits) -> tuple:
    """Replay a transcript against the eliminator sequence.

    Returns (outcome, final state); the outcome is success exactly when at
    most one class survives.
    """
    v_seq = tuple(v_seq)
    bits = tuple(bits)
    if len(bits) != len(v_seq):
        raise PreconditionViolated("transcript length must match the eliminators")
    state = initial_state(ctx)
    state.history = (state.total(),)
    for v_set, bit in zip(v_seq, bits):
        state = pqm_round(ctx, sqrt_system, state, v_set, bit)
    outcome = SUCCESS if len(state.nonempty()) <= 1 else FAIL
    return outcome, state


def mqm_to_pqm(scheme: LeakageScheme) -> tuple:
    """Translate a restricted-regime scheme into one eliminator per query.

    Validation is structural only (dimension 2, targets {0, 1}, schedule
    inside the restricted set); a scheme with tampered sets still
    translates, it just loses the success guarantee.
    """
    if scheme.k != 2 or {scheme.i, scheme.j} != {0, 1}:
        raise InvalidScheme("translation needs dimension 2 with targets {0, 1}")
    ctx = scheme.ctx
    om = omega_set(ctx)
    if not all(a in om for a in scheme.schedule):
        raise InvalidScheme("translation needs a schedule inside the restricted set")
    ss = build_sqrt_system(ctx)
    return tuple(
        convert_eliminator(ctx, ss, t_mask, a)
        for a, t_mask in zip(scheme.schedule, scheme.sets)
    )


def replay_transcript(scheme: LeakageScheme, message) -> tuple:
    """Run one encoder message end to end through the translated decoder.

    Each leaked bit tells the line decoder which side of the query set to
    discard: bit 0 keeps the lines that land inside T (discards the rest),
    bit 1 keeps the ones outside.  The pruning replay mirrors that choice
    set-for-set, removing the converted eliminator of whichever side was
    discarded -- the eliminator of T when the in-T lines go, the eliminator
    of the complement of T when the out-of-T lines go.  Removing an explicit
    set is the bit-0 branch of the pruning round, so the replay feeds
    constant zero bits.

    Every discarded line's reference point lies inside the converted image
    of the discarded side, so once the line decoder has killed a whole
    product bucket the matching class is empty too: for a verified scheme
    at most the true product's class can outlive the replay.
    """
    ctx = scheme.ctx
    translated = mqm_to_pqm(scheme)
    ss = build_sqrt_system(ctx)
    v_seq = []
    for z, bit in enumerate(transcript(scheme, message)):
        if bit == 1:
            v_seq.append(translated[z])
        else:
            flipped = mask_complement(scheme.sets[z], ctx.q)
            v_seq.append(convert_eliminator(ctx, ss, flipped, scheme.schedule[z]))
    return run_pqm(ctx, ss, tuple(v_seq), (0,) * len(v_seq))


def survivor_size_check(ctx: FieldCtx, state: PqmState) -> bool:
    """Terminal list-size check: the unique surviving class holds at most
    2 points (odd characteristic) or 3 (characteristic 2)."""
    alive = state.nonempty()
    if len(alive) != 1:
        raise PreconditionViolated(f"need exactly one nonempty class, got {len(alive)}")
    size = state.classes[alive[0]].bit_count()
    return size <= (2 if ctx.p > 2 else 3)


@dataclass
class BoundReport:
    q: int
    p: int
    e: int
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
    return BoundReport(q, ctx.p, ctx.e, real, integer)


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


@dataclass
class GameConfig:
    ctx: FieldCtx
    alice_strategy: str
    seed: int = 0
    max_rounds: int | None = None
    v_seq: tuple = ()  # consumed by the replay strategy

    def rounds_cap(self) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return 4 * self.ctx.e * _ceil_log2(self.ctx.p)


def _alice(config: GameConfig, sqrt_system: SqrtSystem):
    """Per-game eliminator generator for the named strategy."""
    ctx = config.ctx
    if config.alice_strategy == "greedy-halving":

        def emit(state: PqmState, _round: int):
            # weight of u = surviving points the bit-0 branch would drop,
            # i.e. survivors x of a class gamma with sqrt(gamma)*x = u;
            # balance the two branch weights by largest-first assignment
            weight = [0] * ctx.q
            for g, mask in state.classes.items():
                root = sqrt_system.sqrt(g)
                for x in mask_elems(mask):
                    weight[ctx.mul(root, x)] += 1
            side_v, side_rest = 0, 0
            v = set()
            for u in sorted(range(ctx.q), key=lambda u: (-weight[u], u)):
                if side_v <= side_rest:
                    v.add(u)
                    side_v += weight[u]
                elif u != 0:
                    side_rest += weight[u]
            return frozenset(v)

        return emit
    if config.alice_strategy == "random-set":
        rng = random.Random(config.seed)

        def emit(_state: PqmState, _round: int):
            return frozenset(u for u in range(ctx.q) if rng.getrandbits(1))

        return emit
    if config.alice_strategy == "replay":
        v_seq = tuple(config.v_seq)

        def emit(_state: PqmState, round_index: int):
            if round_index >= len(v_seq):
                return None  # sequence exhausted, game cannot continue
            return v_seq[round_index]

        return emit
    raise UnknownStrategy(f"no strategy named {config.alice_strategy!r}")


def play_game(config: GameConfig) -> dict:
    """Alice emits eliminators, the adversary always answers with the bit
    keeping the most survivors (ties: bit 0, logged).  Each round is one
    pass over the survivors that sizes both branches and advances to the
    chosen one.  Returns the full game record; rounds is math.inf when the
    cap or an exhausted replay sequence stops the game first."""
    ctx = config.ctx
    ss = build_sqrt_system(ctx)
    emit = _alice(config, ss)
    state = initial_state(ctx)
    state.history = (state.total(),)
    ties = []
    played = 0
    while len(state.nonempty()) > 1 and played < config.rounds_cap():
        v_set = emit(state, played)
        if v_set is None:
            break
        branches = _branches(ctx, ss, state.classes, _eliminator(ctx, v_set))
        sizes = [sum(m.bit_count() for m in b.values()) for b in branches]
        bit = 0 if sizes[0] >= sizes[1] else 1
        if sizes[0] == sizes[1]:
            ties.append(played)
        state = _advance(state, branches[bit])
        played += 1
    finished = len(state.nonempty()) <= 1
    return {
        "q": ctx.q,
        "strategy": config.alice_strategy,
        "seed": config.seed,
        "rounds": played if finished else math.inf,
        "rounds_played": played,
        "survivors": list(state.history),
        "ties": ties,
        "classes_left": state.nonempty(),
    }


def adversarial_game(config: GameConfig):
    """Rounds the adversary can force for the configured Alice strategy."""
    return play_game(config)["rounds"]
