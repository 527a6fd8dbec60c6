"""Bit-leakage schemes for coefficient-product recovery, and their search.

A scheme fixes a server set S, a query schedule alpha_1..alpha_t (points in
S, repeats allowed) and per-query sets T_1..T_t (q-bit masks).  Each query
leaks one bit: 0 when the evaluation lands in T, 1 otherwise.  The decoder
(run_qm) keeps, for every candidate product gamma, the lines of product
gamma consistent with every leaked bit; the scheme is valid for a product
domain when the transcript always pins down the product uniquely.

Validity is equivalently a separation condition -- any two messages whose
products differ inside the domain must produce different transcripts.  For
search, the masks queried at one point matter only through the partition of
F_q they induce (b masks make at most 2**b cells, and any partition into at
most 2**b cells is b masks), so minimal bandwidth is found by branch and
bound over per-point partitions with graph-coloring feasibility checks,
ordered canonically so witnesses are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import (
    BudgetExceeded,
    InvalidScheme,
    PreconditionViolated,
    RegimeMismatch,
)
from .galois import FieldCtx
from .residues import build_sqrt_system, omega_set
from .rscode import bucket, line_eval

QM = "qm"
MQM = "mqm"
APPENDIX = "appendix"

SUCCESS = "success"
INVALID_TRANSCRIPT = "invalid_transcript"
FAIL = "fail"


class LeakageScheme:
    """Servers, a query schedule and one leakage set per scheduled query, for
    recovering X_0 * X_1 from dimension-2 messages (k = 2, {i, j} = {0, 1},
    the only shape the decoders read).  Validated when built; equal and
    hashed by value."""

    def __init__(self, ctx: FieldCtx, k: int, i: int, j: int, servers, schedule, sets):
        self.ctx = ctx
        self.k = k
        self.i = i
        self.j = j
        self.servers = frozenset(servers)
        self.schedule = tuple(schedule)
        self.sets = tuple(sets)  # q-bit masks, one per schedule entry
        q = ctx.q
        if k != 2 or {i, j} != {0, 1}:
            raise InvalidScheme("need dimension k = 2 with targets {0, 1}")
        if len(self.schedule) != len(self.sets):
            raise InvalidScheme("schedule and sets must have equal length")
        if not all(0 <= a < q for a in self.servers):
            raise InvalidScheme("servers must be field elements")
        if not all(a in self.servers for a in self.schedule):
            raise InvalidScheme("every scheduled point must be a server")
        if not all(0 <= m < (1 << q) for m in self.sets):
            raise InvalidScheme("each leakage set must be a q-bit mask")

    def _key(self) -> tuple:
        return (self.ctx, self.k, self.i, self.j, self.servers, self.schedule, self.sets)

    def __eq__(self, other):
        return isinstance(other, LeakageScheme) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def t(self) -> int:
        return len(self.schedule)


class QmOutcome(NamedTuple):
    kind: str  # SUCCESS | INVALID_TRANSCRIPT | FAIL
    gamma: int | None = None


def leak_bit(t_mask: int, x: int) -> int:
    """0 when x lies in the set, 1 otherwise."""
    return 0 if (t_mask >> x) & 1 else 1


def transcript(scheme: LeakageScheme, message) -> tuple:
    coeffs = tuple(message)
    if len(coeffs) != scheme.k:
        raise PreconditionViolated(f"message must have {scheme.k} coefficients")
    ctx = scheme.ctx
    return tuple(
        leak_bit(t_mask, ctx.poly_eval(coeffs, a))
        for a, t_mask in zip(scheme.schedule, scheme.sets)
    )


def run_qm(scheme: LeakageScheme, bits, product_domain=None) -> QmOutcome:
    """Replay a transcript against every candidate product bucket.

    Keeps, per product gamma in the domain (default: the whole field), the
    lines consistent with each bit: bit 0 keeps lines evaluating into T, bit
    1 keeps the rest.  Exactly one surviving bucket is a success, none is an
    invalid transcript, more than one is a failure.
    """
    bits = tuple(bits)
    if len(bits) != scheme.t:
        raise PreconditionViolated("transcript length must match the schedule")
    ctx = scheme.ctx
    domain = tuple(ctx.elements) if product_domain is None else tuple(product_domain)
    survivors = {g: list(bucket(ctx, g)) for g in domain}
    for b, a, t_mask in zip(bits, scheme.schedule, scheme.sets):
        keep_inside = b == 0
        for g in domain:
            survivors[g] = [
                line
                for line in survivors[g]
                if (((t_mask >> line_eval(ctx, line, a)) & 1) == 1) == keep_inside
            ]
    alive = [g for g in domain if survivors[g]]
    if len(alive) == 1:
        return QmOutcome(SUCCESS, alive[0])
    if not alive:
        return QmOutcome(INVALID_TRANSCRIPT)
    return QmOutcome(FAIL)


def _domain_messages(ctx: FieldCtx, product_domain):
    """All dimension-2 messages whose coefficient product is in the domain."""
    dom = frozenset(product_domain)
    out = []
    for c0 in ctx.elements:
        for c1 in ctx.elements:
            g = ctx.mul(c0, c1)
            if g in dom:
                out.append(((c0, c1), g))
    return out


class Collision(NamedTuple):
    message_a: tuple
    message_b: tuple
    products: tuple
    transcript: tuple


def collision_witness(scheme: LeakageScheme, product_domain) -> Collision | None:
    """The first pair of in-domain messages with different products and the
    same transcript, in _domain_messages order, or None when there is none."""
    seen: dict[tuple, tuple] = {}
    for coeffs, g in _domain_messages(scheme.ctx, product_domain):
        bits = transcript(scheme, coeffs)
        prev, prev_g = seen.setdefault(bits, (coeffs, g))
        if prev_g != g:
            return Collision(prev, coeffs, (prev_g, g), bits)
    return None


def verify_scheme(scheme: LeakageScheme, product_domain) -> bool:
    """True iff the transcript determines the product over the given domain.

    Uses the separation criterion: messages with different in-domain
    products must never share a transcript.  That is equivalent to run_qm
    returning Success with the right product on every in-domain message.
    """
    return collision_witness(scheme, product_domain) is None


def mqm_check(scheme: LeakageScheme) -> bool:
    """Validity in the restricted regime: all queried points and the product
    domain live in the restricted set."""
    om = omega_set(scheme.ctx)
    if not all(a in om for a in scheme.schedule):
        return False
    return verify_scheme(scheme, om.elements)


def convert_eliminator(ctx: FieldCtx, t_mask: int, alpha: int) -> frozenset:
    """Translate a leakage set at alpha into an eliminator V at the reference
    point: V collects sqrt(gamma)*(m + 1/m) over every product-gamma line
    whose evaluation at alpha lands in the set.

    By the relabel identity this equals (1/sqrt(alpha)) times the evaluations
    at alpha of the relabelled qualifying lines, so a line h with
    h(alpha) in T always has its reference value m + 1/m inside
    (1/sqrt(gamma)) * V.
    """
    root = build_sqrt_system(ctx)
    if alpha not in root:
        raise RegimeMismatch(f"{alpha} outside the restricted set")
    out = set()
    for r in root.values():
        for m in ctx.units:
            value_at_alpha = ctx.mul(r, ctx.add(ctx.div(alpha, m), m))
            if (t_mask >> value_at_alpha) & 1:
                out.add(ctx.mul(r, ctx.add(m, ctx.inv(m))))
    return frozenset(out)


_SEARCH_Q_LIMIT = 11


def _mode_domain(ctx: FieldCtx, mode: str):
    if mode == QM:
        return tuple(ctx.elements)
    if mode == APPENDIX:
        return tuple(ctx.units)
    if mode == MQM:
        return omega_set(ctx).elements
    raise PreconditionViolated(f"unknown search mode {mode!r}")


@lru_cache(maxsize=None)
def _separation_problem(ctx: FieldCtx, mode: str, servers: frozenset):
    """Split demands of the cross-bucket message pairs, deduplicated.

    Each pair demands that the evaluations at some queried point end up in
    different partition cells; its options are the (point, value, value)
    edges where the two evaluations differ.  Pairs sharing an option
    signature are one constraint.  Constraints are sorted by (size,
    options): a constraint containing another's options sorts after it and
    is split whenever that one is, so the search never branches on it.
    Returns (points in canonical order, constraints, blocked) where blocked
    is the first pair, in _domain_messages order, with no options at all:
    ((c0, c1), g) twice, or None when every pair has one.
    """
    domain = _mode_domain(ctx, mode)
    messages = _domain_messages(ctx, domain)
    alphas = sorted(servers)
    if mode == MQM:
        om = omega_set(ctx)
        alphas = [a for a in alphas if a in om]
    evals = [
        tuple(ctx.poly_eval(coeffs, a) for coeffs, _ in messages) for a in alphas
    ]
    blocked = None
    sigs: set[tuple] = set()
    for x in range(len(messages)):
        gx = messages[x][1]
        for y in range(x + 1, len(messages)):
            if gx == messages[y][1]:
                continue
            options = []
            for ai in range(len(alphas)):
                u, v = evals[ai][x], evals[ai][y]
                if u != v:
                    options.append((ai, u, v) if u < v else (ai, v, u))
            if options:
                sigs.add(tuple(options))
            elif blocked is None:
                blocked = (messages[x], messages[y])
    constraints = tuple(sorted(sigs, key=lambda s: (len(s), s)))
    return tuple(alphas), constraints, blocked


def _color_graph(q: int, adj, colors: int):
    """First proper coloring (smallest color per vertex in encoding order)
    of the graph given by adjacency bitmasks, or None when colors are few.

    Vertex v tries only colors up to one above the largest its predecessors
    use: swapping an unused color into a coloring gives an earlier one, so
    the first coloring has this form and the skipped ones change nothing."""
    assign = [0] * q

    def place(v: int, used: int) -> bool:
        if v == q:
            return True
        banned = 0
        m = adj[v] & ((1 << v) - 1)
        while m:
            low = m & -m
            banned |= 1 << assign[low.bit_length() - 1]
            m ^= low
        for c in range(min(colors, used + 1)):
            if not (banned >> c) & 1:
                assign[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
        return False

    return tuple(assign) if place(0, 0) else None


def _join_sides(lab: list, u: int, v: int) -> list:
    """Side labels after adding edge uv to a bipartite graph.

    lab[w] is 2 * component + side, and lab[u] != lab[v] (uv keeps the graph
    bipartite).  When uv joins two components, v's component moves into u's
    with its sides flipped as needed to put v opposite u; returns a new list
    then, and lab itself when uv lies inside one component.
    """
    cu, cv = lab[u] >> 1, lab[v] >> 1
    if cu == cv:
        return lab
    flip = (lab[u] ^ lab[v] ^ 1) & 1
    return [2 * cu + ((x ^ flip) & 1) if x >> 1 == cv else x for x in lab]


def search_min_bandwidth(
    ctx: FieldCtx,
    mode: str,
    servers,
    t_max: int | None = None,
    budget: int = 10**6,
) -> Optional[tuple]:
    """Minimum number of leaked bits admitting a valid scheme, with witness.

    Spends b_alpha bits per queried point (sum ascending) and asks whether
    every cross-bucket pair can be split somewhere: committing a pair to a
    point adds a must-split edge there, and a point with b bits can honor
    its edges iff they are 2**b-colorable.  Returns (t, scheme) or None when
    no scheme exists within t_max, or at all because a pair agrees at every
    server (_separation_problem's blocked pair); raises BudgetExceeded after
    `budget` search nodes.  Beside the committed edges it keeps, and restores on
    backtrack, each point's max degree, probe verdicts and side labels
    (2 * component + side, see _join_sides) and each constraint's count of
    committed options, so a node neither rescans degrees nor re-tests
    splits.  A graph is 2-colorable iff it has no odd cycle, so a 1-bit
    point answers its probes from the labels instead of a coloring.

    Each node branches on the first open constraint with the fewest viable
    options.  The scan stops counting a constraint's options once the count
    reaches the fewest so far, since it can then no longer win, and builds
    the option list only for the winner; the tree is the one a full count
    gives.  A budget hit while trying t bits raises BudgetExceeded carrying
    t: every smaller t was refuted, so no scheme has fewer than t bits.
    """
    if ctx.q > _SEARCH_Q_LIMIT:
        raise PreconditionViolated(f"exhaustive search capped at q <= {_SEARCH_Q_LIMIT}")
    servers = frozenset(servers)
    if not all(0 <= a < ctx.q for a in servers):
        raise PreconditionViolated("servers must be field elements")
    if t_max is None:
        t_max = 2 * ctx.q
    q = ctx.q
    domain = _mode_domain(ctx, mode)
    alphas, constraints, blocked = _separation_problem(ctx, mode, servers)
    if blocked:
        return None  # some pair no query separates: no bandwidth suffices

    def finish(bits, colorings) -> tuple:
        picked = []
        for ai, a in enumerate(alphas):
            for w in range(bits[ai]):
                m = 0
                for v in range(q):
                    if (colorings[ai][v] >> w) & 1:
                        m |= 1 << v
                picked.append((a, m))
        picked.sort()
        scheme = LeakageScheme(
            ctx,
            2,
            0,
            1,
            servers,
            tuple(a for a, _ in picked),
            tuple(m for _, m in picked),
        )
        # no mqm_check: _separation_problem already kept only points in Omega
        assert verify_scheme(scheme, domain)
        return len(picked), scheme

    if not constraints:
        return finish((0,) * len(alphas), ((0,) * q,) * len(alphas))

    nodes = 0
    adj = [[0] * q for _ in alphas]
    top = [0] * len(alphas)  # max degree of the committed graph at each point
    verdicts: list[dict] = [{} for _ in alphas]  # option -> colorable, per point
    lab: list[list] = []  # side labels per point, read at 1-bit points
    split = [0] * len(constraints)  # committed options per constraint
    holders: dict[tuple, list[int]] = {}
    for ci, sig in enumerate(constraints):
        for opt in sig:
            holders.setdefault(opt, []).append(ci)
    color_cache: dict[tuple, bool] = {}  # verdicts for 4 or more colors only

    def colorable(ai: int, u: int, v: int, colors: int) -> bool:
        """Whether the committed graph at ai plus edge uv is colors-colorable.

        With 2 colors the committed graph is bipartite, and uv keeps it so
        unless u and v sit on the same side of one component."""
        if colors == 2:
            return lab[ai][u] != lab[ai][v]
        if colors >= q:
            return True
        row = adj[ai]
        if max(top[ai], row[u].bit_count() + 1, row[v].bit_count() + 1) < colors:
            return True  # greedy coloring needs at most max degree + 1
        row[u] |= 1 << v
        row[v] |= 1 << u
        key = (ai, colors, tuple(row))
        got = color_cache.get(key)
        if got is None:
            got = _color_graph(q, row, colors) is not None
            color_cache[key] = got
        row[u] ^= 1 << v
        row[v] ^= 1 << u
        return got

    def solve(caps) -> bool:
        """Commit each constraint to a split point, backtracking on color
        budgets; on success the chosen edges are left in `adj`."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(budget, t)  # t: the bit count the loop below tries
        best, fewest = None, len(alphas) * q * q  # more options than any constraint has
        for ci, sig in enumerate(constraints):
            if split[ci]:
                continue  # already split
            count = 0
            for opt in sig:
                ai, u, v = opt
                if caps[ai] == 1:
                    continue
                seen = verdicts[ai]
                ok = seen.get(opt)
                if ok is None:
                    ok = seen[opt] = colorable(ai, u, v, caps[ai])
                if ok:
                    count += 1
                    if count == fewest:
                        break  # cannot beat the best; ties go to the lower index
            if not count:
                return False
            if count < fewest:
                best, fewest = sig, count
                if count == 1:
                    break
        if best is None:
            return True
        # the winner's count was never cut off, so all its verdicts are cached
        branch = [opt for opt in best if caps[opt[0]] != 1 and verdicts[opt[0]][opt]]
        for opt in branch:
            ai, u, v = opt
            row = adj[ai]
            saved = top[ai], verdicts[ai], lab[ai]
            row[u] |= 1 << v
            row[v] |= 1 << u
            top[ai] = max(saved[0], row[u].bit_count(), row[v].bit_count())
            verdicts[ai] = {}
            if caps[ai] == 2:
                lab[ai] = _join_sides(lab[ai], u, v)
            for ci in holders[opt]:
                split[ci] += 1
            if solve(caps):
                return True
            for ci in holders[opt]:
                split[ci] -= 1
            row[u] ^= 1 << v
            row[v] ^= 1 << u
            top[ai], verdicts[ai], lab[ai] = saved
        return False

    def compositions(total: int, parts: int, cap: int):
        if parts == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap) + 1):
            for rest in compositions(total - first, parts - 1, cap):
                yield (first,) + rest

    cap = max(1, (q - 1).bit_length())  # a partition into singletons splits all
    for t in range(t_max + 1):
        for bits in compositions(t, len(alphas), cap):
            for row in adj:
                for v in range(q):
                    row[v] = 0
            top[:] = [0] * len(alphas)
            verdicts[:] = [{} for _ in alphas]  # verdicts depend on the caps
            lab[:] = [list(range(0, 2 * q, 2)) for _ in alphas]
            split[:] = [0] * len(constraints)
            caps = tuple(1 << b for b in bits)
            if solve(caps):
                colorings = [
                    _color_graph(q, adj[ai], caps[ai]) for ai in range(len(alphas))
                ]
                return finish(bits, colorings)
    return None
