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

The search visits each symmetry class once.  A message map that carries the
mode's product domain onto itself sends the evaluation at a server alpha to
the evaluation at an image point through a bijection of values, so it moves
a valid scheme to a valid scheme on the image points, with the same number
of bits at each image.  Three maps generate the group, each admitted only
when it keeps the product domain:
(c0, c1) -> (lam*c0, nu*c1) sends alpha to lam*alpha/nu and multiplies the
products by lam*nu (any lam, nu for qm and appendix; lam*nu a square for
odd-p mqm, where Omega is the squares; only lam*nu = 1 over binary Omega);
the swap (c0, c1) -> (c1, c0) sends alpha to 1/alpha, so it applies only
when server 0 is not used; and Frobenius sends alpha to alpha^p, which fixes
Omega only for odd p.  A cap tuple that a map carries onto a refuted one, its
used servers landing on servers, is refuted; within one tuple, so is every
edge that a map fixing the tuple carries onto the edge of a failed root
branch.  The search skips exactly these, which hold no solution, and
branches in the same order as without them, so its first solution, and so
every witness and every t, is the same.
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
from .galois import FieldCtx, mask_of
from .residues import build_sqrt_system, omega_set
from .rscode import bucket

QM = "qm"
MQM = "mqm"
APPENDIX = "appendix"

SUCCESS = "success"
INVALID_TRANSCRIPT = "invalid_transcript"
FAIL = "fail"


class _Scheme(NamedTuple):
    ctx: FieldCtx
    servers: frozenset
    schedule: tuple
    sets: tuple  # q-bit masks, one per schedule entry


class LeakageScheme(_Scheme):
    """Servers, a query schedule and one leakage set per scheduled query, for
    recovering X_0 * X_1 from dimension-2 messages (c0, c1), the only target
    the decoders read.  Validated when built; equal and hashed as the tuple
    (ctx, frozenset servers, tuple schedule, tuple sets)."""

    __slots__ = ()

    def __new__(cls, ctx: FieldCtx, servers, schedule, sets):
        given = tuple(servers)  # servers[i] in an error indexes them as given
        self = super().__new__(cls, ctx, frozenset(given), tuple(schedule), tuple(sets))
        q = ctx.q
        if len(self.schedule) != len(self.sets):
            raise InvalidScheme("schedule and sets must have equal length")
        for idx, a in enumerate(given):
            if not 0 <= a < q:
                raise InvalidScheme(f"{a} is not an element of GF({q})", f"servers[{idx}]")
        for idx, a in enumerate(self.schedule):
            if a not in self.servers:
                raise InvalidScheme(f"{a} is not a server", f"schedule[{idx}]")
        if not all(0 <= m < (1 << q) for m in self.sets):
            raise InvalidScheme("each leakage set must be a q-bit mask")
        return self

    @classmethod
    def _make(cls, iterable):
        """Built through __new__, so `_replace` is checked as well."""
        return cls(*iterable)

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
    if len(coeffs) != 2:
        raise PreconditionViolated("message must have 2 coefficients")
    ctx = scheme.ctx
    return tuple(
        leak_bit(t_mask, ctx.poly_eval(coeffs, a))
        for a, t_mask in zip(scheme.schedule, scheme.sets)
    )


def run_qm(scheme: LeakageScheme, bits, product_domain=None) -> QmOutcome:
    """Replay a transcript against every candidate product bucket.

    Keeps, per product gamma in the domain (default: the whole field), the
    lines (b, m) consistent with each bit: bit 0 keeps lines evaluating into
    T, bit 1 keeps the rest.  Exactly one surviving bucket is a success,
    none is an invalid transcript, more than one is a failure.
    """
    bits = tuple(bits)
    if len(bits) != scheme.t:
        raise PreconditionViolated("transcript length must match the schedule")
    ctx = scheme.ctx
    domain = tuple(ctx.elements) if product_domain is None else tuple(product_domain)
    survivors = {g: list(bucket(ctx, g)) for g in domain}
    for b, a, t_mask in zip(bits, scheme.schedule, scheme.sets):
        for g in domain:
            survivors[g] = [
                line
                for line in survivors[g]
                if leak_bit(t_mask, ctx.poly_eval(line, a)) == b
            ]
    alive = [g for g in domain if survivors[g]]
    if len(alive) == 1:
        return QmOutcome(SUCCESS, alive[0])
    if not alive:
        return QmOutcome(INVALID_TRANSCRIPT)
    return QmOutcome(FAIL)


def _domain_messages(ctx: FieldCtx, product_domain):
    """All dimension-2 messages whose coefficient product is in the domain,
    as ((c0, c1), product) in (c0, c1) order: the lines of each domain
    product's `bucket`, so the enumeration shares its q <= 1024 cap."""
    return sorted((line, g) for g in set(product_domain) for line in bucket(ctx, g))


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
    return verify_scheme(scheme, om)


def convert_eliminator(ctx: FieldCtx, t_mask: int, alpha: int) -> int:
    """Translate a leakage set at alpha into an eliminator V at the reference
    point, a q-bit mask: V collects sqrt(gamma)*(m + 1/m) over every
    product-gamma line whose evaluation at alpha lands in the set.

    By the relabel identity this equals (1/sqrt(alpha)) times the evaluations
    at alpha of the relabelled qualifying lines, so a line h with
    h(alpha) in T always has its reference value m + 1/m inside
    (1/sqrt(gamma)) * V.
    """
    root = build_sqrt_system(ctx)
    if alpha not in root:
        raise RegimeMismatch(f"{alpha} outside the restricted set")
    out = 0
    for r in root.values():
        for m in ctx.units:
            value_at_alpha = ctx.mul(r, ctx.add(ctx.div(alpha, m), m))
            if (t_mask >> value_at_alpha) & 1:
                out |= 1 << ctx.mul(r, ctx.add(m, ctx.inv(m)))
    return out


_SEARCH_Q_LIMIT = 11


def _mode_domain(ctx: FieldCtx, mode: str):
    if mode == QM:
        return tuple(ctx.elements)
    if mode == APPENDIX:
        return tuple(ctx.units)
    if mode == MQM:
        return omega_set(ctx)
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


class _MessageMap(NamedTuple):
    """(c0, c1) -> (lam * d0, nu * d1), where (d0, d1) is (c0, c1) raised to
    the power p**frob, then swapped when `swap` is set."""

    lam: int
    nu: int
    swap: bool
    frob: int


def _message_maps(ctx: FieldCtx, mode: str) -> tuple:
    """The group generated by the scalings, the swap and Frobenius that carry
    the mode's product domain onto itself.

    The image of a message with product g has product lam*nu * g**(p**frob),
    so a scaling is admitted when lam*nu times the domain is the domain and
    Frobenius when the domain's p-th powers are the domain; the swap keeps
    every product.  Compositions of admitted maps keep the domain too."""
    domain = frozenset(_mode_domain(ctx, mode))

    def keeps(f) -> bool:
        return frozenset(map(f, domain)) == domain

    products = [s for s in ctx.units if keeps(lambda g: ctx.mul(s, g))]
    frobs = range(ctx.e) if keeps(lambda g: ctx.pow(g, ctx.p)) else range(1)
    return tuple(
        _MessageMap(lam, ctx.div(s, lam), swap, f)
        for f in frobs
        for swap in (False, True)
        for s in products
        for lam in ctx.units
    )


def _point_action(ctx: FieldCtx, g: _MessageMap, alphas) -> tuple:
    """(perm, values) with g(c) evaluated at alphas[perm[ai]] equal to
    values[ai][c evaluated at alphas[ai]] for every message c; perm[ai] and
    values[ai] are None when g sends alphas[ai] outside alphas, or alphas[ai]
    is 0 and g swaps (the swap sends alpha to 1/alpha).

    With d = (c0, c1)**(p**frob) and a' = a**(p**frob), d evaluates at a' to
    c(a)**(p**frob); the swap evaluates at 1/a' to that times 1/a'; and the
    scaling evaluates at lam*b/nu to lam times the value at b."""
    index = {a: ai for ai, a in enumerate(alphas)}
    power = ctx.p**g.frob
    powers = ctx.elements if power == 1 else [ctx.pow(u, power) for u in ctx.elements]
    kappa = ctx.div(g.lam, g.nu)
    perm, values = [], []
    for a in alphas:
        b, scale = powers[a], g.lam
        if g.swap and b:
            b = ctx.inv(b)
            scale = ctx.mul(scale, b)
        image = None if g.swap and not b else index.get(ctx.mul(kappa, b))
        perm.append(image)
        values.append(None if image is None else tuple(ctx.mul(scale, u) for u in powers))
    return tuple(perm), tuple(values)


@lru_cache(maxsize=None)
def _symmetries(ctx: FieldCtx, mode: str, alphas: tuple) -> tuple:
    """The point actions of _message_maps on alphas, grouped by point map:
    (perm, value maps) pairs, each value map listed once."""
    grouped: dict = {}
    for g in _message_maps(ctx, mode):
        perm, values = _point_action(ctx, g, alphas)
        grouped.setdefault(perm, {})[values] = None
    return tuple((perm, tuple(tables)) for perm, tables in grouped.items())


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


def _recolor_end(coloring: tuple, adj, u: int, v: int, colors: int) -> Optional[tuple]:
    """A coloring of the graph plus edge uv made from one of the graph that
    gives u and v the same color, by moving u or v to a color none of its
    neighbors uses; None when both ends see every other color."""
    for w in (u, v):
        used = 1 << coloring[w]
        m = adj[w]
        while m:
            low = m & -m
            used |= 1 << coloring[low.bit_length() - 1]
            m ^= low
        free = ~used & ((1 << colors) - 1)
        if free:
            moved = list(coloring)
            moved[w] = (free & -free).bit_length() - 1
            return tuple(moved)
    return None


def _pick_constraint(open_: int, viable) -> int | None:
    """The constraint a search node branches on, or None when none is open.

    open_ has a bit per constraint not split yet, and viable[ai] a bit per
    constraint with a colorable option at point ai; a constraint holds at
    most one option per point, so its count of viable options is the number
    of masks with its bit set.  The first open constraint, in index order,
    with at most one option decides (none refutes the node); otherwise the
    lowest-index constraint with the fewest options wins.  The counts are
    summed bit-sliced: planes[k] holds bit k of every constraint's count."""
    if not open_:
        return None
    planes: list[int] = []
    for m in viable:
        carry = m & open_
        for k, plane in enumerate(planes):
            if not carry:
                break
            planes[k] = plane ^ carry
            carry &= plane
        if carry:
            planes.append(carry)
    several = 0
    for plane in planes[1:]:
        several |= plane
    pool = open_ & ~several  # at most one option
    if not pool:
        pool = open_
        for plane in reversed(planes):
            if pool & ~plane:
                pool &= ~plane  # the fewest options have this count bit clear
    return (pool & -pool).bit_length() - 1


def search_min_bandwidth(
    ctx: FieldCtx,
    mode: str,
    servers,
    t_max: int | None = None,
    budget: int = 10**6,
    counters: dict | None = None,
) -> Optional[tuple]:
    """Minimum number of leaked bits admitting a valid scheme, with witness.

    Spends b_alpha bits per queried point (sum ascending) and asks whether
    every cross-bucket pair can be split somewhere: committing a pair to a
    point adds a must-split edge there, and a point with b bits can honor
    its edges iff they are 2**b-colorable.  Returns (t, scheme) or None when
    no scheme exists within t_max, or at all because a pair agrees at every
    server (_separation_problem's blocked pair); raises BudgetExceeded after
    `budget` search nodes.  A budget hit while trying t bits raises
    BudgetExceeded carrying t: every smaller t was refuted, so no scheme has
    fewer than t bits.

    Constraints are the bits of int masks: a node gets its open (not yet
    split) constraints as one mask, each point keeps the mask of constraints
    whose option there is still colorable, and _pick_constraint reads the
    constraint to branch on from these.  Adding an edge never makes a graph
    easier to color, so a commit re-tests only the options still viable at
    the point that got the edge.  A graph is 2-colorable iff it has no odd
    cycle, so a 1-bit point tests from side labels (2 * component + side,
    see _join_sides): an option there is colorable iff its ends have
    different labels, and a commit that joins two components rescans the
    point's options.  With 4 or more colors a probe passes on a certificate:
    a coloring of the committed graph, found by an earlier probe, that
    colors the two ends apart or does so once one end moves to a color its
    neighbors leave free (_recolor_end).  Only then is the graph colored.
    Labels, viable masks and certificates are restored on backtrack.

    Each symmetry class is searched once (see the module docstring).  A cap
    tuple is skipped when a map that sends its used points to queried points
    carries it onto a tuple already refuted at this t.  Within a tuple, a
    root branch (point, u, v) that fails proves that no solution splits u, v
    there, so every image of that edge under the maps fixing the tuple's
    caps is dead, and a later branch committing a dead edge is skipped.  The
    value scalings (c0, c1) -> (lam*c0, lam*c1) fix every point, so they act
    whenever the mode admits them.  The skips never touch the viable masks,
    so the branching order and the first solution are those of the
    unreduced search.  The budget counts only the nodes expanded: a budget
    hit still proves every smaller t refuted, and a given budget now reaches
    further.

    When `counters` is a dict, it receives the work done: "nodes" expanded,
    cap "tuples" searched, tuples "skipped" by symmetry and "dead_edges"
    learned, summed over the tuples.
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
    work = {} if counters is None else counters
    work.update(nodes=0, tuples=0, skipped=0, dead_edges=0)
    if blocked:
        return None  # some pair no query separates: no bandwidth suffices

    def finish(bits, colorings) -> tuple:
        picked = []
        for ai, a in enumerate(alphas):
            for w in range(bits[ai]):
                picked.append((a, mask_of(v for v in range(q) if colorings[ai][v] >> w & 1)))
        picked.sort()
        scheme = LeakageScheme(ctx, servers, [a for a, _ in picked], [m for _, m in picked])
        # no mqm_check: _separation_problem already kept only points in Omega
        assert verify_scheme(scheme, domain)
        return len(picked), scheme

    if not constraints:
        return finish((0,) * len(alphas), ((0,) * q,) * len(alphas))

    nodes = 0
    adj = [[0] * q for _ in alphas]
    lab: list[list] = []  # side labels per point, read at 1-bit points
    certs: list[list] = []  # colorings of the committed graph per point, 4+ colors
    viable = [0] * len(alphas)  # constraints with a colorable option, per point
    holders: list[dict] = [{} for _ in alphas]  # (u, v) -> its constraints, per point
    for ci, sig in enumerate(constraints):
        for ai, u, v in sig:
            holders[ai][u, v] = holders[ai].get((u, v), 0) | 1 << ci
    everyone = (1 << len(constraints)) - 1
    reach = [0] * len(alphas)  # constraints with an option at each point
    for ai, opts in enumerate(holders):
        for held in opts.values():
            reach[ai] |= held
    color_cache: dict[tuple, Optional[tuple]] = {}  # first colorings, 4 or more colors

    def colorable(ai: int, u: int, v: int, colors: int) -> bool:
        """Whether the committed graph at ai plus edge uv is colors-colorable,
        for 4 <= colors < q.  A coloring found for uv colors the committed
        graph too, so it joins the certificates."""
        row = adj[ai]
        for known in certs[ai]:
            if known[u] != known[v]:
                return True
        for known in certs[ai]:
            moved = _recolor_end(known, row, u, v, colors)
            if moved:
                certs[ai].append(moved)
                return True
        row[u] |= 1 << v
        row[v] |= 1 << u
        key = (ai, colors, tuple(row))
        got = color_cache.get(key, key)
        if got is key:
            got = color_cache[key] = _color_graph(q, row, colors)
        row[u] ^= 1 << v
        row[v] ^= 1 << u
        if got is None:
            return False
        certs[ai].append(got)
        return True

    def solve(caps, open_: int) -> bool:
        """Commit each open constraint to a split point, backtracking on
        color budgets; on success the chosen edges are left in `adj`."""
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            work["nodes"] = budget
            raise BudgetExceeded(budget, t)  # t: the bit count the loop below tries
        ci = _pick_constraint(open_, viable)
        if ci is None:
            return True
        branch = [opt for opt in constraints[ci] if (viable[opt[0]] >> ci) & 1]
        for edge in branch:  # none: the constraint cannot be split, so refute
            if edge in dead:
                continue
            ai, u, v = edge
            colors = caps[ai]
            row = adj[ai]
            saved = viable[ai], lab[ai], certs[ai]
            row[u] |= 1 << v
            row[v] |= 1 << u
            rest = open_ & ~holders[ai][u, v]
            if colors == 2:
                side = lab[ai] = _join_sides(saved[1], u, v)
                if side is not saved[1]:
                    # a bipartite graph plus xy stays bipartite unless x and y
                    # share a label; the pairs that shared one before this
                    # join were cleared when they first did, so a pass over
                    # every option clears just those the join puts together
                    for (x, y), held in holders[ai].items():
                        if side[x] == side[y]:
                            viable[ai] &= ~held
            elif colors < q:  # with q colors every graph on q vertices is colorable
                certs[ai] = [known for known in saved[2] if known[u] != known[v]]
                live, still = saved[0] & rest, 0
                for (x, y), held in holders[ai].items():
                    if held & live and colorable(ai, x, y, colors):
                        still |= held
                viable[ai] = still
            if solve(caps, rest):
                return True
            row[u] ^= 1 << v
            row[v] ^= 1 << u
            viable[ai], lab[ai], certs[ai] = saved
            if open_ == everyone:  # a root branch: no solution splits u, v at ai
                for perm, values in fixers:
                    x, y = values[ai][u], values[ai][v]
                    dead.add((perm[ai], x, y) if x < y else (perm[ai], y, x))
        return False

    def compositions(total: int, parts: int, cap: int):
        if parts == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap) + 1):
            for rest in compositions(total - first, parts - 1, cap):
                yield (first,) + rest

    symmetries = _symmetries(ctx, mode, alphas)
    dead: set[tuple] = set()  # edges (ai, u, v) no solution of the current caps splits
    fixers: list[tuple] = []  # (perm, values) of the maps that fix the current caps
    cap = max(1, (q - 1).bit_length())  # a partition into singletons splits all
    for t in range(t_max + 1):
        refuted: set[tuple] = set()  # cap tuples at t with a refuted orbit mate
        for bits in compositions(t, len(alphas), cap):
            if bits in refuted:
                work["skipped"] += 1
                continue
            work["tuples"] += 1
            for row in adj:
                for v in range(q):
                    row[v] = 0
            lab[:] = [list(range(0, 2 * q, 2)) for _ in alphas]
            certs[:] = [[] for _ in alphas]
            # one edge is colorable with 2 or more colors, so all options are viable
            viable[:] = [reach[ai] if b else 0 for ai, b in enumerate(bits)]
            caps = tuple(1 << b for b in bits)
            used = [ai for ai, b in enumerate(bits) if b]  # no edge elsewhere
            dead.clear()
            fixers[:] = [
                (perm, values)
                for perm, tables in symmetries
                if all(perm[ai] is not None and bits[perm[ai]] == bits[ai] for ai in used)
                for values in tables
            ]
            found = solve(caps, everyone)
            work["nodes"] = nodes
            work["dead_edges"] += len(dead)
            if found:
                colorings = [
                    _color_graph(q, adj[ai], caps[ai]) for ai in range(len(alphas))
                ]
                return finish(bits, colorings)
            for perm, _ in symmetries:
                if all(perm[ai] is not None for ai in used):
                    image = [0] * len(alphas)
                    for ai in used:
                        image[perm[ai]] = bits[ai]
                    refuted.add(tuple(image))
    return None
