"""Command-line front door: subcommand dispatch, canonical JSON reports, and
the batch verification suite.

Every subcommand builds a RunReport -- a payload plus named checks, each
pass/fail with a witness on failure.  Exit status is 0 when every check
passed, 1 when any failed, 2 on usage errors or rejected inputs (bad
fields, malformed scheme files, blown search budgets).  JSON output is
canonical: sorted keys, compact separators, floats rounded to six decimals,
non-finite numbers as null, so identical invocations give byte-identical
reports; wall time is printed in text mode only for the same reason.

`suite` runs one ordered table of (name, q, builder) rows: the per-field
rows of every supported q <= --qmax, picked by regime, then each fixed row
whose q <= --qmax.  A builder returns (ok, fields); the runner stamps name,
pass and q on the check and records a raising builder as a failed check
with its `error`.  The commands reuse the builders' helpers.  Where
`os.fork` exists, a forked worker runs the per-field sweep while this
process runs the fixed rows, and the checks are put back in report order;
without it the whole battery runs in one process.  A `--timings` line is
its check's own wall time in the process that ran it, so the lines can sum
to more than the run.

`main`, the console entry point, calls `gc.freeze()` once `cmd_dispatch`
has written the report and returned, and then exits with its code.  The
interpreter's final collection then skips every object made by the
imports, the caches and the run.  On a shared 2-vCPU x86-64 host that
cut the time from `atexit` to reap from 14.7 to 4.0 ms for `game --q 243`,
11.3 to 2.9 ms for `buckets --q 81` and 18.6 to 5.3 ms for `suite
--qmax 64` (medians of 15).  Output, stderr and exit codes are unchanged.
Only `main` freezes: tests and the benchmark's traced child call
`cmd_dispatch` in-process, and a freeze there would stop the collector
for the rest of their process.  The suite's forked worker leaves through
`os._exit` and never reaches the final collection.

At top level this module imports only the qmlab modules `import qmlab`
loads (errors, galois, residues, rscode, qm).  pqm, charsum, linleak and
shamir7 are imported inside the functions that call them, so a command
loads only what it runs: `game` loads pqm and none of the other three,
`buckets` none of the four.  `suite` imports all four before it forks, so
neither process imports them again.  json is imported only where text is
parsed; `_escape` is `_json.encode_basestring_ascii`, the very function
json.encoder uses, so rendering a report needs no json import.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import random
import sys
import time
from _json import encode_basestring_ascii as _escape  # the escaper json.dumps uses
from contextlib import nullcontext
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .errors import NoPairExists, PreconditionViolated, QmLabError, SchemaError
from .errors import UnsupportedField
from .galois import (
    MAX_Q,
    FieldCtx,
    field,
    find_primitive,
    find_primitive_zero_inv_trace,
    mask_elems,
    mask_from_hex,
    mask_of,
    mask_to_hex,
    prime_power,
)
from .qm import (
    APPENDIX,
    MQM,
    QM,
    SUCCESS,
    InvalidScheme,
    LeakageScheme,
    _domain_messages,
    _mode_domain,
    _separation_problem,
    collision_witness,
    leak_bit,
    mqm_check,
    search_min_bandwidth,
    transcript,
    verify_scheme,
)
from .residues import (
    b11,
    build_sqrt_system,
    minus_one_is_residue,
    omega_set,
    quadratic_character,
    regime_of,
    scaled_pair,
    scaled_pair_union_sizes,
)
from .rscode import bucket, bucket_eval, scalar_evolution

_DOMAIN_MODES = {"all": QM, "nonzero": APPENDIX, "omega": MQM}  # qm verify --domain
_EXHAUSTIVE_LIMIT = 10**6


# ---------------------------------------------------------------- reports


def _render(obj, memo: dict) -> str:
    """The canonical JSON text of a payload value.  `memo` maps the id of
    each list or tuple of plain ints met so far to its text, so a sequence
    the payload shares among many cells (the q^2 cells of a `buckets` grid
    hold at most q + 1 distinct ones) is rendered once.  Only objects the
    payload holds enter it: they stay alive for the walk, so ids are not
    reused."""
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        text = memo.get(id(obj))
        if text is None:
            if all(type(v) is int for v in obj):
                text = memo[id(obj)] = "[" + ",".join(map(int.__repr__, obj)) + "]"
            else:
                text = "[" + ",".join([_render(v, memo) for v in obj]) + "]"
        return text
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(round(obj, 6)) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        pairs = [_escape(k) + ":" + _render(items[k], memo) for k in sorted(items)]
        return "{" + ",".join(pairs) + "}"
    if isinstance(obj, (set, frozenset)):
        return "[" + ",".join([_render(v, memo) for v in sorted(obj)]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Sorted string keys, compact separators, sets sorted, tuples as
    arrays, floats rounded to six decimals, non-finite numbers as null and
    non-ASCII escaped: byte-identical for equal payloads."""
    return _render(obj, {})


def _text_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}" if math.isfinite(v) else str(v)
    return canonical_json(v)


def _payload_lines(payload: dict) -> list:
    return [f"{key} = {_text_value(payload[key])}" for key in sorted(payload)]


def _check(name: str, ok, **extra) -> dict:
    out = {"name": name, "pass": bool(ok)}
    out.update(extra)
    return out


def _failing(bad, **fields) -> tuple:
    """(ok, fields) for a check that passes when `bad` is empty; a nonempty
    `bad` is added to the fields as the counterexample."""
    return not bad, {**fields, "counterexample": bad} if bad else fields


class RunReport:
    """A command's payload and named checks.  A report about one field is
    given its `ctx`, which sets the payload's `field` descriptor and `q` in
    place, so a text body holding the payload sees both.  cmd_dispatch
    stamps `started` for the wall time of the text report."""

    def __init__(
        self,
        command: str,
        payload: dict,
        checks: list,
        text_body: Callable[[], list] | None = None,
        ctx: FieldCtx | None = None,
    ):
        if ctx is not None:
            payload.update(field=ctx.descriptor(), q=ctx.q)
        self.command = command
        self.payload = payload
        self.checks = checks
        self.text_body = text_body
        self.started = 0.0

    def ok(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        return canonical_json(
            {"command": self.command, **self.payload, "checks": self.checks, "ok": self.ok()}
        )

    def to_text(self) -> str:
        lines = [f"qmlab {self.command}"]
        lines += self.text_body() if self.text_body else _payload_lines(self.payload)
        for c in self.checks:
            extra = {k: v for k, v in c.items() if k not in ("name", "pass")}
            suffix = f"  {canonical_json(extra)}" if extra else ""
            lines.append(f"[{'ok' if c['pass'] else 'FAIL'}] {c['name']}{suffix}")
        if self.checks:
            good = sum(1 for c in self.checks if c["pass"])
            verdict = "all checks passed" if self.ok() else "CHECKS FAILED"
            lines.append(f"{verdict} ({good}/{len(self.checks)})")
        lines.append(f"wall time {time.perf_counter() - self.started:.3f}s")
        return "\n".join(lines)


# ---------------------------------------------------------------- scheme io


def _is_int(x) -> bool:
    """A JSON integer; `true` and `false` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = obj[key]
    if not (_is_int(val) if kinds is int else isinstance(val, kinds)):
        raise SchemaError(f"{where}: field {key!r} has the wrong type")
    return val


def _field_from_obj(fd, where: str) -> FieldCtx:
    if not isinstance(fd, dict):
        raise SchemaError(f"{where}: expected a field descriptor object")
    p = _require(fd, "p", int, where)
    e = _require(fd, "e", int, where)
    if e > 1 and "irreducible" not in fd:
        raise SchemaError(f"{where}: missing field 'irreducible' (required for e > 1)")
    irreducible = fd.get("irreducible")
    if irreducible is not None:
        if not isinstance(irreducible, list):
            raise SchemaError(f"{where}: field 'irreducible' has the wrong type")
        for idx, c in enumerate(irreducible):
            if not (_is_int(c) and 0 <= c < p):
                raise SchemaError(f"{where}.irreducible[{idx}]: expected an element of GF({p})")
    try:
        return FieldCtx(p, e, irreducible)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def scheme_to_obj(scheme: LeakageScheme) -> dict:
    q = scheme.ctx.q
    return {
        "field": scheme.ctx.descriptor(),
        "k": 2,
        "i": 0,
        "j": 1,
        "servers": sorted(scheme.servers),
        "schedule": list(scheme.schedule),
        "sets": [mask_to_hex(m, q) for m in scheme.sets],
    }


def scheme_from_obj(obj, where: str = "scheme") -> LeakageScheme:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a scheme object")
    ctx = _field_from_obj(_require(obj, "field", dict, where), f"{where}.field")
    k = _require(obj, "k", int, where)
    i = _require(obj, "i", int, where)
    j = _require(obj, "j", int, where)
    servers = _require(obj, "servers", list, where)
    schedule = _require(obj, "schedule", list, where)
    for key, seq in (("servers", servers), ("schedule", schedule)):
        for idx, x in enumerate(seq):
            if not _is_int(x):
                raise SchemaError(f"{where}.{key}[{idx}]: expected an integer")
    sets = []
    for idx, text in enumerate(_require(obj, "sets", list, where)):
        if not isinstance(text, str):
            raise SchemaError(f"{where}.sets[{idx}]: expected a hex mask string")
        try:
            sets.append(mask_from_hex(text, ctx.q))
        except ValueError as exc:
            raise SchemaError(f"{where}.sets[{idx}]: {exc}") from None
    # a scheme holds no targets, so a file's (1, 0) reads as (0, 1)
    if k != 2 or {i, j} != {0, 1}:
        raise SchemaError(f"{where}: need dimension k = 2 with targets {{0, 1}}")
    try:
        return LeakageScheme(ctx, servers, schedule, sets)
    except InvalidScheme as exc:
        raise SchemaError(f"{where}.{exc}" if exc.entry else f"{where}: {exc}") from None


def _load_json(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()  # one decode of the whole file, so exc.start is its offset
    except UnicodeDecodeError as exc:
        byte, at = exc.object[exc.start], exc.start
        raise SchemaError(f"{path}: not UTF-8 text (byte 0x{byte:02x} at offset {at})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def read_scheme(path: str) -> LeakageScheme:
    return scheme_from_obj(_load_json(path), where=path)


def _read_v_file(path: str, q: int | None) -> tuple:
    """(field, v_seq) from a JSON object holding a 'v_seq' list of element
    lists, each returned as a q-bit mask; the field is the file's 'field'
    descriptor if it has one, else GF(q).  A q given beside a descriptor
    must select the same field."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "v_seq" not in obj:
        raise SchemaError(f"{path}: missing field 'v_seq'")
    if "field" in obj:
        ctx = _field_from_obj(obj["field"], f"{path}.field")
    elif q is not None:
        ctx = field(q)
    else:
        raise SchemaError(f"{path}: no field descriptor; pass --q")
    v_seq = []
    for idx, entry in enumerate(_require(obj, "v_seq", list, path)):
        if not isinstance(entry, list) or not all(
            _is_int(x) and 0 <= x < ctx.q for x in entry
        ):
            raise SchemaError(f"{path}.v_seq[{idx}]: expected field elements")
        v_seq.append(mask_of(entry))
    if q is not None and ctx != field(q):
        raise SchemaError(f"{path}: field descriptor differs from the selected field")
    return ctx, tuple(v_seq)


# ---------------------------------------------------------------- helpers


def _csv_ints(text: str) -> list:
    # an empty entry is None, for the command to name through _no_empty
    return [int(x) if x else None for x in text.split(",")] if text else []


def _no_empty(flag: str, values) -> None:
    for idx, v in enumerate(values or ()):
        if v is None:
            raise PreconditionViolated(f"{flag}[{idx}] is empty")


def _grid_lines(ctx: FieldCtx, cells: dict) -> list:
    """cells maps (point, product) to a sorted tuple of field elements.  Each
    distinct tuple object is formatted once: a `buckets` grid shares at most
    q + 1 among its q^2 cells."""
    distinct = {id(val): val for val in cells.values()}
    text = {key: "{" + ",".join(map(str, val)) + "}" for key, val in distinct.items()}
    labels = [str(g) for g in ctx.elements]
    width = max(max(len(v) for v in text.values()), max(len(l) for l in labels))
    padded = {key: s.rjust(width) for key, s in text.items()}
    lines = ["evaluation point (rows) by coefficient product (columns)"]
    lines.append("     " + " ".join(l.rjust(width) for l in labels))
    for a in ctx.elements:
        row = " ".join([padded[id(cells[(a, g)])] for g in ctx.elements])
        lines.append(f"{a:>4} " + row)
    return lines


def _table_report(command: str, ctx: FieldCtx, cells: dict, checks: list) -> RunReport:
    """The {field, q, table} report of an image grid keyed like _grid_lines;
    the text grid is built only when the report is rendered as text."""
    table = {str(a): {str(g): cells[(a, g)] for g in ctx.elements} for a in ctx.elements}
    text_body = partial(_grid_lines, ctx, cells)
    return RunReport(command, {"table": table}, checks, text_body=text_body, ctx=ctx)


def _figure1_mismatches(ctx: FieldCtx, table) -> list:
    """[point, product] cells where the hand-written grid differs from bucket_eval."""
    return [
        [a, g]
        for a in ctx.elements
        for g in ctx.elements
        if mask_of(table[a][g]) != bucket_eval(ctx, g, a)
    ]


def _query_space(ctx: FieldCtx) -> list:
    """Every trace probe (unit point, any coefficient) of one symbol."""
    from .linleak import TraceQuery

    return [TraceQuery(a, g) for a in ctx.units for g in ctx.elements]


def _sampled_queries(ctx: FieldCtx, t: int, count: int, seed: int):
    """Yield `count` seeded tuples of t trace probes, each at a random unit point."""
    from .linleak import TraceQuery

    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(TraceQuery(rng.randrange(1, ctx.q), rng.randrange(ctx.q)) for _ in range(t))


def _collision_tally(ctx: FieldCtx, k: int, i: int, j: int, tuples) -> tuple:
    """(count, verified, witness, failing) over the probe tuples: how many
    admit a verified (k, i, j) collision pair, the first pair with its probes
    as report fields, and the first tuple admitting none."""
    from .linleak import linear_impossibility_check

    count = verified = 0
    witness = failing = None
    for tup in tuples:
        count += 1
        pair = linear_impossibility_check(ctx, k, i, j, tup)
        if pair:
            verified += 1
            if witness is None:
                witness = {"queries": [[qy.alpha, qy.gamma] for qy in tup],
                           "f": pair[0], "ell": pair[1]}
        elif failing is None:
            failing = {"queries": [[qy.alpha, qy.gamma] for qy in tup]}
    return count, verified, witness, failing


def _union_sizes(ctx: FieldCtx, pair) -> tuple:
    """(expected size, {g: union size} over the restricted set, the sizes
    that differ keyed by str(g))."""
    expected = ctx.q - 3 if ctx.p > 2 else ctx.q - 4
    sizes = scaled_pair_union_sizes(ctx, pair)
    return expected, sizes, {str(g): n for g, n in sorted(sizes.items()) if n != expected}


def _residue_witness(ctx: FieldCtx, b11_star) -> dict:
    """B_1(1)* beside the nonzero squares: why no pair or no mix exists."""
    squares = sorted(x for x in ctx.units if quadratic_character(ctx, x) == 1)
    return {"b11_star": sorted(b11_star), "squares": squares}


def _gf7_five_bits() -> tuple:
    """(verify_gf7() and a (5, 6) download cost, the cost as report fields)."""
    from .shamir7 import download_cost, verify_gf7

    bits, naive = download_cost()
    return verify_gf7() and (bits, naive) == (5, 6), {"bits": bits, "naive_bits": naive}


@lru_cache(maxsize=None)
def _searched_gf7():
    """(t, scheme) of the minimum-bandwidth MQM search over GF(7), or None;
    searched once per process, since two suite checks read it."""
    ctx = field(7)
    return search_min_bandwidth(ctx, MQM, omega_set(ctx))


# ---------------------------------------------------------------- commands


def cmd_field(args) -> RunReport:
    ctx = field(args.q)
    return RunReport("field", {"primitive": find_primitive(ctx)}, [], ctx=ctx)


def cmd_residues(args) -> RunReport:
    ctx = field(args.q)
    payload = {"regime": regime_of(ctx), "omega": omega_set(ctx)}
    try:
        pair = scaled_pair(ctx)
    except NoPairExists as exc:
        payload.update({"pair": None, "sqrt": None, "union_sizes": None})
        witness = _residue_witness(ctx, b11(ctx) - {0})
        fail = _check("scaled-pair-exists", False, note=str(exc), counterexample=witness)
        return RunReport("residues", payload, [fail], ctx=ctx)
    expected, sizes, bad = _union_sizes(ctx, pair)
    payload.update(
        {
            "pair": [pair.a, pair.b],
            "sqrt": {str(g): r for g, r in build_sqrt_system(ctx).items()},
            "union_sizes": {str(g): n for g, n in sorted(sizes.items())},
            "expected_union": expected,
        }
    )
    ok, extra = _failing(bad)
    checks = [
        _check("scaled-pair-exists", True, pair=[pair.a, pair.b]),
        _check("union-sizes", ok, **extra),
    ]
    return RunReport("residues", payload, checks, ctx=ctx)


def cmd_charsum(args) -> RunReport:
    from .charsum import complete_char_sum

    _no_empty("--poly", args.poly)
    ctx = field(args.q)
    for idx, c in enumerate(args.poly):
        if not 0 <= c < ctx.q:
            raise PreconditionViolated(f"--poly[{idx}] = {c} is not an element of GF({ctx.q})")
    report = complete_char_sum(ctx, tuple(args.poly))
    ok = report.within_bound or not report.square_free
    note = {} if report.square_free else {"note": "not square-free: Weil's bound does not apply"}
    checks = [_check("weil-bound", ok, value=report.value, bound=report.bound, **note)]
    return RunReport("charsum", report._asdict(), checks, ctx=ctx)


def cmd_buckets(args) -> RunReport:
    ctx = field(args.q)
    els = ctx.elements
    masks = {(a, g): bucket_eval(ctx, g, a) for a in els for g in els}
    # at most q + 1 distinct masks: q - 1 scaled images, the units, the field
    elems = {m: mask_elems(m) for m in set(masks.values())}
    cells = {key: elems[m] for key, m in masks.items()}
    return _table_report("buckets", ctx, cells, [])


def cmd_qm_verify(args) -> RunReport:
    scheme = read_scheme(args.scheme)
    ctx = scheme.ctx
    domain = _mode_domain(ctx, _DOMAIN_MODES[args.domain])
    checks = []
    if args.domain == "omega":
        ok, extra = _failing([a for a in scheme.schedule if a not in domain])
        checks.append(_check("schedule-restricted", ok, **extra))
    witness = collision_witness(scheme, domain)
    ok, extra = _failing(witness and witness._asdict(), domain=args.domain)
    checks.append(_check("transcript-separates-products", ok, **extra))
    payload = {"t": scheme.t, "domain": args.domain, "scheme": scheme_to_obj(scheme)}
    return RunReport("qm verify", payload, checks, ctx=ctx)


def cmd_qm_search(args) -> RunReport:
    ctx = field(args.q)
    if args.tmax is not None and args.tmax < 0:
        raise PreconditionViolated(f"--tmax must be at least 0, got {args.tmax}")
    if args.budget < 1:
        raise PreconditionViolated(f"--budget must be at least 1, got {args.budget}")
    if args.servers == []:
        raise PreconditionViolated("--servers lists no point")
    _no_empty("--servers", args.servers)
    servers = frozenset(ctx.elements if args.servers is None else args.servers)
    outside = sorted(a for a in servers if not 0 <= a < ctx.q)
    if outside:
        listed = ", ".join(map(str, outside))
        what = "an element" if len(outside) == 1 else "elements"
        raise PreconditionViolated(f"--servers {listed}: not {what} of GF({ctx.q})")
    if args.servers is not None and args.mode == MQM:
        om = omega_set(ctx)
        outside = sorted(a for a in servers if a not in om)
        if outside:
            listed = ", ".join(map(str, outside))
            members = ", ".join(map(str, om))
            raise PreconditionViolated(
                f"--servers {listed}: outside the restricted set {{{members}}} of"
                f" GF({ctx.q}), the only points mqm mode queries"
            )
    work: dict = {}
    got = search_min_bandwidth(
        ctx, args.mode, servers, t_max=args.tmax, budget=args.budget, counters=work
    )
    payload = {"mode": args.mode, "servers": sorted(servers), "found": got is not None}
    if got is None:
        blocked = _separation_problem(ctx, args.mode, servers)[2]
        note = "no scheme within --tmax"
        extra = {}
        if blocked:
            note = "no scheme at any bandwidth: two messages agree at every server"
            (a, ga), (b, gb) = blocked
            extra = {"counterexample": {"message_a": a, "message_b": b, "products": [ga, gb]}}
        checks = [_check("scheme-found", False, note=note, **extra)]
    else:
        t, scheme = got
        payload["t"] = t
        payload["scheme"] = scheme_to_obj(scheme)
        checks = [_check("scheme-found", True, t=t)]
    text_body = partial(_search_lines, payload, work)
    return RunReport("qm search", payload, checks, text_body=text_body, ctx=ctx)


def _search_lines(payload: dict, work: dict) -> list:
    """The payload, then the search's work counters, which --json leaves out."""
    return _payload_lines(payload) + [
        f"search work = {work['nodes']} nodes expanded; cap tuples {work['tuples']} searched,"
        f" {work['skipped']} skipped by symmetry; {work['dead_edges']} dead edges learned"
    ]


def cmd_qm_convert(args) -> RunReport:
    from .pqm import mqm_to_pqm

    scheme = read_scheme(args.scheme)
    payload = {"v_seq": [mask_elems(v) for v in mqm_to_pqm(scheme)]}
    return RunReport("qm convert", payload, [], ctx=scheme.ctx)


def cmd_pqm_run(args) -> RunReport:
    from .pqm import run_pqm

    _no_empty("--transcript", args.transcript)
    for idx, bit in enumerate(args.transcript):
        if bit not in (0, 1):
            raise PreconditionViolated(f"--transcript[{idx}] = {bit} is not a bit (0 or 1)")
    ctx, v_seq = _read_v_file(args.v_file, args.q)
    outcome, state = run_pqm(ctx, v_seq, tuple(args.transcript))
    alive = state.nonempty()
    payload = {
        "outcome": outcome,
        "rounds": state.rounds,
        "survivors": list(state.history),
        "classes_left": alive,
    }
    ok, extra = _failing(None if outcome == SUCCESS else {"classes_left": alive})
    return RunReport("pqm run", payload, [_check("at-most-one-class-left", ok, **extra)], ctx=ctx)


def cmd_game(args) -> RunReport:
    from .pqm import bandwidth_bound, play_game

    ctx = field(args.q)
    if args.max_rounds is not None and args.max_rounds < 1:
        raise PreconditionViolated(f"--max-rounds must be at least 1, got {args.max_rounds}")
    if args.strategy == "replay" and not args.v_file:
        raise PreconditionViolated("--strategy replay needs --v-file")
    if args.v_file and args.strategy != "replay":
        raise PreconditionViolated("--v-file needs --strategy replay")
    v_seq = ()
    if args.v_file:
        v_seq = _read_v_file(args.v_file, ctx.q)[1]
        if not v_seq:
            raise SchemaError(f"{args.v_file}: v_seq is empty, so the replay would play no round")
    record = play_game(
        ctx, args.strategy, seed=args.seed, max_rounds=args.max_rounds, v_seq=v_seq
    )
    floor = bandwidth_bound(ctx).integer_round_bound
    payload = {"integer_round_bound": floor, **record}
    checks = [
        _check(
            "rounds-at-least-floor",
            record["rounds"] >= floor,
            floor=floor,
            rounds_played=record["rounds_played"],
        )
    ]
    return RunReport("game", payload, checks, ctx=ctx)


def cmd_bound(args) -> RunReport:
    from .pqm import bandwidth_bound

    ctx = field(args.q)
    payload = {"p": ctx.p, "e": ctx.e, **bandwidth_bound(ctx)._asdict()}
    return RunReport("bound", payload, [], ctx=ctx)


def cmd_linleak_check(args) -> RunReport:
    ctx = field(args.q)
    t = 2 * ctx.e - 1
    if args.exhaustive:
        if args.seed is not None:
            raise PreconditionViolated("--seed needs sampling; --exhaustive draws no random tuple")
        size = ((ctx.q - 1) * ctx.q) ** t  # counted before _query_space builds a probe
        if size > _EXHAUSTIVE_LIMIT:
            raise PreconditionViolated(f"{size} query tuples; use --samples for GF({ctx.q})")
        tuples = itertools.product(_query_space(ctx), repeat=t)
        mode = "exhaustive"
    else:
        if args.samples < 1:
            raise PreconditionViolated(f"--samples must be at least 1, got {args.samples}")
        tuples = _sampled_queries(ctx, t, args.samples, args.seed or 0)
        mode = "sampled"
    count, verified, witness, failing = _collision_tally(ctx, args.k, args.i, args.j, tuples)
    payload = {
        "t": t,
        "k": args.k,
        "i": args.i,
        "j": args.j,
        "mode": mode,
        "count": count,
        "verified": verified,
        "witness": witness,
    }
    ok, extra = _failing(failing, count=count)  # ok exactly when verified == count
    checks = [_check("all-collisions-verify", ok, **extra)]
    return RunReport("linleak check", payload, checks, ctx=ctx)


def cmd_gf7_verify(args) -> RunReport:
    from .shamir7 import gf7_scheme

    scheme = gf7_scheme()
    ok, cost = _gf7_five_bits()
    payload = {**cost, "scheme": scheme_to_obj(scheme)}
    checks = [_check("five-bit-reconstruction", ok, **cost)]
    return RunReport("gf7 verify", payload, checks, ctx=scheme.ctx)


def cmd_gf7_table(args) -> RunReport:
    from .shamir7 import figure1_table

    ctx = field(7)
    table = figure1_table()
    cells = {(a, g): tuple(sorted(table[a][g])) for a in ctx.elements for g in ctx.elements}
    ok, extra = _failing(_figure1_mismatches(ctx, table))
    return _table_report("gf7 table", ctx, cells, [_check("matches-computed-images", ok, **extra)])


def cmd_gf7_leak(args) -> RunReport:
    from .shamir7 import one_bit_leak

    _no_empty("--set", args.set)
    t_set = set(args.set)
    if not (0 <= args.alpha < 7 and all(0 <= x < 7 for x in t_set)):
        raise PreconditionViolated("--alpha and --set must be GF(7) elements")
    out = one_bit_leak(args.alpha, t_set)
    payload = {
        "q": 7,
        "alpha": args.alpha,
        "set": sorted(t_set),
        "eliminated": {"0": sorted(out[0]), "1": sorted(out[1])},
    }
    return RunReport("gf7 leak", payload, [])


# ---------------------------------------------------------------- suite


class _Row(NamedTuple):
    """One suite check: its name, the field it covers (a row runs when
    q <= --qmax) and a builder returning (ok, fields)."""

    name: str
    q: int
    build: Callable[[], tuple]


def _sc_union_sizes(q: int) -> tuple:
    ctx = field(q)
    expected, _sizes, bad = _union_sizes(ctx, scaled_pair(ctx))
    return _failing(bad, expected=expected)


def _sc_scalar_evolution(q: int) -> tuple:
    bad = scalar_evolution(field(q))
    return _failing(bad and {"gamma": bad[0], "alpha": bad[1]})


def _sc_weil(q: int) -> tuple:
    from .charsum import complete_char_sum

    rep = complete_char_sum(field(q), (0, 1, 0, 1))
    return rep.square_free and rep.within_bound, {"value": rep.value, "bound": rep.bound}


def _sc_residue_mix(q: int) -> tuple:
    ctx = field(q)
    b11_star = b11(ctx) - {0}
    has_res = any(quadratic_character(ctx, y) == 1 for y in b11_star)
    has_non = any(quadratic_character(ctx, y) == -1 for y in b11_star)
    return _failing(None if has_res and has_non else _residue_witness(ctx, b11_star))


def _sc_artin_schreier(q: int) -> tuple:
    from .charsum import artin_schreier_solvable

    ctx = field(q)
    for c in ctx.elements:
        solvable, root = artin_schreier_solvable(ctx, c)
        roots = [y for y in ctx.elements if ctx.add(ctx.add(ctx.mul(y, y), y), c) == 0]
        if solvable != (ctx.trace(c) == 0) or solvable != bool(roots):
            return _failing({"c": c, "trace": ctx.trace(c), "roots": roots})
        if solvable and root not in roots:
            return _failing({"c": c, "root": root})
    return True, {}


def _sc_trace_kernel(q: int) -> tuple:
    from .charsum import b11_trace_kernel_check

    return b11_trace_kernel_check(field(q)), {}


def _sc_gf4_rejections() -> tuple:
    from .charsum import b11_trace_kernel_check

    ctx = field(4)
    leaked = []
    for name, fn in (
        ("primitive-zero-inv-trace", lambda: find_primitive_zero_inv_trace(ctx)),
        ("b11", lambda: b11(ctx)),
        ("trace-kernel", lambda: b11_trace_kernel_check(ctx)),
        ("sqrt-system", lambda: build_sqrt_system(ctx)),
    ):
        try:
            fn()
            leaked.append(name)
        except UnsupportedField:
            pass
    return _failing(leaked)


def _sc_gf5_pair_absent() -> tuple:
    try:
        scaled_pair(field(5))
        refused = False
    except NoPairExists:
        refused = True
    b11_ok, _ = _sc_b11_gf5()  # B_1(1) = {0, 2, 3} holds no nonzero square
    return refused and b11_ok, {"b11": sorted(b11(field(5)))}


def _sc_character_spots() -> tuple:
    ctx3, ctx5, ctx7 = field(3), field(5), field(7)
    qr3 = {x for x in ctx3.units if quadratic_character(ctx3, x) == 1}
    qr5 = {x for x in ctx5.units if quadratic_character(ctx5, x) == 1}
    ok = (
        qr3 == {1}
        and qr5 == {1, 4}
        and quadratic_character(ctx7, 0) == 0
        and minus_one_is_residue(ctx5)
    )
    return ok, {}


def _sc_scaled_pair_gf3() -> tuple:
    pair = scaled_pair(field(3))
    return (pair.a, pair.b) == (1, 2), {"pair": [pair.a, pair.b]}


def _sc_b11_gf3() -> tuple:
    return b11(field(3)) == frozenset({1, 2}), {}


def _sc_b11_gf8() -> tuple:
    got = b11(field(8))
    return len(got) == 4, {"size": len(got)}


def _sc_binary_sqrt_gf8() -> tuple:
    ctx = field(8)
    w = find_primitive_zero_inv_trace(ctx)
    primitive = len({ctx.pow(w, n) for n in range(1, ctx.q)}) == ctx.q - 1
    root_of_w2 = build_sqrt_system(ctx).get(ctx.mul(w, w))
    ok = root_of_w2 == w and primitive and ctx.trace(ctx.inv(w)) == 0
    return ok, {"omega": w}


def _sc_gf7_scheme() -> tuple:
    from .shamir7 import gf7_scheme

    scheme = gf7_scheme()
    ok, cost = _gf7_five_bits()
    sets = [set(mask_elems(m)) for m in scheme.sets]
    ok = (
        ok
        and sets == [{0, 2, 5}, {0, 1, 6}, {0, 3, 4}, {0, 2, 5}, {0, 1, 6}]
        and scheme.schedule == tuple(range(5))
        and leak_bit(scheme.sets[1], 3) == 1
        and transcript(scheme, (1, 1)) == (1, 1, 0, 1, 1)
    )
    return ok, cost


def _sc_gf7_truncations() -> tuple:
    from .shamir7 import gf7_scheme

    scheme = gf7_scheme()
    surviving = []
    for z in range(scheme.t):
        short = LeakageScheme(
            scheme.ctx,
            scheme.servers,
            scheme.schedule[:z] + scheme.schedule[z + 1 :],
            scheme.sets[:z] + scheme.sets[z + 1 :],
        )
        if verify_scheme(short, scheme.ctx.units):
            surviving.append(z)
    return _failing(surviving)


def _sc_gf7_figure1() -> tuple:
    from .shamir7 import figure1_table

    table = figure1_table()
    ok, fields = _failing(_figure1_mismatches(field(7), table))
    spots = (
        table[1][4] == {2, 3, 4, 5}
        and table[2][3] == {0, 2, 5}
        and table[1][1] == {1, 2, 5, 6}
        and table[0][6] == set(range(1, 7))
        and all(table[a][0] == set(range(7)) for a in range(7))
    )
    return ok and spots, fields


def _sc_gf7_leak() -> tuple:
    from .shamir7 import one_bit_leak

    got = one_bit_leak(1, {0, 1, 6})
    quiet = one_bit_leak(0, set(range(7)))[0]
    ok = got[0] == frozenset({4}) and got[1] == frozenset({5}) and quiet == frozenset()
    return ok, {"eliminated": {"0": sorted(got[0]), "1": sorted(got[1])}}


def _sc_gf7_bucket_lines() -> tuple:
    ctx = field(7)
    lines = bucket(ctx, 1)
    return len(lines) == 6 and all(m == ctx.inv(b) for b, m in lines), {"count": len(lines)}


def _sc_b11_gf5() -> tuple:
    ctx = field(5)
    got = b11(ctx)
    disjoint = not any(quadratic_character(ctx, y) == 1 for y in got - {0})
    return got == frozenset({0, 2, 3}) and disjoint, {}


def _sc_scheme_roundtrip() -> tuple:
    import json

    from .shamir7 import gf7_scheme

    text = canonical_json(scheme_to_obj(gf7_scheme()))
    again = canonical_json(scheme_to_obj(scheme_from_obj(json.loads(text))))
    return text == again, {}


def _sc_off_schedule() -> tuple:
    ctx = field(7)
    scheme = LeakageScheme(ctx, {3}, (3,), (mask_of({0, 1}),))
    return mqm_check(scheme) is False, {}


def _sc_bound_forms(qmax: int) -> tuple:
    """Reports q = min(qmax, 16), the largest field it compares, not its row's q."""
    from .pqm import bandwidth_bound

    expect_real = {4: -2.0, 5: 1.0}
    expect_int = {7: 3, 8: 2, 9: 4, 11: 4, 13: 5, 16: 4}
    bad = {}
    for q, want in expect_real.items():
        if q <= qmax:
            got = bandwidth_bound(field(q)).real_bound
            if abs(got - want) > 1e-9:
                bad[f"real q={q}"] = got
    for q, want in expect_int.items():
        if q <= qmax:
            got = bandwidth_bound(field(q)).integer_round_bound
            if got != want:
                bad[f"integer q={q}"] = got
    return _failing(bad, q=min(qmax, 16))


def _replay_battery(scheme: LeakageScheme) -> tuple:
    """(all replays succeed, number of messages, largest terminal class)."""
    from .pqm import replay_transcript

    messages = _domain_messages(scheme.ctx, omega_set(scheme.ctx))
    ok, worst = True, 0
    for message, _ in messages:
        outcome, state = replay_transcript(scheme, message)
        ok = ok and outcome == SUCCESS
        worst = max(worst, max(m.bit_count() for m in state.classes.values()))
    return ok, len(messages), worst


def _sc_pipeline_gf7() -> tuple:
    from .pqm import bandwidth_bound

    floor = bandwidth_bound(field(7)).integer_round_bound
    got = _searched_gf7()
    if got is None:
        return False, {"error": "search found nothing"}
    t, scheme = got
    replays_ok, count, worst = _replay_battery(scheme)
    ok = t == 3 and t >= floor and replays_ok and count == 18 and worst <= 2
    return ok, {"t": t, "floor": floor, "replays": count, "max_class": worst}


def _sc_appendix_search_gf7() -> tuple:
    got = search_min_bandwidth(field(7), APPENDIX, frozenset(range(5)))
    return got is not None and got[0] <= 5, {"t": None if got is None else got[0]}


def _sc_replay_gf8() -> tuple:
    ctx = field(8)
    scheme = LeakageScheme(ctx, omega_set(ctx), (4, 4, 7, 7), (0x8A, 0xF0, 0x2C, 0xA2))
    replays_ok, count, worst = _replay_battery(scheme)
    ok = mqm_check(scheme) and replays_ok and count == 21 and worst <= 3
    return ok, {"replays": count, "max_class": worst}


def _sc_game_floor(q: int, seed: int) -> tuple:
    from .pqm import bandwidth_bound, mqm_to_pqm, play_game

    ctx = field(q)
    floor = bandwidth_bound(ctx).integer_round_bound
    rounds = {}
    for strategy in ("greedy-halving", "random-set"):
        rounds[strategy] = play_game(ctx, strategy, seed=seed)["rounds"]
    if q == 7:
        _, scheme = _searched_gf7()
        record = play_game(ctx, "replay", seed=seed, v_seq=mqm_to_pqm(scheme))
        rounds["replay"] = record["rounds"]
    return all(r >= floor for r in rounds.values()), {"floor": floor, "rounds": rounds}


def _sc_linleak_exhaustive() -> tuple:
    ctx = field(4)
    tuples = itertools.product(_query_space(ctx), repeat=3)
    count, verified, _, _ = _collision_tally(ctx, 2, 0, 1, tuples)
    return count == 1728 and verified == count, {"count": count, "verified": verified}


def _sc_linleak_seeded(seed: int) -> tuple:
    ctx = field(8)
    count, verified, _, _ = _collision_tally(ctx, 2, 0, 1, _sampled_queries(ctx, 5, 1000, seed))
    return verified == count, {"count": count, "verified": verified}


def _sc_linleak_lift() -> tuple:
    from .linleak import TraceQuery, linear_impossibility_check

    ctx = field(4)
    tup = (TraceQuery(1, 2), TraceQuery(2, 1), TraceQuery(3, 3))
    ok = linear_impossibility_check(ctx, 3, 0, 2, tup) and linear_impossibility_check(
        ctx, 3, 2, 0, tup
    )
    return ok, {}


def _field_rows(q: int) -> list:
    """The per-field rows for GF(q), picked by regime; none when q is not a
    prime power or is a binary field outside 4..64."""
    pe = prime_power(q)
    if pe is None or (pe[0] == 2 and q not in (4, 8, 16, 32, 64)):
        return []
    if q == 4:  # no restricted set: only the rejections are checked
        return [_Row("regime-rejections-gf4", 4, _sc_gf4_rejections)]
    if q == 5:  # no scaled pair, hence no union sizes or evolution
        rows = [_Row("pair-absent-gf5", 5, _sc_gf5_pair_absent)]
    else:
        rows = [
            _Row(f"union-sizes-gf{q}", q, partial(_sc_union_sizes, q)),
            _Row(f"scalar-evolution-gf{q}", q, partial(_sc_scalar_evolution, q)),
        ]
    if pe[0] > 2:
        rows.append(_Row(f"weil-bound-gf{q}", q, partial(_sc_weil, q)))
        if q != 5:
            rows.append(_Row(f"residue-mix-gf{q}", q, partial(_sc_residue_mix, q)))
    else:
        rows.append(_Row(f"artin-schreier-gf{q}", q, partial(_sc_artin_schreier, q)))
        rows.append(_Row(f"trace-kernel-gf{q}", q, partial(_sc_trace_kernel, q)))
    return rows


def _sweep_rows(qmax: int) -> list:
    """The per-field rows for every q <= qmax, in report order."""
    return [row for q in range(3, qmax + 1) for row in _field_rows(q)]


def _fixed_rows(qmax: int, seed: int) -> list:
    """Each fixed row whose q <= qmax, in report order."""
    fixed = [
        _Row("scaled-pair-gf3", 3, _sc_scaled_pair_gf3),
        _Row("b11-gf3", 3, _sc_b11_gf3),
        _Row("b11-gf5", 5, _sc_b11_gf5),
        _Row("bound-closed-forms", 5, partial(_sc_bound_forms, qmax)),
        _Row("character-table-spots", 7, _sc_character_spots),
        _Row("gf7-verify-five-bits", 7, _sc_gf7_scheme),
        _Row("gf7-truncations-fail", 7, _sc_gf7_truncations),
        _Row("gf7-figure1-golden", 7, _sc_gf7_figure1),
        _Row("gf7-one-bit-leak", 7, _sc_gf7_leak),
        _Row("gf7-product-one-lines", 7, _sc_gf7_bucket_lines),
        _Row("scheme-json-roundtrip", 7, _sc_scheme_roundtrip),
        _Row("off-schedule-rejected-gf7", 7, _sc_off_schedule),
        _Row("pipeline-gf7", 7, _sc_pipeline_gf7),
        _Row("appendix-search-gf7", 7, _sc_appendix_search_gf7),
        _Row("b11-gf8", 8, _sc_b11_gf8),
        _Row("binary-sqrt-canonical-gf8", 8, _sc_binary_sqrt_gf8),
        _Row("replay-size-gf8", 8, _sc_replay_gf8),
        *(
            _Row(f"game-floor-gf{q}", q, partial(_sc_game_floor, q, seed))
            for q in (7, 8, 9, 11, 13, 16)
        ),
        _Row("linleak-exhaustive-gf4", 4, _sc_linleak_exhaustive),
        _Row("linleak-lift-gf4", 4, _sc_linleak_lift),
        _Row("linleak-seeded-gf8", 8, partial(_sc_linleak_seeded, seed)),
    ]
    return [row for row in fixed if row.q <= qmax]


def _timed_row(row: _Row) -> tuple:
    """(check, seconds): the row's check and its wall time."""
    start = time.perf_counter()
    try:
        ok, fields = row.build()
    except Exception as exc:  # one broken check must not abort the battery
        ok, fields = False, {"error": f"{type(exc).__name__}: {exc}"}
    return _check(row.name, ok, **{"q": row.q, **fields}), time.perf_counter() - start


def _run_beside(sweep: list, fixed: list) -> list:
    """(check, seconds) for sweep + fixed, in that order.  A forked worker
    runs the sweep and pickles one pair per row down a pipe while this
    process runs the fixed rows.  Each row the worker did not report (it
    died) becomes a failed check naming the worker's exit status, with
    seconds nan.  The worker is reaped before this returns or raises."""
    import pickle  # here, so no other command pays for its import

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: writes only to the pipe and never returns
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for row in sweep:
                    pickle.dump(_timed_row(row), pipe)
                    pipe.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pairs = []
    try:
        with open(read_fd, "rb") as pipe:
            done = [_timed_row(row) for row in fixed]
            while True:
                try:
                    pairs.append(pickle.load(pipe))
                except (EOFError, pickle.UnpicklingError):  # also a pair cut short
                    break
    except BaseException:
        os.kill(pid, 9)  # SIGKILL: no row the worker still runs is read
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
    error = f"suite worker {how} before reporting this row"
    for row in sweep[len(pairs):]:
        pairs.append((_check(row.name, False, q=row.q, error=error), math.nan))
    return pairs + done


def cmd_suite(args) -> RunReport:
    if args.qmax < 3:
        raise PreconditionViolated(f"--qmax must be at least 3, got {args.qmax}")
    if args.qmax > MAX_Q:  # beyond it `field` refuses every q
        raise PreconditionViolated(f"--qmax must be at most {MAX_Q}, got {args.qmax}")
    # opened before the battery runs, so an unwritable path costs no work
    with open(args.timings, "w", encoding="utf-8") if args.timings else nullcontext() as timings:
        sweep, fixed = _sweep_rows(args.qmax), _fixed_rows(args.qmax, args.seed)
        # the rows import these when they run; loaded once here, before the
        # fork, neither process pays for them again
        from . import charsum, linleak, pqm, shamir7  # noqa: F401

        if hasattr(os, "fork"):
            pairs = _run_beside(sweep, fixed)
        else:
            pairs = [_timed_row(row) for row in sweep + fixed]
        if timings is not None:
            timings.writelines(f"{seconds:.6f} {check['name']}\n" for check, seconds in pairs)
    checks = [check for check, _ in pairs]
    payload = {
        "qmax": args.qmax,
        "seed": args.seed,
        "passed": sum(1 for c in checks if c["pass"]),
        "failed": sum(1 for c in checks if not c["pass"]),
    }
    return RunReport("suite", payload, checks)


# ---------------------------------------------------------------- dispatch


def _field_flag(sp) -> None:
    sp.add_argument("--q", type=int, required=True, help="field size (prime power)")


def _seed_flag(sp, default=0) -> None:
    sp.add_argument("--seed", type=int, default=default, help="seed for randomized batteries")


def _scheme_flag(sp) -> None:
    sp.add_argument("--scheme", required=True, help="scheme JSON file")


def _no_flags(sp) -> None:
    pass


def _charsum_flags(sp) -> None:
    _field_flag(sp)
    sp.add_argument("--poly", type=_csv_ints, required=True,
                    help="coefficients, constant first (e.g. 0,1,0,1)")


def _qm_verify_flags(sp) -> None:
    _scheme_flag(sp)
    sp.add_argument("--domain", choices=tuple(_DOMAIN_MODES), default="nonzero")


def _qm_search_flags(sp) -> None:
    _field_flag(sp)
    sp.add_argument("--mode", choices=(QM, MQM, APPENDIX), default=MQM)
    sp.add_argument("--tmax", type=int, default=None, help="largest bit budget to try")
    sp.add_argument("--budget", type=int, default=10**6, help="search node budget")
    sp.add_argument("--servers", type=_csv_ints, default=None,
                    help="server points (default: whole field)")


def _pqm_run_flags(sp) -> None:
    sp.add_argument("--v-file", required=True, help="JSON file with a v_seq")
    sp.add_argument("--transcript", type=_csv_ints, required=True, help="bits (e.g. 0,1,0)")
    sp.add_argument("--q", type=int,
                    help="field size when the file has no descriptor; must match it if it has one")


def _game_flags(sp) -> None:
    from .pqm import STRATEGIES

    _field_flag(sp)
    _seed_flag(sp)
    sp.add_argument("--strategy", choices=STRATEGIES, default="greedy-halving")
    sp.add_argument("--max-rounds", type=int, default=None)
    sp.add_argument("--v-file", default=None, help="v_seq JSON for the replay strategy")


def _linleak_check_flags(sp) -> None:
    _field_flag(sp)
    _seed_flag(sp, default=None)  # None tells an explicit --seed apart for --exhaustive
    sp.add_argument("--k", type=int, default=2, help="message dimension")
    sp.add_argument("--i", type=int, default=0, help="first target coefficient")
    sp.add_argument("--j", type=int, default=1, help="second target coefficient")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true", help="all query tuples")
    group.add_argument("--samples", type=int, default=1000, help="random tuples to draw")


def _gf7_leak_flags(sp) -> None:
    sp.add_argument("--alpha", type=int, required=True, help="evaluation point")
    sp.add_argument("--set", type=_csv_ints, required=True, help="leakage set (e.g. 0,1,6)")


def _suite_flags(sp) -> None:
    _seed_flag(sp)
    sp.add_argument("--qmax", type=int, default=64, help="largest field size to cover")
    sp.add_argument("--timings", metavar="FILE", default=None,
                    help="write '<seconds> <check name>' per check to FILE, in report order")


class _Command(NamedTuple):
    help: str
    flags: Callable  # adds the command's own flags to its parser


_GROUPS = {
    "qm": "bit-leakage schemes",
    "pqm": "pruning decoder",
    "linleak": "linear one-symbol probes",
    "gf7": "the fixed five-bit scheme over GF(7)",
}

# every command path in help order; a two-word path sits under its _GROUPS
# entry, and the handler of path (a, b) is cmd_a_b
_COMMANDS = {
    ("field",): _Command("print a field descriptor", _field_flag),
    ("residues",): _Command("restricted set, roots, pair, unions", _field_flag),
    ("charsum",): _Command("complete quadratic character sum", _charsum_flags),
    ("buckets",): _Command("evaluation-image table", _field_flag),
    ("qm", "verify"): _Command("check a scheme file", _qm_verify_flags),
    ("qm", "search"): _Command("minimum-bandwidth search", _qm_search_flags),
    ("qm", "convert"): _Command("translate a scheme to eliminators", _scheme_flag),
    ("pqm", "run"): _Command("replay a transcript against eliminators", _pqm_run_flags),
    ("game",): _Command("adversarial pruning game", _game_flags),
    ("bound",): _Command("closed-form round floors", _field_flag),
    ("linleak", "check"): _Command(
        "transcript collisions below full download", _linleak_check_flags
    ),
    ("gf7", "verify"): _Command("verify the 36-line reconstruction", _no_flags),
    ("gf7", "table"): _Command("print the 7x7 image grid", _no_flags),
    ("gf7", "leak"): _Command("products ruled out by one bit", _gf7_leak_flags),
    ("suite",): _Command("full verification battery", _suite_flags),
}


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv.  When argv's leading words name a command, only
    the parsers on its path are built (the top level, its group, the leaf);
    otherwise, or for argv None, the whole tree, so help, usage and errors
    list every command."""
    words = tuple(argv or ())
    named = {words[:n] for n in (1, 2) if words[:n] in _COMMANDS}  # one path or none
    parser = argparse.ArgumentParser(
        prog="qmlab",
        description="verification lab for low-bandwidth coefficient-product recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    groups = {}
    for path in named or _COMMANDS:
        owner = sub
        if len(path) == 2:
            owner = groups.get(path[0])
            if owner is None:
                group = sub.add_parser(path[0], help=_GROUPS[path[0]])
                owner = groups[path[0]] = group.add_subparsers(
                    dest="action", required=True, metavar="action"
                )
        cmd = _COMMANDS[path]
        # no prefix matching: a dropped flag such as --p must not read as --poly
        sp = owner.add_parser(path[-1], help=cmd.help, allow_abbrev=False)
        sp.add_argument("--json", action="store_true", help="emit the canonical JSON report")
        cmd.flags(sp)
        # looked up when the parser is built, so a wrapper set on the module runs
        sp.set_defaults(func=globals()["cmd_" + "_".join(path)])
    return parser


def cmd_dispatch(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.func(args)
    except (QmLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.started = started
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except OSError as exc:
        # drop what stdout still buffers, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed reader leaves the verdict standing
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    return 0 if report.ok() else 1


def main() -> None:
    code = cmd_dispatch()
    # the report is written: move every live object out of the collector's
    # reach, so the final collection at exit does not walk them
    gc.freeze()
    sys.exit(code)
