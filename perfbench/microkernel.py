"""L0 microkernels: per-operation cost of FieldCtx arithmetic.

Usage: python perfbench/child.py microkernel

Times FieldCtx.add and FieldCtx.mul over all q^2 ordered pairs and
FieldCtx.trace over all q elements, and checks every result against a
reference written here from the field's reducing polynomial alone
(digit-wise addition, schoolbook multiplication reduced by the modulus, and
the trace as the sum of Frobenius powers).  Prints one JSON object:
{"ok": bool, "errors": [...], "ns": {"galois.add.ns.gf64": ..., ...}}.
"""

from __future__ import annotations

import json
import statistics
import time

KERNELS = (("add", 64), ("add", 81), ("mul", 243), ("trace", 8))
SAMPLES = 7
MIN_SAMPLE_S = 0.02


class Reference:
    """GF(p^e) arithmetic on base-p digit lists, independent of FieldCtx."""

    def __init__(self, p: int, e: int, modulus):
        self.p, self.e, self.modulus = p, e, list(modulus)

    def digits(self, a: int) -> list:
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def number(self, ds) -> int:
        n = 0
        for d in reversed(ds):
            n = n * self.p + d
        return n

    def add(self, a: int, b: int) -> int:
        return self.number([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, e - 1, -1):  # modulus is monic of degree e
            lead = prod[k]
            if lead:
                for w, c in enumerate(self.modulus):
                    prod[k - e + w] = (prod[k - e + w] - lead * c) % p
        return self.number(prod[:e])

    def trace(self, a: int) -> int:
        acc, t = a, a
        for _ in range(self.e - 1):
            power = 1
            for _ in range(self.p):
                power = self.mul(power, t)
            t = power
            acc = self.add(acc, t)
        return acc


def _kernel(ctx, op: str):
    q = ctx.q
    if op == "trace":
        trace = ctx.trace
        return list(range(q)), lambda elems: [trace(a) for a in elems]
    fn = getattr(ctx, op)
    pairs = [(a, b) for a in range(q) for b in range(q)]
    return pairs, lambda items: [fn(a, b) for a, b in items]


def _reference_values(ref: Reference, op: str, items) -> list:
    if op == "trace":
        return [ref.trace(a) for a in items]
    fn = getattr(ref, op)
    return [fn(a, b) for a, b in items]


def measure(ctx, op: str) -> tuple:
    """(ns per operation, error message or None)."""
    items, sweep = _kernel(ctx, op)
    got = sweep(items)
    ref = Reference(ctx.p, ctx.e, ctx.irreducible)
    want = _reference_values(ref, op, items)
    error = None
    if got != want:
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        error = f"GF({ctx.q}) {op}{items[bad]} = {got[bad]}, reference {want[bad]}"
    elif op == "trace" and any(v >= ctx.p for v in got):
        error = f"GF({ctx.q}) trace left the prime subfield"
    start = time.perf_counter()
    sweep(items)
    once = time.perf_counter() - start
    reps = max(1, int(MIN_SAMPLE_S / max(once, 1e-9)))
    samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        for _ in range(reps):
            sweep(items)
        samples.append((time.perf_counter() - start) / (reps * len(items)))
    return statistics.median(samples) * 1e9, error


def main() -> int:
    from qmlab.galois import field

    ns, errors = {}, []
    for op, q in KERNELS:
        value, error = measure(field(q), op)
        ns[f"galois.{op}.ns.gf{q}"] = value
        if error:
            errors.append(error)
    print(json.dumps({"ok": not errors, "errors": errors, "ns": ns}))
    return 0
