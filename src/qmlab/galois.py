"""Exact arithmetic in GF(p^e).

Field elements are plain Python ints in [0, q).  The integer n encodes the
polynomial-basis element sum(d_w * x^w) where (d_0, d_1, ...) are the base-p
digits of n, least significant first.  In particular 0 is the additive and 1
the multiplicative identity, and for prime fields the encoding is the residue
itself.

The reducing polynomial is the lexicographically smallest monic irreducible of
degree e over F_p, compared as the coefficient sequence (c_0, ..., c_{e-1}, 1)
with the constant term first.  It is found by deterministic search, so two
runs (or two implementations) agree on every encoding without an external
polynomial table.

Addition takes one of three paths, fixed by the field:

- p = 2: the base-2 digits add mod 2, so a + b = a - b = a XOR b and -a = a.
- odd p with exp/log tables (q <= _TABLE_LIMIT): Zech logarithms.  For a
  generator g and i in [0, q-1), zech[i] = log(1 + g^i), or -1 when
  1 + g^i = 0, so g^i + g^j = g^(i + zech[j - i]) is one table lookup
  (Huber, "Some comments on Zech's logarithms", IEEE Trans. IT 1990).
- odd p above the table limit: digit-wise arithmetic mod p, the same fork
  `mul` takes between the tables and polynomial reduction.

Prime fields (e = 1) add residues mod p directly.  `add_elems` adds two
sequences elementwise and picks the path once per call: mod p, XOR, or
`add` itself for the Zech and digit-wise paths.

Only `add`, `mul`, `inv`, `pow`, `trace` and `poly_eval` (and the bulk
`add_elems` and `scale_elems`) pick a path by field.  The rest is composed:
a - b = a + (-b) and a / b = a * b^-1 on every field, and -a is a itself
for p = 2 and -d mod p on each base-p digit otherwise.

The exp table holds two periods, exp[i] = g^(i mod (q - 1)) for i in
[0, 2(q - 1)), while log and zech are built from the first.  A sum of two
logs is then a valid index with no modulo (`mul`, the Zech shift in `add`,
`scale_elems`), and so is a negated log, which counts from the end of the
table and lands one period ahead (`inv`).

`trace` reads a per-field table of q entries on tabled fields, built on
its first call by the Frobenius-sum loop with its prime-subfield assert run
on every element.  Above the table limit it uses that the trace is
prime-subfield linear: Tr(a) = sum_d digit_d(a) * Tr(x^d) mod p, with the e
values Tr(x^d) built once per field by the same loop.

`poly_eval` runs Horner's rule with the step picked once per call:
(acc*x + c) mod p on prime fields, exp[log acc + log x] XOR c on tabled
p = 2 fields, and `mul` then `add` on every other field.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import DivisionByZero, UnsupportedField

MAX_Q = 2**20
_TABLE_LIMIT = 2**12  # build exp/log tables up to this field size


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p**e, or None when q is not a prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# --- polynomial helpers over F_p (dense little-endian coefficient lists) ---


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(p, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(p, a, m):
    """a mod m with m monic."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _ptrim(a)


def _poly_is_irreducible(p: int, poly: list[int]) -> bool:
    """Monic poly over F_p; trial division by every monic poly of degree <= deg/2."""
    e = len(poly) - 1
    if e == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, e // 2 + 1):
        for enc in range(p**d):
            div = _digits_of(enc, p, d) + [1]
            if not _pmod(p, poly, div):
                return False
    return True


def _digits_of(n: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p.

    Returned constant-term first, including the leading 1.  The comparison is
    on the constant-first sequence (c_0, ..., c_{e-1}), so itertools.product
    (first coordinate most significant) enumerates candidates in order.
    """
    if e == 1:
        return (0, 1)
    for cs in itertools.product(range(p), repeat=e):
        cand = list(cs) + [1]
        if _poly_is_irreducible(p, cand):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """A concrete GF(p^e) with fixed reducing polynomial and integer encoding."""

    def __init__(self, p: int, e: int, irreducible=None):
        # size checks come first: primality testing a huge p, or raising p to
        # a huge e, would not finish
        if p > MAX_Q:
            raise ValueError(f"p={p} exceeds the supported limit {MAX_Q}")
        if e > MAX_Q.bit_length():
            raise ValueError(f"q={p}^{e} exceeds the supported limit {MAX_Q}")
        if prime_power(p) != (p, 1):
            raise ValueError(f"p={p} is not prime")
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p**e
        if q > MAX_Q:
            raise ValueError(f"q={q} exceeds the supported limit {MAX_Q}")
        if irreducible is None:
            irreducible = canonical_irreducible(p, e)
        else:
            irreducible = tuple(int(c) % p for c in irreducible)
            if len(irreducible) != e + 1 or irreducible[-1] != 1:
                raise ValueError("reducing polynomial must be monic of degree e")
            if not _poly_is_irreducible(p, list(irreducible)):
                raise ValueError("reducing polynomial is reducible")
        self.p = p
        self.e = e
        self.q = q
        self.irreducible = irreducible
        # every lru_cache keyed by a context hashes it; compute that once
        self._hash = hash((p, e, irreducible))
        self._exp = None  # exp/log tables, built for small fields
        self._log = None
        self._zech = None  # Zech logarithms, for tabled odd-p extension fields
        self._trace = None  # trace table, built by the first `trace` on a tabled field
        self._trace_basis = None  # (Tr(x^d))_d, built by the first `trace` above the limit
        if q <= _TABLE_LIMIT:
            self._build_tables()

    # -- identity / hashing -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.irreducible) == (other.p, other.e, other.irreducible)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e})"

    def descriptor(self) -> dict:
        return {"p": self.p, "e": self.e, "irreducible": list(self.irreducible)}

    # -- encoding -----------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        return _digits_of(a, self.p, self.e)

    def from_digits(self, ds) -> int:
        n = 0
        for d in reversed(list(ds)):
            n = n * self.p + d % self.p
        return n

    @property
    def elements(self) -> range:
        return range(self.q)

    @property
    def units(self) -> range:
        return range(1, self.q)

    # -- raw polynomial arithmetic (used to bootstrap the tables) -----------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _pmul(self.p, self.digits(a), self.digits(b))
        return self.from_digits(_pmod(self.p, prod, list(self.irreducible)))

    def _raw_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return r

    def _order(self, a: int) -> int:
        n = self.q - 1
        for r in prime_factors(n):
            while n % r == 0 and self._raw_pow(a, n // r) == 1:
                n //= r
        return n

    def _build_tables(self):
        g = find_primitive(self)
        exp = [1] * (self.q - 1)
        for i in range(1, self.q - 1):
            exp[i] = self._raw_mul(exp[i - 1], g)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        if self.p > 2 and self.e > 1:
            # adding 1 changes only digit 0 of the encoding; 1 + v = 0 iff v = -1
            p = self.p
            ones = (v - v % p + (v + 1) % p for v in exp)
            self._zech = [log[w] if w else -1 for w in ones]
        self._exp, self._log = exp + exp, log  # two periods, see the module docstring

    # -- field operations ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b: mod p for prime fields, XOR for p = 2, a Zech-logarithm lookup
        for tabled odd-p extension fields, digit-wise mod p above the table limit."""
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            p = self.p
            return self.from_digits((x + y) % p for x, y in zip(self.digits(a), self.digits(b)))
        if a == 0:
            return b
        if b == 0:
            return a
        # g^i + g^j = g^i * (1 + g^(j-i)) = g^(i + zech[j-i]); zech spans one
        # period, so a negative j - i indexes it mod q - 1
        log = self._log
        i = log[a]
        z = zech[log[b] - i]
        return 0 if z < 0 else self._exp[i + z]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        """-a: a itself for p = 2, otherwise -d mod p on each base-p digit
        (`from_digits` reduces them)."""
        if self.p == 2:
            return a
        return self.from_digits(-d for d in self.digits(a))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp = self._exp
        if exp is not None:
            log = self._log
            return exp[log[a] + log[b]]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._exp is not None:
            return self._exp[-self._log[a]]
        return self._raw_pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        n %= self.q - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % (self.q - 1)]
        return self._raw_pow(a, n)

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^p + ... + a^{p^{e-1}}; always lands in the prime subfield.

        A table lookup on tabled fields; the first call builds the table.
        Above the table limit the trace is read off the digits of a, since it
        is prime-subfield linear: Tr(a) = sum_d digit_d(a) * Tr(x^d) mod p."""
        table = self._trace
        if table is None:
            if self._exp is None:
                basis = self._trace_basis
                if basis is None:
                    basis = self._trace_basis = [self._trace_sum(self.p**d) for d in range(self.e)]
                return sum(d * t for d, t in zip(self.digits(a), basis)) % self.p
            table = self._trace = [self._trace_sum(x) for x in range(self.q)]
        return table[a]

    def _trace_sum(self, a: int) -> int:
        """Tr(a) as the sum of the e Frobenius powers of a."""
        t = a
        acc = a
        for _ in range(self.e - 1):
            t = self.pow(t, self.p)
            acc = self.add(acc, t)
        assert acc < self.p, "trace left the prime subfield"
        return acc

    def poly_eval(self, coeffs, x: int) -> int:
        """Evaluate sum(coeffs[w] * x^w) by Horner's rule; coeffs is a sequence.

        The step acc -> acc*x + c is picked once per call: residues mod p on
        prime fields, an exp/log lookup and XOR on tabled p = 2 fields (for
        x != 0), `mul` and `add` otherwise."""
        acc = 0
        if self.e == 1:
            p = self.p
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            return acc
        exp = self._exp
        if self.p == 2 and exp is not None and x:
            log = self._log
            shift = log[x]
            for c in reversed(coeffs):
                acc = (exp[log[acc] + shift] if acc else 0) ^ c
            return acc
        add, mul = self.add, self.mul
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        return acc


@lru_cache(maxsize=None)
def field(q: int) -> FieldCtx:
    """FieldCtx for the prime power q with the canonical reducing polynomial."""
    if q > MAX_Q:  # before prime_power, whose trial division would not finish
        raise ValueError(f"q={q} exceeds the supported limit {MAX_Q}")
    pe = prime_power(q)
    if pe is None:
        raise ValueError(f"q={q} is not a prime power")
    return FieldCtx(*pe)


@lru_cache(maxsize=None)
def find_primitive(ctx: FieldCtx) -> int:
    """Smallest encoding that generates the multiplicative group."""
    if ctx.q == 2:
        return 1
    return next(a for a in range(2, ctx.q) if ctx._order(a) == ctx.q - 1)


@lru_cache(maxsize=None)
def find_primitive_zero_inv_trace(ctx: FieldCtx) -> int:
    """Smallest primitive w with trace(1/w) = 0; binary fields with e >= 3 only."""
    if ctx.p != 2 or ctx.e < 3:
        raise UnsupportedField(f"needs p=2 and e>=3, got GF({ctx.q})")
    for a in range(2, ctx.q):
        if ctx._order(a) == ctx.q - 1 and ctx.trace(ctx.inv(a)) == 0:
            return a
    raise AssertionError(f"no prescribed-trace primitive element in GF({ctx.q})")


# --- bit-mask subsets of the field (bit i <-> element encoding i) -----------


def mask_of(elems) -> int:
    m = 0
    for x in elems:
        m |= 1 << x
    return m


def mask_elems(mask: int) -> tuple[int, ...]:
    """The set bits of mask in increasing order, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def scale_elems(ctx: FieldCtx, c: int, xs) -> list[int]:
    """[c*x for x in xs], one shift in the exponent per element on tabled fields.

    log(c) + log(x) lies in [0, 2(q - 1) - 2], inside the two-period exp
    table, so it needs no modulo.  Fields above the table limit multiply
    directly.
    """
    if c == 0:
        return [0] * len(xs)
    exp, log = ctx._exp, ctx._log
    if exp is None:
        mul = ctx.mul
        return [mul(c, x) for x in xs]
    shift = log[c]
    return [exp[log[x] + shift] if x else 0 for x in xs]


def add_elems(ctx: FieldCtx, xs, ys) -> list[int]:
    """[x + y for x, y in zip(xs, ys)], the add path picked once per call:
    mod p on prime fields, XOR for p = 2, `ctx.add` otherwise."""
    if ctx.e == 1:
        p = ctx.p
        return [(x + y) % p for x, y in zip(xs, ys)]
    if ctx.p == 2:
        return [x ^ y for x, y in zip(xs, ys)]
    return list(map(ctx.add, xs, ys))


def scale_mask(ctx: FieldCtx, c: int, mask: int) -> int:
    """The mask of c*S for the set S that `mask` holds."""
    return mask_of(scale_elems(ctx, c, mask_elems(mask)))


def mask_full(q: int) -> int:
    return (1 << q) - 1


def mask_complement(mask: int, q: int) -> int:
    return mask ^ mask_full(q)


def mask_to_hex(mask: int, q: int) -> str:
    width = max(1, math.ceil(q / 4))
    return format(mask, f"0{width}x")


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def mask_from_hex(text: str, q: int) -> int:
    """The mask a string of ASCII hex digits spells; no prefix, sign,
    underscore or whitespace."""
    if not text or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"mask {text!r} is not a string of hex digits")
    mask = int(text, 16)
    if mask >= (1 << q):
        raise ValueError(f"mask {text!r} has bits beyond the field size {q}")
    return mask
