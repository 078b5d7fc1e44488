"""Homomorphic digit ciphers over Z_p at fixed precision.

Five key families, each measure preserving and homomorphic for one
operation on plaintexts:

* additive:        y = A*x                        respects +
* multiplicative:  y = p^k A^k w(t0)^s <u>^a      respects *
* xor:             lower-triangular digit maps    respects digitwise +
* and:             digitwise exponentiation       respects digitwise *
* fhe:             y = A*x with A^d = 1           respects + and a chosen
                   two-variable operation G simultaneously

The multiplicative rule decomposes x = p^k u, splits the unit into its
Teichmuller part w = w(t0) and principal part <u> = u/w (which is = 1 mod p),
and maps them through independent exponents.  Writing the rule directly on
the digits t0 and t (as x = p^k(t0 + pt) -> p^k A^k (t0^s mod p)(1+pt)^a)
breaks multiplicativity whenever s != 1 because (t0^s mod p) is not a
multiplicative function of the unit; the Teichmuller form repairs exactly
that defect and the tests keep the broken variant around as a regression
witness.

For a two-variable operation G whose monomials all have total degree in some
set N, a unit A commutes with G (A*G(x,y) = G(Ax,Ay)) exactly when A^d = 1
for d = gcd{n - 1 : n in N}.  For odd p the solutions in Z_p are the
Teichmuller lifts of the mod-p solutions, so there are gcd(d, p-1) usable
multipliers, A = 1 among them: small primes make thin fhe key spaces.

Each key class draws its own random key (``draw``, which ``keygen`` finds
through ``FAMILIES``) and carries its own integer kernels, ``enc_int`` and
``dec_int``, on residues mod p^K; ``encrypt``/``decrypt`` wrap them in a
``PadicInt``.
What a kernel precomputes from the key (inverse multipliers and exponents,
the packed columns of the xor matrix and of its inverse over F_p, and for
p <= 7 the xor and and block tables of at most 64 entries each) is built on
the key's first use, not when the key is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate, repeat
from random import Random
from typing import get_args

from .core import (
    ContextMismatchError,
    DomainError,
    FormatError,
    PadicContext,
    PadicError,
    PadicInt,
    _is_prime,
    digitwise,
    from_text,
    is_unit,
    pow_nat,
    teichmuller,
    to_text,
)


class InvalidKeyError(PadicError):
    """Key parameters violate the family's constraints."""


# -- two-variable operations ---------------------------------------------------
#
# Each operation has one integer kernel, ``kernel(xs, y, p, m)``: the list of
# G(x, y) mod m for every x in ``xs``, for residues mod m = p^k.  A kernel
# computes what depends on y alone once per call, so one call gives a whole
# row of an operation table; ``g_eval`` calls it with a single x.  A
# coefficient stored at precision K reads at level k <= K as its value mod
# p^k, which the final reduction mod m does, so kernels use ``value`` as is.
# ``coefficients`` lists the PadicInt coefficients, for the context checks.


@dataclass(frozen=True)
class LinearG:
    """G(x, y) = a*x + b*y."""

    name = "GLIN"

    a: PadicInt
    b: PadicInt

    @property
    def coefficients(self) -> tuple[PadicInt, ...]:
        return (self.a, self.b)

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        a, by = self.a.value, self.b.value * y
        return [(a * x + by) % m for x in xs]


@dataclass(frozen=True)
class G1:
    """G(x, y) = x * y**(p-1)."""

    name = "G1"
    coefficients = ()

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        yy = pow(y, p - 1, m)
        return [x * yy % m for x in xs]


@dataclass(frozen=True)
class G2:
    """G(x, y) = x**(p-1) * y + x * y**(p-1)."""

    name = "G2"
    coefficients = ()

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        yy = pow(y, p - 1, m)
        return [(pow(x, p - 1, m) * y + x * yy) % m for x in xs]


@dataclass(frozen=True)
class G3:
    """G(x, y) = x**((p-1)/2) * y**((p-1)/2); p odd."""

    name = "G3"
    coefficients = ()

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        if p == 2:
            raise DomainError("this operation needs an odd p (exponent (p-1)/2)")
        e = (p - 1) // 2
        yy = pow(y, e, m)
        return [pow(x, e, m) * yy % m for x in xs]


@dataclass(frozen=True)
class G4:
    """G(x, y) = x/(1 - p x**(p-1)) + y/(1 - p y**(p-1))
    = sum over s >= 0 of p^s (x**((p-1)s+1) + y**((p-1)s+1))."""

    name = "G4"
    coefficients = ()

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        def half(v: int) -> int:  # v/(1 - p v^(p-1)); the divisor is 1 mod p
            return v * pow(1 - p * pow(v, p - 1, m), -1, m)

        hy = half(y)
        return [(half(x) + hy) % m for x in xs]


@dataclass(frozen=True)
class SeriesG:
    """G(x, y) = c + a*x + b*y + sum c_ij x^i y^j over a finite term list.

    Terms are ((i, j), coefficient) pairs with i + j >= 2.  A nonzero c
    cannot commute with any multiplier, so c = 0 is required whenever the
    term list is nonempty.
    """

    name = "GSERIES"

    c: PadicInt
    a: PadicInt
    b: PadicInt
    terms: tuple[tuple[tuple[int, int], PadicInt], ...]

    def __post_init__(self) -> None:
        for (i, j), coeff in self.terms:
            if i < 0 or j < 0 or i + j < 2:
                raise DomainError(
                    f"series term x^{i} y^{j} must have total degree >= 2"
                )
        if self.terms and self.c.value != 0:
            raise DomainError("a nonzero constant term admits no multipliers; use c = 0")

    @property
    def coefficients(self) -> tuple[PadicInt, ...]:
        # g_eval names the first coefficient in another context, in this order
        return (self.a, self.c, self.b, *(coeff for _, coeff in self.terms))

    def kernel(self, xs, y: int, p: int, m: int) -> list[int]:
        base = self.c.value + self.b.value * y
        a = self.a.value
        terms = [(i, coeff.value * pow(y, j, m)) for (i, j), coeff in self.terms]
        return [
            (base + a * x + sum(cy * pow(x, i, m) for i, cy in terms)) % m for x in xs
        ]


GOperation = LinearG | G1 | G2 | G3 | G4 | SeriesG
_G_CLASSES = get_args(GOperation)

NAMED_G = {g.name: g for g in (G1(), G2(), G3(), G4())}

G_CHOICES = (*NAMED_G, "GLIN")


# -- named operations and laws ---------------------------------------------------

_KINDS = ("ADD", "MUL", "XOR", "AND", "G")


@dataclass(frozen=True)
class OpSymbol:
    """A named two-argument operation.

    kind "G" carries a concrete operation, or None for a linear placeholder
    to be bound at use (a key file supplies the coefficients).
    """

    kind: str
    g: GOperation | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown operation kind {self.kind!r}")
        if self.kind != "G" and self.g is not None:
            raise DomainError(f"{self.kind} does not take an operation parameter")

    @property
    def name(self) -> str:
        if self.kind != "G":
            return self.kind
        return "GLIN" if self.g is None else self.g.name


ADD = OpSymbol("ADD")
MUL = OpSymbol("MUL")
XOR = OpSymbol("XOR")
AND = OpSymbol("AND")


def g_sym(op: GOperation) -> OpSymbol:
    return OpSymbol("G", op)


# Every operation by the name the CLI and formulas use for it.
OP_NAMES = {
    **{op.name: op for op in (ADD, MUL, XOR, AND)},
    **{name: g_sym(g) for name, g in NAMED_G.items()},
    "GLIN": OpSymbol("G"),
}


def op_apply(
    sym: OpSymbol, x: PadicInt, y: PadicInt, linear_g: LinearG | None = None
) -> PadicInt:
    if sym.kind != "G":
        x._check_ctx(y)
        return PadicInt(x.ctx, _op_int(sym, x.ctx, x.value, y.value))
    g = sym.g if sym.g is not None else linear_g
    if g is None:
        raise DomainError("linear operation is unbound; supply its coefficients")
    return g_eval(g, x, y)


def _op_int(sym: OpSymbol, ctx: PadicContext, x: int, y: int) -> int:
    kind = sym.kind
    if kind == "ADD":
        return (x + y) % ctx.modulus
    if kind == "MUL":
        return (x * y) % ctx.modulus
    if kind == "G":
        return sym.g.kernel((x,), y, ctx.p, ctx.modulus)[0]
    return digitwise(x, y, ctx.p, ctx.precision, multiply=kind == "AND")


def g_eval(op: GOperation, x: PadicInt, y: PadicInt) -> PadicInt:
    if x.ctx != y.ctx:
        raise DomainError("operands live in different contexts")
    if not isinstance(op, _G_CLASSES):
        raise DomainError(f"unknown operation {op!r}")
    ctx = x.ctx
    stray = next((v for v in op.coefficients if v.ctx != ctx), None)
    if stray is not None:
        if isinstance(op, LinearG):
            raise DomainError("linear coefficients live in a different context")
        raise ContextMismatchError(f"mixed contexts {stray.ctx} and {ctx}")
    return PadicInt(ctx, op.kernel((x.value,), y.value, ctx.p, ctx.modulus)[0])


def exponent_gcd(op: GOperation, p: int) -> int | None:
    """d = gcd{n - 1 : n a total degree appearing in G}; None for linear G."""
    if isinstance(op, LinearG):
        return None
    if isinstance(op, (G1, G2)):
        return p - 1  # single total degree p
    if isinstance(op, G3):
        return p - 2  # single total degree p - 1
    if isinstance(op, G4):
        return p - 1  # degrees (p-1)s + 1, s >= 1
    degrees = {i + j for (i, j), coeff in op.terms if coeff.value != 0}
    if not degrees:
        return None
    return math.gcd(*[n - 1 for n in degrees])


def admissible_multipliers(ctx: PadicContext, op: GOperation) -> frozenset[PadicInt] | None:
    """All solutions of A^d = 1 in Z_p at precision K, for d = exponent_gcd;
    None for a linear G, which every unit commutes with."""
    if ctx.p == 2:
        raise DomainError("admissible multipliers are computed for odd p")
    d = exponent_gcd(op, ctx.p)
    return None if d is None else roots_of_unity(ctx, d)


def roots_of_unity(ctx: PadicContext, d: int) -> frozenset[PadicInt]:
    """Solutions of A^d = 1 in Z_p at precision K (p odd).

    The principal units are torsion free for odd p, so the solutions are the
    Teichmuller lifts of the g = gcd(d, p-1) roots of x^d = 1 mod p.  Those
    form the cyclic subgroup of F_p^* generated by z = r^((p-1)/g), r a
    primitive root, and w is multiplicative: the lifts are w(z)^i, i < g.
    """
    return frozenset(PadicInt(ctx, a) for a in _root_values(ctx, d))


def _root_values(ctx: PadicContext, d: int) -> list[int]:
    """The values of roots_of_unity(ctx, d), 1 first."""
    p = ctx.p
    if p == 2:
        raise DomainError("roots of unity are computed for odd p")
    if d < 1:
        raise DomainError("exponent must be >= 1")
    _check_draw_budget(p)
    g, m = math.gcd(d, p - 1), ctx.modulus
    w = teichmuller(ctx, pow(_primitive_root(p), (p - 1) // g, p)).value
    return [*accumulate(repeat(w, g - 1), lambda a, b: a * b % m, initial=1)]


def _primitive_root(p: int) -> int:
    """The least r with r^((p-1)/q) != 1 mod p for every prime q dividing p-1."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


# -- key fields in JSON -------------------------------------------------------------
#
# A codec is a pair (dump, load): dump(name, value) gives the JSON entries that
# hold a key field, and load(data, name, ctx) reads the field back from them.


def _field(data: dict, name: str, kind: type):
    value = data[name]
    if not isinstance(value, kind):
        raise FormatError(
            f"key field {name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _integer(value, what: str) -> int:
    if type(value) is not int:  # JSON true/false load as bool, a subclass of int
        raise FormatError(f"{what} must be a JSON integer, got {type(value).__name__}")
    return value


def _integers(values: list, name: str) -> tuple[int, ...]:
    return tuple(_integer(v, f"each entry of key field {name!r}") for v in values)


def _load_rows(data: dict, name: str, ctx: PadicContext) -> tuple[tuple[int, ...], ...]:
    rows = _field(data, name, list)
    if not all(isinstance(row, list) for row in rows):
        raise FormatError(f"key field {name!r} must be a list of lists")
    return tuple(_integers(row, name) for row in rows)


def _dump_operation(name: str, g: GOperation) -> dict:
    if isinstance(g, SeriesG):
        raise DomainError("series operations are not supported in key files")
    out = {name: g.name}
    if isinstance(g, LinearG):
        out |= {"ga": to_text(g.a), "gb": to_text(g.b)}
    return out


def _load_operation(data: dict, name: str, ctx: PadicContext) -> GOperation:
    def coefficient(field: str) -> PadicInt | None:
        return from_text(_field(data, field, str), ctx) if field in data else None

    return operation_from_name(data[name], ctx, a=coefficient("ga"), b=coefficient("gb"))


_CONTEXT = (lambda name, ctx: {}, lambda data, name, ctx: ctx)  # in "p" and "precision"
_RESIDUE = (
    lambda name, x: {name: to_text(x)},
    lambda data, name, ctx: from_text(_field(data, name, str), ctx),
)
_INTEGER = (
    lambda name, n: {name: n},
    lambda data, name, ctx: _integer(data[name], f"key field {name!r}"),
)
_INTEGERS = (
    lambda name, values: {name: list(values)},
    lambda data, name, ctx: _integers(_field(data, name, list), name),
)
_ROWS = (lambda name, rows: {name: [list(r) for r in rows]}, _load_rows)
_OPERATION = (_dump_operation, _load_operation)


# -- key families ----------------------------------------------------------------
#
# Each class states the operations its encryption map respects (``laws``), its
# fields in JSON (``json_fields``, written and read in that order), and draws
# its own random key (``draw(ctx, rng, g)``; only fhe reads g).
#
# Kernel data is built on a key's first use (a cached_property), so a key that
# never encrypts costs nothing extra.  Only the xor and and kernels fill tables
# over digit values, and only for p <= 7, where a block table has at most 64
# entries; from p = 11 on they read one digit at a time, so no key does work
# that grows with p.


DRAW_BUDGET = 1 << 16  # most digits below p a key draw may enumerate: p - 1 <= this


def _check_draw_budget(p: int) -> None:
    """Refuse to enumerate the exponents coprime to p - 1 or the roots of unity."""
    if p - 1 > DRAW_BUDGET:
        raise DomainError(f"a key draw at p = {p} enumerates {p - 1} digits, "
                          f"over the budget of {DRAW_BUDGET}")


def _random_unit(ctx: PadicContext, rng: Random) -> PadicInt:
    return PadicInt(ctx, rng.randrange(1, ctx.p) + ctx.p * rng.randrange(ctx.modulus // ctx.p))


def _coprime_exponents(p: int) -> list[int]:
    _check_draw_budget(p)
    return [s for s in range(1, p) if math.gcd(s, p - 1) == 1]


class _UnitMultiplier:
    """Kernels of y = A*x mod p^K, shared by the additive and fhe families."""

    @property
    def ctx(self) -> PadicContext:
        return self.A.ctx

    def enc_int(self, v: int) -> int:
        A, _, m = self._multipliers
        return A * v % m

    def dec_int(self, v: int) -> int:
        _, A_inv, m = self._multipliers
        return A_inv * v % m

    @cached_property
    def _multipliers(self) -> tuple[int, int, int]:
        m = self.A.ctx.modulus
        return self.A.value, pow(self.A.value, -1, m), m


@dataclass(frozen=True)
class AdditiveKey(_UnitMultiplier):
    family = "additive"
    laws = (ADD,)
    json_fields = {"A": _RESIDUE}
    A: PadicInt

    def __post_init__(self) -> None:
        if not is_unit(self.A):
            raise InvalidKeyError("multiplier A must be a unit")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "AdditiveKey":
        return cls(_random_unit(ctx, rng))


@dataclass(frozen=True)
class MultiplicativeKey:
    family = "multiplicative"
    laws = (MUL,)
    json_fields = {"A": _RESIDUE, "s": _INTEGER, "a": _RESIDUE}
    A: PadicInt
    s: int
    a: PadicInt

    def __post_init__(self) -> None:
        ctx = self.A.ctx
        if ctx.p == 2:
            raise InvalidKeyError("the multiplicative family needs odd p")
        if not is_unit(self.A):
            raise InvalidKeyError("multiplier A must be a unit")
        if self.a.ctx != ctx:
            raise InvalidKeyError("parameters A and a must share a context")
        if not is_unit(self.a):
            raise InvalidKeyError("principal-unit exponent a must be a unit")
        if not 1 <= self.s <= ctx.p - 1 or math.gcd(self.s, ctx.p - 1) != 1:
            raise InvalidKeyError(
                f"digit exponent s must be in [1, {ctx.p - 1}] and coprime to p-1"
            )

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "MultiplicativeKey":
        exps = _coprime_exponents(ctx.p)
        return cls(A=_random_unit(ctx, rng), s=rng.choice(exps), a=_random_unit(ctx, rng))

    @property
    def ctx(self) -> PadicContext:
        return self.A.ctx

    def enc_int(self, v: int) -> int:
        return self._kernel.enc(v)

    def dec_int(self, v: int) -> int:
        return self._kernel.dec(v)

    @cached_property
    def _kernel(self) -> "_MultiplicativeKernel":
        return _MultiplicativeKernel(self)


class _MultiplicativeKernel:
    """The multiplicative family's kernels on plain integers.

    A nonzero x = p^k u, with t = u mod p, maps to p^k A^k w(t)^s <u>^a where
    <u> = u / w(t).  Only the unit factor mod M = p^(K-k) survives the shift by
    p^k, and the principal units mod M form a group of order p^(K-k-1), so the
    exponent a acts through e = a mod p^(K-k-1).  Since <u>^e = u^e w(t)^-e,
    w is multiplicative and w^(p-1) = 1, one Teichmuller lift per call is left:

        enc(x) = p^k * (A^k * w(t^((s-e) mod (p-1))) * u^e  mod M)

    Decryption divides y = p^k y' by p^k A^k to get w1 = w(t)^s <u>^a, whose
    first digit is t^s.  With e' = a^-1 mod p^(K-k-1), w1^e' = w(t)^(s e') <u>:

        dec(y) = p^k * (w1^e' * w(t1^((1 - s e') s^-1 mod (p-1)))  mod M),
                 t1 = w1 mod p
    """

    def __init__(self, key: MultiplicativeKey) -> None:
        ctx = key.ctx
        p, K, m = ctx.p, ctx.precision, ctx.modulus
        A, s, a = key.A.value, key.s, key.a.value
        a_inv = pow(a, -1, p ** (K - 1)) if K > 1 else 0
        s_inv = pow(s, -1, p - 1)
        A_inv = pow(A, -1, m)
        self.p, self.modulus, self.top = p, m, p ** (K - 1)
        self.levels = {}  # p^k -> (k, p^(K-k)), k < K
        self.enc_steps = []  # level k -> (A^k, e, (s - e) mod (p-1))
        self.dec_steps = []  # level k -> (A^-k, e', (1 - s e') s^-1 mod (p-1))
        A_k = A_neg_k = 1
        for k in range(K):
            self.levels[p**k] = (k, p ** (K - k))
            order = p ** (K - k - 1)
            e, e_inv = a % order, a_inv % order
            self.enc_steps.append((A_k, e, (s - e) % (p - 1)))
            self.dec_steps.append((A_neg_k, e_inv, (1 - s * e_inv) * s_inv % (p - 1)))
            A_k, A_neg_k = A_k * A % m, A_neg_k * A_inv % m
        # Filled per digit on first use, at most p - 1 entries.
        self.lifts: dict[int, int] = {}

    def lift(self, c: int) -> int:
        """w(c) mod p^K, in the closed form c^(p^(K-1)) of core.teichmuller."""
        w = self.lifts.get(c)
        if w is None:
            w = self.lifts[c] = pow(c, self.top, self.modulus)
        return w

    def enc(self, x: int) -> int:
        if x == 0:
            return 0
        q = math.gcd(x, self.modulus)  # p^k, k the valuation of x
        k, M = self.levels[q]
        A_k, e, j = self.enc_steps[k]
        u = x // q
        return A_k * self.lift(pow(u, j, self.p)) * pow(u, e, M) % M * q

    def dec(self, y: int) -> int:
        if y == 0:
            return 0
        q = math.gcd(y, self.modulus)
        k, M = self.levels[q]
        A_neg_k, e_inv, h = self.dec_steps[k]
        w1 = y // q * A_neg_k % M
        return pow(w1, e_inv, M) * self.lift(pow(w1, h, self.p)) % M * q


class _SlotMatrix:
    """A lower-triangular matrix over F_p acting on base-p digit vectors.

    Packed-slot evaluation (Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975): column i is one integer whose B-bit slot k holds
    entry (k, i), so the product with the digit vector x is the single integer
    sum x_0 col_0 + ... + x_{K-1} col_{K-1}.  A slot sums at most K products
    below p^2, so B = bitlen(K (p-1)^2) keeps carries out of the next slot;
    each slot is reduced mod p once at the end.
    """

    def __init__(self, columns: list[int], p: int, width: int) -> None:
        self.columns, self.p, self.width = columns, p, width
        self.mask = (1 << width) - 1

    @classmethod
    def from_rows(cls, rows: tuple[tuple[int, ...], ...], p: int) -> "_SlotMatrix":
        K = len(rows)
        width = (K * (p - 1) ** 2).bit_length()
        columns = [sum(rows[k][i] << (width * k) for k in range(i, K)) for i in range(K)]
        return cls(columns, p, width)

    def slot(self, packed: int, k: int) -> int:
        return packed >> (self.width * k) & self.mask

    def apply(self, v: int) -> int:
        p = self.p
        acc = 0
        for col in self.columns:
            v, d = divmod(v, p)
            acc += d * col
        out, mask = 0, self.mask
        for shift in range(self.width * (len(self.columns) - 1), -1, -self.width):
            out = out * p + (acc >> shift & mask) % p
        return out

    def inverse(self) -> "_SlotMatrix":
        """The inverse over F_p, column j by forward substitution on L z = e_j.

        The partial sum of z_i col_i (i < k) holds row k's dot product in slot
        k, so each entry costs one slot read and one packed addition.
        """
        p, width, cols = self.p, self.width, self.columns
        diag_inv = [pow(self.slot(col, k), -1, p) for k, col in enumerate(cols)]
        inverse = []
        for j in range(len(cols)):
            z = diag_inv[j]
            acc, col = z * cols[j], z << (width * j)
            for k in range(j + 1, len(cols)):
                z = -diag_inv[k] * self.slot(acc, k) % p
                if z:
                    acc += z * cols[k]
                    col |= z << (width * k)
            inverse.append(col)
        return _SlotMatrix(inverse, p, width)


# -- block kernels -----------------------------------------------------------------
#
# For p <= 7 the xor and and kernels read v in blocks of h digits, h the most
# with p^h <= 64 (radix conversion by blocks, Knuth, TAOCP vol. 2, 4.4): one
# divmod and one lookup in a table of p^h entries per block.  From p = 11 on
# h would be 1, and the kernels keep their per-digit loops.

_BLOCK_DIGITS = {2: 6, 3: 3, 5: 2, 7: 2}  # p -> h


@cache
def _slot_bytes(p: int) -> tuple[bytes, bytes]:
    """Byte tables taking an 8-bit slot s to s mod p, and to the text of s mod p."""
    return bytes(s % p for s in range(256)), bytes(48 + s % p for s in range(256))


@cache
def _block_texts(p: int) -> tuple[str, ...]:
    """The h-digit base-p text of every value of a block."""
    texts = ("",)
    for _ in range(_BLOCK_DIGITS[p]):
        texts = tuple(str(d) + t for d in range(p) for t in texts)
    return texts


class _DigitBlocks:
    """Table j maps each value of block j to its share of the output.  The
    shares are prepended, low block first, and ``finish`` reads the result."""

    def __init__(self, tables: list[list], q: int, start, finish) -> None:
        self.tables, self.q, self.start, self.finish = tables, q, start, finish

    def apply(self, v: int) -> int:
        acc, q = self.start, self.q
        for t in self.tables:
            v, b = divmod(v, q)
            acc = t[b] + acc
        return self.finish(acc)


def _block_sums(shares: list[list[int]], h: int):
    """For each block of h positions, the list over the block's values of the
    sum of shares[i][digit i], shares[i][d] being what digit d adds at i."""
    for j in range(0, len(shares), h):
        sums = [0]
        for share in shares[j:j + h]:
            sums = [s + c for c in share for s in sums]
        yield sums


def _matrix_kernel(m: _SlotMatrix) -> _SlotMatrix | _DigitBlocks:
    """m itself for p >= 11, else block tables.  An entry is the block's
    column sum with each slot reduced mod p, in 8-bit slots with output digit
    k at byte K-1-k, so high blocks have small entries.  A slot of the sum of
    the shares is at most ceil(K/h)(p-1) <= 192."""
    p, K = m.p, len(m.columns)
    h = _BLOCK_DIGITS.get(p)
    if h is None:
        return m
    reduce, text = _slot_bytes(p)
    columns = [sum(m.slot(col, k) << 8 * (K - 1 - k) for k in range(i, K))
               for i, col in enumerate(m.columns)]
    # before the reduction a slot holds at most h(p-1)^2 <= 72
    tables = [[int.from_bytes(s.to_bytes(K, "little").translate(reduce), "little")
               for s in sums]
              for sums in _block_sums([[d * col for d in range(p)] for col in columns], h)]
    return _DigitBlocks(tables, p**h, 0,
                        lambda acc: int(acc.to_bytes(K, "little").translate(text), p))


class _DigitPowers:
    """Digit k of v maps to its s_k-th power mod p, one divmod per digit."""

    def __init__(self, p: int, exponents: tuple[int, ...]) -> None:
        self.p, self.steps = p, tuple((s, p**k) for k, s in enumerate(exponents))

    def apply(self, v: int) -> int:
        p, out = self.p, 0
        for s, pk in self.steps:
            v, d = divmod(v, p)
            out += pow(d, s, p) * pk
        return out


def _powers_kernel(p: int, exponents: tuple[int, ...]) -> _DigitPowers | _DigitBlocks:
    """Per digit for p >= 11, else block tables whose entries are the output
    block's text from ``_block_texts`` (a short top block reads with leading
    zeros)."""
    h = _BLOCK_DIGITS.get(p)
    if h is None:
        return _DigitPowers(p, exponents)
    texts = _block_texts(p)
    shares = [[pow(d, s, p) * p ** (k % h) for d in range(p)] for k, s in enumerate(exponents)]
    return _DigitBlocks([[texts[s] for s in sums] for sums in _block_sums(shares, h)],
                        p**h, "", partial(int, base=p))


@dataclass(frozen=True)
class XorKey:
    """Row k holds the coefficients of output digit k over input digits 0..k."""

    family = "xor"
    laws = (XOR,)
    json_fields = {"key_ctx": _CONTEXT, "rows": _ROWS}
    key_ctx: PadicContext
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ctx = self.key_ctx
        if len(self.rows) != ctx.precision:
            raise InvalidKeyError(f"need {ctx.precision} rows, got {len(self.rows)}")
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise InvalidKeyError(f"row {k} needs {k + 1} coefficients")
            if any(not 0 <= c < ctx.p for c in row):
                raise InvalidKeyError(f"row {k} has a coefficient out of range")
            if row[k] % ctx.p == 0:
                raise InvalidKeyError(f"row {k} has zero diagonal; not invertible")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "XorKey":
        return cls(ctx, tuple(
            tuple(rng.randrange(ctx.p) for _ in range(k)) + (rng.randrange(1, ctx.p),)
            for k in range(ctx.precision)
        ))

    @property
    def ctx(self) -> PadicContext:
        return self.key_ctx

    def enc_int(self, v: int) -> int:
        return self._forward.apply(v)

    def dec_int(self, v: int) -> int:
        return self._backward.apply(v)

    @cached_property
    def _forward(self) -> _SlotMatrix | _DigitBlocks:
        return _matrix_kernel(_SlotMatrix.from_rows(self.rows, self.key_ctx.p))

    @cached_property
    def _backward(self) -> _SlotMatrix | _DigitBlocks:
        return _matrix_kernel(_SlotMatrix.from_rows(self.rows, self.key_ctx.p).inverse())


@dataclass(frozen=True)
class AndKey:
    """Digit k maps through x -> x**s_k on the digit alphabet."""

    family = "and"
    laws = (AND,)
    json_fields = {"key_ctx": _CONTEXT, "exponents": _INTEGERS}
    key_ctx: PadicContext
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        ctx = self.key_ctx
        if len(self.exponents) != ctx.precision:
            raise InvalidKeyError(
                f"need {ctx.precision} exponents, got {len(self.exponents)}"
            )
        for s in self.exponents:
            if not 1 <= s <= ctx.p - 1 or math.gcd(s, ctx.p - 1) != 1:
                raise InvalidKeyError(
                    f"digit exponent {s} must be in [1, {ctx.p - 1}] and coprime to p-1"
                )

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "AndKey":
        exps = _coprime_exponents(ctx.p)
        return cls(ctx, tuple(rng.choice(exps) for _ in range(ctx.precision)))

    @property
    def ctx(self) -> PadicContext:
        return self.key_ctx

    def enc_int(self, v: int) -> int:
        return self._forward.apply(v)

    def dec_int(self, v: int) -> int:
        return self._backward.apply(v)

    @cached_property
    def _forward(self) -> _DigitPowers | _DigitBlocks:
        return _powers_kernel(self.key_ctx.p, self.exponents)

    @cached_property
    def _backward(self) -> _DigitPowers | _DigitBlocks:
        # x -> x^s permutes F_p exactly when s is a unit mod p - 1; at p = 2
        # the only exponent is 1, its own inverse.
        p = self.key_ctx.p
        return _powers_kernel(p, tuple(pow(s, -1, p - 1) if p > 2 else 1
                                       for s in self.exponents))


@dataclass(frozen=True)
class FheKey(_UnitMultiplier):
    """Additive key constrained to A^d = 1 so that a chosen G also commutes."""

    family = "fhe"
    json_fields = {"A": _RESIDUE, "g": _OPERATION}
    A: PadicInt
    g: GOperation

    def __post_init__(self) -> None:
        if not is_unit(self.A):
            raise InvalidKeyError("multiplier A must be a unit")
        d = exponent_gcd(self.g, self.A.ctx.p)
        if d is not None and pow_nat(self.A, d).value != 1:
            raise InvalidKeyError(f"A^{d} != 1: multiplier does not commute with G")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g: GOperation | None = None) -> "FheKey":
        """A from the non-trivial solutions of A^d = 1 for g; when only A = 1
        exists the family offers no secrecy, and this raises instead of
        returning the identity."""
        g = G1() if g is None else g
        if ctx.p == 2:  # the refusal of admissible_multipliers
            raise DomainError("admissible multipliers are computed for odd p")
        d = exponent_gcd(g, ctx.p)
        if d is None:
            return cls(_random_unit(ctx, rng), g)
        candidates = sorted(a for a in _root_values(ctx, d) if a != 1)
        if not candidates:
            raise InvalidKeyError(
                "only the trivial multiplier A = 1 commutes with this operation "
                f"at p = {ctx.p}; pick a different operation or a larger prime"
            )
        return cls(PadicInt(ctx, rng.choice(candidates)), g)

    @property
    def d(self) -> int | None:
        return exponent_gcd(self.g, self.A.ctx.p)

    @cached_property
    def laws(self) -> tuple[OpSymbol, ...]:
        return (ADD, g_sym(self.g))


CipherKey = AdditiveKey | MultiplicativeKey | XorKey | AndKey | FheKey

FAMILIES = {cls.family: cls for cls in get_args(CipherKey)}  # family name -> key class


# -- key generation ----------------------------------------------------------------


def keygen(
    ctx: PadicContext, family: str, rng: Random, g: GOperation | None = None
) -> CipherKey:
    """Uniformly random valid key of the requested family, drawn by its class.

    ``g`` is the second operation an fhe key respects (G1 by default); the
    other families ignore it.
    """
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise DomainError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    return cls.draw(ctx, rng, g)


# -- encryption / decryption ----------------------------------------------------------


def encrypt(key: CipherKey, x: PadicInt) -> PadicInt:
    if x.ctx != key.ctx:
        raise DomainError("plaintext context does not match the key")
    return PadicInt(x.ctx, key.enc_int(x.value))


def decrypt(key: CipherKey, y: PadicInt) -> PadicInt:
    if y.ctx != key.ctx:
        raise DomainError("ciphertext context does not match the key")
    return PadicInt(y.ctx, key.dec_int(y.value))


# -- whole-map views ------------------------------------------------------------------


def encryption_table(key: CipherKey) -> ValueTable:
    from .lipschitz import ValueTable  # only here, so encrypting never loads lipschitz

    return ValueTable.from_callable(key.ctx, key.enc_int)


def is_identity_key(key: CipherKey) -> bool:
    """True iff the encryption map equals the identity mod p**K."""
    table = encryption_table(key)
    return all(table.values[x] == x for x in key.ctx.residues())


# -- serialization ----------------------------------------------------------------------


def key_to_json(key: CipherKey) -> dict:
    out = {"family": key.family, "p": key.ctx.p, "precision": key.ctx.precision}
    for name, (dump, _) in key.json_fields.items():
        out |= dump(name, getattr(key, name))
    return out


def key_from_json(data: dict) -> CipherKey:
    try:
        family = data["family"]
        ctx = PadicContext(_integer(data["p"], "key field 'p'"),
                           _integer(data["precision"], "key field 'precision'"))
    except (KeyError, DomainError) as exc:
        raise FormatError(f"malformed key object: {exc}") from exc
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise FormatError(f"unknown family {family!r}")
    try:
        return cls(**{name: load(data, name, ctx)
                      for name, (_, load) in cls.json_fields.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed key object: {exc}") from exc
    except (InvalidKeyError, DomainError, FormatError) as exc:
        raise FormatError(f"invalid key material: {exc}") from exc


def operation_from_name(
    name: str,
    ctx: PadicContext,
    a: PadicInt | None = None,
    b: PadicInt | None = None,
) -> GOperation:
    if name == "GLIN":
        return LinearG(a if a is not None else ctx.one, b if b is not None else ctx.one)
    try:
        return NAMED_G[name]
    except (KeyError, TypeError):  # TypeError: a JSON list or object is unhashable
        raise FormatError(f"unknown operation {name!r}; expected one of {G_CHOICES}") from None
