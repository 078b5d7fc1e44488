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
for d = gcd{n - 1 : n in N}; a constant term counts as degree 0, so it
leaves A = 1 alone.  For odd p the solutions in Z_p are the Teichmuller lifts
of the mod-p solutions, so there are gcd(d, p-1) usable multipliers, A = 1
among them (``multiplier_count``): small primes make thin fhe key spaces.

Each key class draws its own random key (``draw``, which ``keygen`` finds
through ``FAMILIES``), and its ``enc_int`` and ``dec_int`` are the integer
kernels themselves: callables on residues mod p^K that ``encrypt``/``decrypt``
wrap in a ``PadicInt``.  An fhe key is an additive key whose multiplier also
commutes with G, so it shares the additive kernels.
What a kernel precomputes from the key (inverse multipliers and exponents,
the rows of the xor matrix's inverse over F_p, packed columns, and for p <= 7
block tables of at most 64 entries) is built on its first use; an and key
whose exponents are their own inverses decrypts with its encrypt kernel.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cache, cached_property, partial
from itertools import accumulate, repeat
from random import Random

from . import core
from .core import (
    DomainError,
    FormatError,
    PadicContext,
    PadicError,
    PadicInt,
    Record,
    _primitive_root,
    check_table_size,
    digitwise,
    from_text,
    is_unit,
    pow_nat,
    teichmuller,
    teichmuller_residue,
    to_text,
)


class InvalidKeyError(PadicError):
    """Key parameters violate the family's constraints."""


# -- two-variable operations ---------------------------------------------------
#
# Every operation, ADD, MUL, XOR and AND as much as the paper's G (G1-G4,
# LinearG, SeriesG), is one Operation with one integer kernel on residues mod
# m = p^k: ``pair(x, y, p, m)``, the value op(x, y) mod m.  A coefficient
# stored at precision K reads at level k <= K as its value mod p^k, which the
# final reduction mod m does, so kernels use ``value`` as is.
# ``coefficients`` lists the PadicInt coefficients, for the context checks.
#
# For the law scans' whole rows at one level, a G states one form besides:
# ``split(p, m)``, op(x, y) = base(u(x), w(y)) mod m with base ADD or MUL
# (G1, G3, G4, LinearG), so its rows are rows of ADD or MUL; or else
# ``rows(xs, p, m)``, the row function y -> [op(x, y) for x in xs], which
# computes x^(p-1) once per level (G2) or calls ``pair`` (SeriesG, which no
# command scans).  The scans build ADD, MUL, XOR and AND rows from structure.


class Operation:
    """A named two-argument operation on residues mod p^k.  ADD, MUL, XOR and
    AND are values holding their kernel, passed as ``pair``; a G is a subclass
    stating ``pair`` and one of ``split`` or ``rows`` as methods.  GLIN holds
    no kernel: it is a name alone, and refuses to compute."""

    coefficients = ()

    def __init__(self, name: str, pair: Callable[[int, int, int, int], int] | None = None) -> None:
        self.name = name
        if pair is not None:
            self.pair = pair

    def __repr__(self) -> str:
        return self.name

    __reduce__ = __repr__  # copy and pickle give back the module's ADD, MUL, XOR, AND or GLIN

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        raise DomainError(f"operation {self.name} is unbound: it has no integer kernel")

    def split(self, p: int, m: int):
        """(base, u, w) with op(x, y) = base(u(x), w(y)) mod m for all residues
        x and y, base ADD or MUL, u and w maps of residues to residues (u None
        for the identity); None where the operation states no such split."""
        return None


ADD = Operation("ADD", lambda x, y, p, m: (x + y) % m)
MUL = Operation("MUL", lambda x, y, p, m: x * y % m)
XOR = Operation("XOR", digitwise)
AND = Operation("AND", lambda x, y, p, m: digitwise(x, y, p, m, True))
GLIN = Operation("GLIN")  # a LinearG whose coefficients a key supplies at use


class GOperation(Record, Operation):
    """A G of the paper: an operation that an fhe key respects besides +."""
    __reduce__ = object.__reduce__  # a record of its fields, not a name in this module


class LinearG(GOperation):
    """G(x, y) = a*x + b*y."""

    name = "GLIN"

    a: PadicInt
    b: PadicInt

    @property
    def coefficients(self) -> tuple[PadicInt, ...]:
        return (self.a, self.b)

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        return (self.a.value * x + self.b.value * y) % m

    def split(self, p: int, m: int):
        a, b = self.a.value, self.b.value
        return ADD, lambda x: a * x % m, lambda y: b * y % m


class G1(GOperation):
    """G(x, y) = x * y**(p-1)."""

    name = "G1"

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        return x * pow(y, p - 1, m) % m

    def split(self, p: int, m: int):
        return MUL, None, partial(pow, exp=p - 1, mod=m)


class G2(GOperation):
    """G(x, y) = x**(p-1) * y + x * y**(p-1)."""

    name = "G2"

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        return (pow(x, p - 1, m) * y + x * pow(y, p - 1, m)) % m

    def rows(self, xs, p: int, m: int):
        terms = [(x, pow(x, p - 1, m)) for x in xs]  # each x^(p-1) once, for every y

        def row(y: int) -> list[int]:
            yy = pow(y, p - 1, m)
            return [(xx * y + x * yy) % m for x, xx in terms]
        return row


class G3(GOperation):
    """G(x, y) = x**((p-1)/2) * y**((p-1)/2); p odd."""

    name = "G3"

    def degree(self, p: int) -> int:  # (p-1)/2, the degree in each variable
        if p == 2:
            raise DomainError("this operation needs an odd p (exponent (p-1)/2)")
        return (p - 1) // 2

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        return pow(x * y, self.degree(p), m)

    def split(self, p: int, m: int):
        power = partial(pow, exp=self.degree(p), mod=m)
        return MUL, power, power


class G4(GOperation):
    """G(x, y) = x/(1 - p x**(p-1)) + y/(1 - p y**(p-1))
    = sum over s >= 0 of p^s (x**((p-1)s+1) + y**((p-1)s+1))."""

    name = "G4"

    @staticmethod
    def half(v: int, p: int, m: int) -> int:
        """v/(1 - p v^(p-1)) mod m; the divisor is 1 mod p."""
        return v * pow(1 - p * pow(v, p - 1, m), -1, m)

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        return (self.half(x, p, m) + self.half(y, p, m)) % m

    def split(self, p: int, m: int):
        half = self.half

        def reduced(v: int) -> int:
            return half(v, p, m) % m
        return ADD, reduced, reduced


class SeriesG(GOperation):
    """G(x, y) = c + a*x + b*y + sum c_ij x^i y^j over a finite term list.

    Terms are ((i, j), coefficient) pairs with i + j >= 2.  A nonzero c
    admits only the multiplier A = 1, so c = 0 is required whenever the term
    list is nonempty.
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

    def pair(self, x: int, y: int, p: int, m: int) -> int:
        total = self.c.value + self.a.value * x + self.b.value * y
        for (i, j), coeff in self.terms:
            total += coeff.value * pow(x, i, m) * pow(y, j, m)
        return total % m

    def rows(self, xs, p: int, m: int):
        return lambda y: [self.pair(x, y, p, m) for x in xs]


# Every operation by the name the CLI and formulas use for it, the G names last.
OP_NAMES = {op.name: op for op in (ADD, MUL, XOR, AND, G1(), G2(), G3(), G4(), GLIN)}

G_CHOICES = tuple(OP_NAMES)[4:]  # G1-G4 and GLIN


def op_apply(
    op: Operation, x: PadicInt, y: PadicInt, linear_g: LinearG | None = None
) -> PadicInt:
    """op(x, y); GLIN stands for ``linear_g``.  A G raises the context errors
    of ``g_eval``, the other operations those of the PadicInt operators."""
    if op is GLIN:
        if linear_g is None:
            raise DomainError("linear operation is unbound; supply its coefficients")
        op = linear_g
    if isinstance(op, GOperation):
        return g_eval(op, x, y)
    x._check_ctx(y)
    ctx = x.ctx
    return PadicInt(ctx, op.pair(x.value, y.value, ctx.p, ctx.modulus))


def _check_g(op: Operation) -> None:
    if not isinstance(op, GOperation):
        raise DomainError(f"unknown operation {op!r}")


def g_eval(op: GOperation, x: PadicInt, y: PadicInt) -> PadicInt:
    if x.ctx is not y.ctx and x.ctx != y.ctx:
        raise DomainError("operands live in different contexts")
    _check_g(op)
    ctx = x.ctx
    stray = next((v for v in op.coefficients if v.ctx != ctx), None)
    if stray is not None:
        if isinstance(op, LinearG):
            raise DomainError("linear coefficients live in a different context")
        stray._check_ctx(x)  # raises ContextMismatchError naming stray.ctx first
    return PadicInt(ctx, op.pair(x.value, y.value, ctx.p, ctx.modulus))


def exponent_gcd(op: GOperation, p: int) -> int | None:
    """d = gcd{n - 1 : n a total degree appearing in G}, a series G's constant
    term counting as degree 0; None for a linear G."""
    _check_g(op)
    if isinstance(op, LinearG):
        return None
    if isinstance(op, (G1, G2, G4)):
        return p - 1  # total degree p; G4's degrees are (p-1)s + 1
    if isinstance(op, G3):
        return 2 * op.degree(p) - 1  # total degree p - 1; p = 2 is refused
    degrees = {i + j for (i, j), coeff in (((0, 0), op.c), *op.terms) if coeff.value != 0}
    if not degrees:
        return None
    return math.gcd(*[n - 1 for n in degrees])


def multiplier_count(ctx: PadicContext, op: GOperation) -> int | None:
    """The number gcd(d, p - 1) of units A with A^d = 1, d = exponent_gcd, A = 1
    among them; None for a linear G, which every unit commutes with."""
    if ctx.p == 2:
        raise DomainError("admissible multipliers are computed for odd p")
    d = exponent_gcd(op, ctx.p)
    return None if d is None else math.gcd(d, ctx.p - 1)


def identity_only(ctx: PadicContext, family: str) -> bool:
    """Whether the identity is the family's only key at (p, K); fhe draws refuse such spaces."""
    where = {"additive": (2, 1), "xor": (2, 1), "multiplicative": (3, 1)}.get(family)
    return family == "and" and ctx.p <= 3 or (ctx.p, ctx.precision) == where


def admissible_multipliers(ctx: PadicContext, op: GOperation) -> frozenset[PadicInt] | None:
    """All solutions of A^d = 1 in Z_p at precision K, for d = exponent_gcd;
    None for a linear G, which every unit commutes with."""
    count = multiplier_count(ctx, op)
    return None if count is None else roots_of_unity(ctx, count)


def roots_of_unity(ctx: PadicContext, d: int) -> frozenset[PadicInt]:
    """Solutions of A^d = 1 in Z_p at precision K (p odd).

    The principal units are torsion free for odd p, so the solutions are the
    Teichmuller lifts of the g = gcd(d, p-1) roots of x^d = 1 mod p.  Those
    form the cyclic subgroup of F_p^* generated by z = r^((p-1)/g), r a
    primitive root, and w is multiplicative: the lifts are w(z)^i, i < g.
    """
    p = ctx.p
    if p == 2:
        raise DomainError("roots of unity are computed for odd p")
    if d < 1:
        raise DomainError("exponent must be >= 1")
    _check_draw_budget(p)
    g = math.gcd(d, p - 1)
    w = teichmuller(ctx, pow(_primitive_root(p), (p - 1) // g, p)).value
    return frozenset(PadicInt(ctx, a) for a in _powers(w, g, ctx.modulus))


def _powers(b: int, n: int, m: int) -> list[int]:
    """[1, b, ..., b^(n-1)] mod m, by running products."""
    return list(accumulate(repeat(b, n - 1), lambda x, y: x * y % m, initial=1))


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
# fields in JSON (``json_fields``, written and read in that order), draws its
# own random key (``draw(ctx, rng, g)``; only fhe reads g) and has a context
# ``ctx``.  Its ``enc_int`` and ``dec_int`` are cached_properties whose values
# are the kernels, each built on its first use, so a key that never encrypts
# costs nothing extra.  FheKey is an AdditiveKey with the further constraint
# A^d = 1.  Only the xor, and and multiplicative kernels fill tables over
# digit values, and only for p <= 7, where a block table has at most 64
# entries; from p = 11 on they read one digit at a time or take two powers
# with exponents below p, so no key does work that grows with p.


def _check_draw_budget(p: int) -> None:
    """Refuse to enumerate the exponents coprime to p - 1 or the roots of unity."""
    if p - 1 > core.DRAW_BUDGET:
        raise DomainError(f"a key draw at p = {p} enumerates {p - 1} digits, "
                          f"over the budget of {core.DRAW_BUDGET}")


def _random_unit(ctx: PadicContext, rng: Random) -> PadicInt:
    return PadicInt(ctx, rng.randrange(1, ctx.p) + ctx.p * rng.randrange(ctx.modulus // ctx.p))


def _coprime_exponents(p: int) -> list[int]:
    _check_draw_budget(p)
    return [s for s in range(1, p) if math.gcd(s, p - 1) == 1]


def _check_exponent(s: int, p: int, what: str) -> None:
    """x -> x^s permutes F_p exactly when s is a unit mod p - 1."""
    if not 1 <= s <= p - 1 or math.gcd(s, p - 1) != 1:
        raise InvalidKeyError(f"{what} must be in [1, {p - 1}] and coprime to p-1")


def _check_unit(A: PadicInt) -> None:
    if not is_unit(A):
        raise InvalidKeyError("multiplier A must be a unit")


class AdditiveKey(Record):
    family = "additive"
    laws = (ADD,)
    json_fields = {"A": _RESIDUE}
    A: PadicInt

    def __post_init__(self) -> None:
        _check_unit(self.A)

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "AdditiveKey":
        return cls(_random_unit(ctx, rng))

    @cached_property  # read on every encrypt: one instance-dict lookup once cached
    def ctx(self) -> PadicContext:
        return self.A.ctx

    @cached_property
    def enc_int(self) -> Callable[[int], int]:
        A, m = self.A.value, self.ctx.modulus
        return lambda v: A * v % m

    @cached_property
    def dec_int(self) -> Callable[[int], int]:
        m = self.ctx.modulus
        A_inv = pow(self.A.value, -1, m)
        return lambda v: A_inv * v % m


class MultiplicativeKey(Record):
    family = "multiplicative"
    laws = (MUL,)
    json_fields = {"A": _RESIDUE, "s": _INTEGER, "a": _RESIDUE}
    A: PadicInt
    s: int
    a: PadicInt

    def __post_init__(self) -> None:
        ctx = self.ctx
        if ctx.p == 2:
            raise InvalidKeyError("the multiplicative family needs odd p")
        _check_unit(self.A)
        if self.a.ctx != ctx:
            raise InvalidKeyError("parameters A and a must share a context")
        if not is_unit(self.a):
            raise InvalidKeyError("principal-unit exponent a must be a unit")
        _check_exponent(self.s, ctx.p, "digit exponent s")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "MultiplicativeKey":
        exps = _coprime_exponents(ctx.p)
        return cls(A=_random_unit(ctx, rng), s=rng.choice(exps), a=_random_unit(ctx, rng))

    ctx = AdditiveKey.ctx

    @cached_property
    def enc_int(self) -> Callable[[int], int]:
        return _UnitKernel(self.ctx, self.a.value, self.s, 1, self.A.value).apply

    @cached_property
    def dec_int(self) -> Callable[[int], int]:
        p, K, m = self.ctx.p, self.ctx.precision, self.ctx.modulus
        a_inv, s_inv = pow(self.a.value, -1, p ** (K - 1)), pow(self.s, -1, p - 1)
        return _UnitKernel(self.ctx, a_inv, s_inv, pow(self.A.value, -1, m), 1).apply


# -- the multiplicative kernel -----------------------------------------------------
#
# A nonzero x = p^k u, with t = u mod p, encrypts to p^k A^k w(t)^s <u>^a where
# <u> = u / w(t) = 1 mod p.  Only the unit factor mod M = p^(K-k) survives the
# shift by p^k.  Decryption divides y = p^k y' by p^k A^k to get the unit
# w1 = w(t)^s <u>^a, whose first digit is t^s, and applies the same map with
# s^-1 mod (p-1) and a^-1 mod p^(K-1): w(t^s)^(s^-1) <u>^(a a^-1) = u.  So
# one kernel, ``_UnitKernel``, serves both directions at every p.  At level k
# it multiplies the unit by shift_k (1, or A^-k) and the result by lead_k
# (A^k, or 1), and maps u -> w(t)^sigma <u>^b in two stages:
#
# * For p = 3, 5, 7, a blocked discrete log: the group 1 + pZ_p is generated
#   by g = 1 + p, so <u> = g^L and <u>^b = g^(bL).  The digit-by-digit log of
#   Pohlig and Hellman (IEEE Trans. Inf. Theory 24, 1978) reads L h digits at
#   a time, in the blocks of ``_BLOCK_DIGITS``, through fixed-base tables
#   (Brickell, Gordon, McCurley and Wilson, EUROCRYPT '92): while
#   v = 1 mod p^i, digits i..i+h-1 of v name the next block x of L; v times
#   g^(-x p^(i-1)) clears them, and the answer gains the factor
#   g^(b x p^(i-1)).  It stops once v = 1 mod p^j with 4j >= K-k, after
#   ceil((ceil((K-k)/4) - 1)/h) such steps of two lookups and two products
#   mod M.
# * From p = 11 on, where a table would grow with p, no block and no lift: as
#   Z_p^x = mu_(p-1) x (1 + pZ_p) (Serre, A Course in Arithmetic, ch. II 3),
#   <u>^(p-1) = u^(p-1) and p - 1 is a unit, w(t)^sigma <u>^b = u^sigma v^b'
#   with v = u^(p-1), b' = (b - sigma)(p - 1)^-1 mod p^(K-1), and j = 1.
# * A binomial tail finishes exactly: with z = v - 1, p^j divides z, so
#   (1 + z)^b = 1 + C(b,1) z + ... + C(b,r) z^r mod M for any integer b >= 0,
#   r the least with (r+1) j >= K-k: at most 3 (``_TAIL_ORDER``) after the
#   log, K-k-1 (of b') from p = 11 on.  Horner's rule takes one product and
#   one reduction per term past z^3 and writes the last three out, so the
#   short tail runs no loop.  A modular power squares once per bit of
#   e = b mod p^(K-k-1) instead, thousands of bits at a large p.
#
# The lifts w(t) come from ``core.teichmuller_residue``, listed by first
# digit beside the block tables; from p = 11 on a key holds and a call makes none.


@cache
def _log_tables(p: int, K: int, h: int) -> tuple[list, list[int]]:
    """The key-free half of the block log mod p^K, shared by every key at
    (p, K): for each block of digits i..i+h-1, i = 1, 1+h, ... < ceil(K/4),
    the triple (p^i, logs, clears), where the power g^(x p^(i-1)) with digits
    d at i..i+h-1 has logs[d] = x and clears[d] = g^(-x p^(i-1)) mod p^K; and
    the Teichmuller lifts w(t), t < p.  Every block lies below digit K, so
    its p^h powers differ there.  Only p = 3, 5, 7 come here, so 192
    contexts at most."""
    m, q = p**K, p**h
    blocks, base = [], 1 + p  # base = g^(p^(i-1))
    for i in range(1, -(-K // (_TAIL_ORDER + 1)), h):
        pi, logs, clears = p**i, [0] * q, [0] * q
        power, inverse, base_inv = 1, 1, pow(base, -1, m)
        for x in range(q):
            d = power // pi % q
            logs[d], clears[d] = x, inverse
            power, inverse = power * base % m, inverse * base_inv % m
        blocks.append((pi, logs, clears))
        base = power
    return blocks, [teichmuller_residue(t, p, K) for t in range(p)]


class _UnitKernel:
    """x = p^k u -> p^k lead^k w(t)^sigma <v>^b with v = shift^k u mod p^(K-k)
    and t = v mod p, at every p (see above).

    Where ``_BLOCK_DIGITS`` lists p, beside the shared ``_log_tables`` it holds
    its own row per block, row[d] = g^(b x p^(i-1)) mod p^K for x = logs[d],
    built by running products, and two lists over the first digit: w(t)^-1 =
    w(t^(p-2)) and w(t)^sigma = w(t^sigma).  Per level it keeps lead_k and the
    tail's terms lead_k C(b, n) mod p^(K-k-nj), as p^(nj) divides z^n, and
    reads the first ceil((ceil((K-k)/4) - 1)/h) blocks.  The first product is
    left unreduced: the blocks read only digits below K-k.  From p = 11 on
    every level reads C(b', n) mod p^K, and lead_k sits in place of the lifts.
    """

    def __init__(self, ctx: PadicContext, b: int, sigma: int, shift: int, lead: int) -> None:
        p, K, m = ctx.p, ctx.precision, ctx.modulus
        h = _BLOCK_DIGITS.get(p)
        self.p, self.modulus, self.q, self.sigma = p, m, p ** (h or 1), sigma
        steps = []
        if h:
            blocks, lifts = _log_tables(p, K, h)
            power = pow(1 + p, b, m)  # power = g^(b p^(i-1))
            for pi, logs, clears in blocks:
                row = _powers(power, self.q + 1, m)  # its last entry is the next block's power
                steps.append((pi, clears, [row[x] for x in logs]))
                power = row[-1]
            unlift = [lifts[pow(t, p - 2, p)] for t in range(p)]
            first = [lifts[pow(t, sigma, p)] for t in range(p)]
        else:  # b'
            b = (b - sigma) * pow(p - 1, -1, p ** (K - 1)) % p ** (K - 1)
        # C(b, n) mod p^K for n up to the longest tail r: the falling factorial
        # b(b-1)...(b-n+1), kept mod r! p^K, a multiple of n! p^K, stays a multiple of n!
        r = _TAIL_ORDER if h else max(K - 1, _TAIL_ORDER)
        bound, falling, coefficients = m * math.factorial(r), 1, [1]
        for n in range(1, r + 1):
            falling = falling * (b - n + 1) % bound
            coefficients.append(falling // math.factorial(n) % m)
        pw = _powers(p, K + 1, m * p)
        self.levels = {}  # p^k -> (M, shift_k, lead, lifts, c_1, c_2, c_r, c_(r-1)..c_3, blocks)
        for k, shift_k, lead_k in zip(range(K), _powers(shift, K, m), _powers(lead, K, m)):
            e = K - k
            n = (-(-e // (_TAIL_ORDER + 1)) + h - 2) // h if h else 0  # blocks read
            j = 1 + n * (h or 1)  # p^j divides z after them
            r = -(-e // j) - 1  # the least with (r+1) j >= e
            c = ([0, *(lead_k * coefficients[i] % pw[e - i * j] for i in range(1, r + 1)), 0, 0, 0]
                 if h else coefficients)  # lead_k c_n, 0 past r; else c_n: p^e divides z^n past r
            top = max(r, 3)  # apply writes out the terms to z^3
            head = (lead_k % pw[e], unlift, first) if h else (1, None, lead_k % pw[e])
            self.levels[pw[k]] = (pw[e], shift_k, *head,
                                  c[1], c[2], c[top], tuple(c[top - 1:2:-1]), steps[:n])

    def apply(self, x: int) -> int:
        if x == 0:
            return 0
        q = math.gcd(x, self.modulus)
        M, shift, lead, unlift, first, c1, c2, s, high, steps = self.levels[q]
        u = x // q * shift % M
        if unlift is None:  # from p = 11 on: v = u^(p-1), and first is lead_k
            v, acc = pow(u, self.p - 1, M), pow(u, self.sigma, M) * first % M
        else:
            t, Q = u % self.p, self.q
            v, acc = u * unlift[t], first[t]
            for pi, clears, row in steps:
                d = v // pi % Q
                v = v * clears[d] % M
                acc = acc * row[d] % M
        z = v - 1  # lead (1 + z)^b = lead (1 + c_1 z + ... + c_r z^r) mod M
        for c in high:  # lead c_n for n = r-1, ..., 3, after s = lead c_r: none after the log
            s = s * z % M + c
        return acc * (lead + z * (c1 + z * (c2 + z * s))) % M * q


class _SlotMatrix:
    """A lower-triangular matrix over F_p acting on base-p digit vectors, the
    per-digit xor kernel for p >= 11.

    Packed-slot evaluation (Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975): column i is one integer whose B-bit slot K-1-k
    holds entry (k, i), so the product with the digit vector x is the single
    integer sum x_0 col_0 + ... + x_{K-1} col_{K-1}.  A slot sums at most K
    products below p^2, so B = bitlen(K (p-1)^2) keeps carries out of the next
    slot; each slot is reduced mod p once at the end, from the low end.
    """

    def __init__(self, columns: list[int], p: int, width: int) -> None:
        self.columns, self.p, self.width, self.mask = columns, p, width, (1 << width) - 1

    def apply(self, v: int) -> int:
        p = self.p
        acc = 0
        for col in self.columns:
            v, d = divmod(v, p)
            acc += d * col
        out, mask = 0, self.mask
        for shift in range(0, self.width * len(self.columns), self.width):
            out = out * p + (acc >> shift & mask) % p
        return out


def _inverse_rows(rows: tuple[tuple[int, ...], ...], p: int) -> tuple[tuple[int, ...], ...]:
    """The rows of L^-1 over F_p, L lower triangular with the given rows: from
    L L^-1 = I, row k is (e_k - sum over j < k of L[k][j] row j) / L[k][k]."""
    inverse = []
    for k, row in enumerate(rows):
        acc = [0] * k + [1]
        for c, prior in zip(row, inverse):  # j < k, rows j of L and of L^-1
            if c:
                for i, z in enumerate(prior):
                    acc[i] -= c * z
        d = pow(row[k], -1, p)
        inverse.append(tuple(a * d % p for a in acc))
    return tuple(inverse)


# -- block kernels -----------------------------------------------------------------
#
# For p <= 7 the xor and and kernels read v in blocks of h digits, h the most
# with p^h <= 64 (radix conversion by blocks, Knuth, TAOCP vol. 2, 4.4): one
# divmod and one lookup in a table of p^h entries per block.  Both families
# hand the reader, ``_DigitBlocks``, their digits' shares in one encoding.
# From p = 11 on h would be 1, and the kernels keep their per-digit loops.
# The multiplicative block log reads its discrete log in the same blocks.

_BLOCK_DIGITS = {2: 6, 3: 3, 5: 2, 7: 2}  # p -> h

# The block log stops once v = 1 mod p^j with (_TAIL_ORDER + 1) j >= K-k, and
# the terms of (1 + z)^b up to z^_TAIL_ORDER finish it exactly.  Order 3 reads
# about a quarter of the blocks.  A fourth term costs a product on every call
# and saves a block only at some precisions, none at K = 16.
_TAIL_ORDER = 3


@cache
def _slot_bytes(p: int) -> tuple[bytes, bytes]:
    """Byte tables taking an 8-bit slot s to s mod p, and to the text of s mod p."""
    return bytes(s % p for s in range(256)), bytes(48 + s % p for s in range(256))


def _block_sums(shares: list[list[int]], h: int):
    """For each block of h positions, the list over the block's values of the
    sum of shares[i][digit i], shares[i][d] being what digit d adds at i."""
    for j in range(0, len(shares), h):
        sums = [0]
        for share in shares[j:j + h]:
            sums = [s + c for c in share for s in sums]
        yield sums


class _DigitBlocks:
    """shares[k][d] is what digit d at position k adds to the output, in 8-bit
    slots with output digit k at byte K-1-k, so high blocks have small entries.
    Table j maps each value of block j to the sum of its shares with each slot
    reduced mod p (from at most h(p-1)^2 <= 72).  A slot of the sum of one
    entry per table is at most ceil(K/h)(p-1) <= 192, read mod p at the end."""

    def __init__(self, shares: list[list[int]], p: int) -> None:
        h, K = _BLOCK_DIGITS[p], len(shares)
        reduce, self.text = _slot_bytes(p)
        self.tables = [[int.from_bytes(s.to_bytes(K, "little").translate(reduce), "little")
                        for s in sums] for sums in _block_sums(shares, h)]
        self.p, self.K, self.q = p, K, p**h

    def apply(self, v: int) -> int:
        acc, q = 0, self.q
        for t in self.tables:
            v, b = divmod(v, q)
            acc += t[b]
        return int(acc.to_bytes(self.K, "little").translate(self.text), self.p)


def _matrix_kernel(rows: tuple[tuple[int, ...], ...], p: int) -> _SlotMatrix | _DigitBlocks:
    """Column i holds entry (k, i) in slot K-1-k: 8 bits wide in the block tables
    (p <= 7), where digit d at i adds d * column i, else B bits (_SlotMatrix)."""
    K = len(rows)
    width = 8 if p in _BLOCK_DIGITS else (K * (p - 1) ** 2).bit_length()
    columns = [sum(rows[k][i] << width * (K - 1 - k) for k in range(i, K)) for i in range(K)]
    if p not in _BLOCK_DIGITS:
        return _SlotMatrix(columns, p, width)
    return _DigitBlocks([[d * col for d in range(p)] for col in columns], p)


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
    """Per digit for p >= 11, else block tables: digit d at k adds d^s_k."""
    if p not in _BLOCK_DIGITS:
        return _DigitPowers(p, exponents)
    K = len(exponents)
    return _DigitBlocks([[pow(d, s, p) << 8 * (K - 1 - k) for d in range(p)]
                         for k, s in enumerate(exponents)], p)


class XorKey(Record):
    """Row k holds the coefficients of output digit k over input digits 0..k."""

    family = "xor"
    laws = (XOR,)
    json_fields = {"ctx": _CONTEXT, "rows": _ROWS}
    ctx: PadicContext
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        ctx = self.ctx
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

    @cached_property
    def enc_int(self) -> Callable[[int], int]:
        return _matrix_kernel(self.rows, self.ctx.p).apply

    @cached_property
    def dec_int(self) -> Callable[[int], int]:
        return _matrix_kernel(_inverse_rows(self.rows, self.ctx.p), self.ctx.p).apply


class AndKey(Record):
    """Digit k maps through x -> x**s_k on the digit alphabet."""

    family = "and"
    laws = (AND,)
    json_fields = {"ctx": _CONTEXT, "exponents": _INTEGERS}
    ctx: PadicContext
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        ctx = self.ctx
        if len(self.exponents) != ctx.precision:
            raise InvalidKeyError(f"need {ctx.precision} exponents, got {len(self.exponents)}")
        for s in self.exponents:
            _check_exponent(s, ctx.p, f"digit exponent {s}")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g=None) -> "AndKey":
        exps = _coprime_exponents(ctx.p)
        return cls(ctx, tuple(rng.choice(exps) for _ in range(ctx.precision)))

    @cached_property
    def enc_int(self) -> Callable[[int], int]:
        return _powers_kernel(self.ctx.p, self.exponents).apply

    @cached_property
    def dec_int(self) -> Callable[[int], int]:
        # Where p - 1 divides 24 (p = 2, 3, 5, 7, 13) every exponent is its own
        # inverse (at p = 2 the only one is 1), and decryption is encryption.
        p = self.ctx.p
        inverses = tuple(pow(s, -1, p - 1) if p > 2 else 1 for s in self.exponents)
        return self.enc_int if inverses == self.exponents else _powers_kernel(p, inverses).apply


class FheKey(AdditiveKey):
    """Additive key constrained to A^d = 1 so that a chosen G also commutes."""

    family = "fhe"
    json_fields = {"A": _RESIDUE, "g": _OPERATION}
    g: GOperation

    def __post_init__(self) -> None:
        super().__post_init__()
        d = exponent_gcd(self.g, self.A.ctx.p)
        if d is not None and pow_nat(self.A, d).value != 1:
            raise InvalidKeyError(f"A^{d} != 1: multiplier does not commute with G")

    @classmethod
    def draw(cls, ctx: PadicContext, rng: Random, g: Operation | None = None) -> "FheKey":
        """A from the non-trivial solutions of A^d = 1 for g, GLIN first bound
        to two random unit coefficients; when only A = 1 exists the family
        offers no secrecy, and this raises instead of returning the identity."""
        g = G1() if g is None else g
        if g is GLIN:
            g = LinearG(_random_unit(ctx, rng), _random_unit(ctx, rng))
        multipliers = admissible_multipliers(ctx, g)
        if multipliers is None:
            return cls(_random_unit(ctx, rng), g)
        candidates = sorted(a.value for a in multipliers if a.value != 1)
        if not candidates:
            raise InvalidKeyError(
                "only the trivial multiplier A = 1 commutes with this operation "
                f"at p = {ctx.p}; pick a different operation or a larger prime"
            )
        return cls(PadicInt(ctx, rng.choice(candidates)), g)

    @cached_property
    def laws(self) -> tuple[Operation, ...]:
        return (ADD, self.g)


CipherKey = AdditiveKey | MultiplicativeKey | XorKey | AndKey | FheKey

FAMILIES = {cls.family: cls for cls in CipherKey.__args__}  # family name -> key class


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
    if x.ctx is not key.ctx and x.ctx != key.ctx:  # same object first: no Record.__eq__
        raise DomainError("plaintext context does not match the key")
    return PadicInt(x.ctx, key.enc_int(x.value))


def decrypt(key: CipherKey, y: PadicInt) -> PadicInt:
    if y.ctx is not key.ctx and y.ctx != key.ctx:
        raise DomainError("ciphertext context does not match the key")
    return PadicInt(y.ctx, key.dec_int(y.value))


# -- whole-map views ------------------------------------------------------------------


def encryption_table(key: CipherKey) -> ValueTable:
    from .lipschitz import ValueTable  # only here, so encrypting never loads lipschitz

    return ValueTable.from_callable(key.ctx, key.enc_int)


def is_identity_key(key: CipherKey) -> bool:
    """True iff the encryption map equals the identity mod p**K (a context
    over the table limit is refused, as ``encryption_table`` refuses it)."""
    check_table_size(key.ctx)
    enc = key.enc_int
    return all(enc(x) == x for x in key.ctx.residues())


# -- serialization ----------------------------------------------------------------------


def key_to_json(key: CipherKey) -> dict:
    out = {"family": key.family, "p": key.ctx.p, "precision": key.ctx.precision}
    for name, (dump, _) in key.json_fields.items():
        out |= dump(name, getattr(key, name))
    return out


def _malformed(exc: Exception) -> FormatError:
    return FormatError(f"malformed key object: {exc}")


def key_from_json(data: dict) -> CipherKey:
    try:
        family = data["family"]
        ctx = PadicContext(_integer(data["p"], "key field 'p'"),
                           _integer(data["precision"], "key field 'precision'"))
    except (KeyError, DomainError) as exc:
        raise _malformed(exc) from exc
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise FormatError(f"unknown family {family!r}")
    try:
        return cls(**{name: load(data, name, ctx)
                      for name, (_, load) in cls.json_fields.items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(exc) from exc
    except (InvalidKeyError, DomainError, FormatError) as exc:
        raise FormatError(f"invalid key material: {exc}") from exc


def operation_from_name(
    name: str,
    ctx: PadicContext,
    a: PadicInt | None = None,
    b: PadicInt | None = None,
) -> GOperation:
    if name not in G_CHOICES:  # a tuple, so a JSON list or object compares unequal
        raise FormatError(f"unknown operation {name!r}; expected one of {G_CHOICES}")
    if name == "GLIN":
        return LinearG(a if a is not None else ctx.one, b if b is not None else ctx.one)
    return OP_NAMES[name]
