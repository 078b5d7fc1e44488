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
Teichmuller lifts of the mod-p solutions, so there are at most p-1 usable
multipliers: small primes make thin fhe key spaces.

Each key class carries its own integer kernels, ``enc_int`` and ``dec_int``,
on residues mod p^K; ``encrypt``/``decrypt`` wrap them in a ``PadicInt``.
What a kernel precomputes from the key (inverse multipliers and exponents,
the packed columns of the xor matrix and of its inverse over F_p) is built
on the key's first use, not when the key is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from random import Random

from .core import (
    DomainError,
    FormatError,
    PadicContext,
    PadicError,
    PadicInt,
    from_text,
    invert_unit,
    is_unit,
    pow_nat,
    teichmuller,
    to_text,
)
from .lipschitz import DEFAULT_TABLE_LIMIT, ValueTable


class InvalidKeyError(PadicError):
    """Key parameters violate the family's constraints."""


class FamilyMismatchError(PadicError):
    """Key belongs to a different family than the operation requires."""


# -- two-variable operations ---------------------------------------------------


@dataclass(frozen=True)
class LinearG:
    """G(x, y) = a*x + b*y."""

    a: PadicInt
    b: PadicInt


@dataclass(frozen=True)
class G1:
    """G(x, y) = x * y**(p-1)."""


@dataclass(frozen=True)
class G2:
    """G(x, y) = x**(p-1) * y + x * y**(p-1)."""


@dataclass(frozen=True)
class G3:
    """G(x, y) = x**((p-1)/2) * y**((p-1)/2); p odd."""


@dataclass(frozen=True)
class G4:
    """G(x, y) = x/(1 - p x**(p-1)) + y/(1 - p y**(p-1))
    = sum over s >= 0 of p^s (x**((p-1)s+1) + y**((p-1)s+1))."""


@dataclass(frozen=True)
class SeriesG:
    """G(x, y) = c + a*x + b*y + sum c_ij x^i y^j over a finite term list.

    Terms are ((i, j), coefficient) pairs with i + j >= 2.  A nonzero c
    cannot commute with any multiplier, so c = 0 is required whenever the
    term list is nonempty.
    """

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


GOperation = LinearG | G1 | G2 | G3 | G4 | SeriesG

_G_NAMES = {G1: "G1", G2: "G2", G3: "G3", G4: "G4"}


def g_name(op: GOperation) -> str:
    if isinstance(op, LinearG):
        return "GLIN"
    if isinstance(op, SeriesG):
        return "GSERIES"
    return _G_NAMES[type(op)]


def g_eval(op: GOperation, x: PadicInt, y: PadicInt) -> PadicInt:
    if x.ctx != y.ctx:
        raise DomainError("operands live in different contexts")
    ctx = x.ctx
    p = ctx.p
    if isinstance(op, LinearG):
        if op.a.ctx != ctx or op.b.ctx != ctx:
            raise DomainError("linear coefficients live in a different context")
        return op.a * x + op.b * y
    if isinstance(op, G1):
        return x * pow_nat(y, p - 1)
    if isinstance(op, G2):
        return pow_nat(x, p - 1) * y + x * pow_nat(y, p - 1)
    if isinstance(op, G3):
        if p == 2:
            raise DomainError("this operation needs an odd p (exponent (p-1)/2)")
        e = (p - 1) // 2
        return pow_nat(x, e) * pow_nat(y, e)
    if isinstance(op, G4):
        one = ctx.one
        px = ctx.integer(p) * pow_nat(x, p - 1)
        py = ctx.integer(p) * pow_nat(y, p - 1)
        return x * invert_unit(one - px) + y * invert_unit(one - py)
    if isinstance(op, SeriesG):
        total = op.c + op.a * x + op.b * y
        for (i, j), coeff in op.terms:
            total = total + coeff * pow_nat(x, i) * pow_nat(y, j)
        return total
    raise DomainError(f"unknown operation {op!r}")


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


class AllUnits:
    """Marker: every unit multiplier is admissible (linear G)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "AllUnits()"

    def __eq__(self, other) -> bool:
        return isinstance(other, AllUnits)

    def __hash__(self) -> int:
        return hash("AllUnits")


ALL_UNITS = AllUnits()


def admissible_multipliers(
    ctx: PadicContext, op: GOperation
) -> frozenset[PadicInt] | AllUnits:
    """All solutions of A^d = 1 in Z_p at precision K, for d = exponent_gcd.

    For odd p the principal units are torsion free, so the solutions are
    exactly the Teichmuller lifts of the digits j with j^d = 1 mod p; there
    are gcd(d, p-1) of them.
    """
    if ctx.p == 2:
        raise DomainError("admissible multipliers are computed for odd p")
    d = exponent_gcd(op, ctx.p)
    if d is None:
        return ALL_UNITS
    return roots_of_unity(ctx, d)


def roots_of_unity(ctx: PadicContext, d: int) -> frozenset[PadicInt]:
    """Solutions of A^d = 1 in Z_p at precision K (p odd)."""
    if ctx.p == 2:
        raise DomainError("roots of unity are computed for odd p")
    if d < 1:
        raise DomainError("exponent must be >= 1")
    return frozenset(
        teichmuller(ctx, j) for j in range(1, ctx.p) if pow(j, d, ctx.p) == 1
    )


# -- key families ----------------------------------------------------------------
#
# Kernel data is built on a key's first use (a cached_property), so a key that
# never encrypts costs nothing extra.  No kernel fills a table over all p digit
# values in advance: that would cost O(p) work per key at a large prime.


class _UnitMultiplier:
    """Kernels of y = A*x mod p^K, shared by the additive and fhe families."""

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
    A: PadicInt

    def __post_init__(self) -> None:
        if not is_unit(self.A):
            raise InvalidKeyError("multiplier A must be a unit")

    @property
    def ctx(self) -> PadicContext:
        return self.A.ctx


@dataclass(frozen=True)
class MultiplicativeKey:
    family = "multiplicative"
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


@dataclass(frozen=True)
class XorKey:
    """Row k holds the coefficients of output digit k over input digits 0..k."""

    family = "xor"
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

    @property
    def ctx(self) -> PadicContext:
        return self.key_ctx

    def enc_int(self, v: int) -> int:
        return self._forward.apply(v)

    def dec_int(self, v: int) -> int:
        return self._backward.apply(v)

    @cached_property
    def _forward(self) -> _SlotMatrix:
        return _SlotMatrix.from_rows(self.rows, self.key_ctx.p)

    @cached_property
    def _backward(self) -> _SlotMatrix:
        return self._forward.inverse()


@dataclass(frozen=True)
class AndKey:
    """Digit k maps through x -> x**s_k on the digit alphabet."""

    family = "and"
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

    @property
    def ctx(self) -> PadicContext:
        return self.key_ctx

    def enc_int(self, v: int) -> int:
        return _digit_powers(v, self.key_ctx.p, self._enc_steps)

    def dec_int(self, v: int) -> int:
        return _digit_powers(v, self.key_ctx.p, self._dec_steps)

    @cached_property
    def _enc_steps(self) -> tuple[tuple[int, int], ...]:
        p = self.key_ctx.p
        return tuple((s, p**k) for k, s in enumerate(self.exponents))

    @cached_property
    def _dec_steps(self) -> tuple[tuple[int, int], ...]:
        # x -> x^s permutes F_p exactly when s is a unit mod p - 1; at p = 2
        # the only exponent is 1, its own inverse.
        p = self.key_ctx.p
        return tuple(
            (pow(s, -1, p - 1) if p > 2 else 1, pk) for s, pk in self._enc_steps
        )


def _digit_powers(v: int, p: int, steps: tuple[tuple[int, int], ...]) -> int:
    """Sum of (digit k of v)^s_k mod p, times p^k, over steps (s_k, p^k)."""
    out = 0
    for s, pk in steps:
        v, d = divmod(v, p)
        out += pow(d, s, p) * pk
    return out


@dataclass(frozen=True)
class FheKey(_UnitMultiplier):
    """Additive key constrained to A^d = 1 so that a chosen G also commutes."""

    family = "fhe"
    A: PadicInt
    g: GOperation

    def __post_init__(self) -> None:
        if not is_unit(self.A):
            raise InvalidKeyError("multiplier A must be a unit")
        d = exponent_gcd(self.g, self.A.ctx.p)
        if d is not None and pow_nat(self.A, d).value != 1:
            raise InvalidKeyError(f"A^{d} != 1: multiplier does not commute with G")

    @property
    def ctx(self) -> PadicContext:
        return self.A.ctx

    @property
    def d(self) -> int | None:
        return exponent_gcd(self.g, self.A.ctx.p)


CipherKey = AdditiveKey | MultiplicativeKey | XorKey | AndKey | FheKey

FAMILIES = ("additive", "multiplicative", "xor", "and", "fhe")


# -- key generation ----------------------------------------------------------------


def _random_unit(ctx: PadicContext, rng: Random) -> PadicInt:
    return PadicInt(
        ctx,
        rng.randrange(1, ctx.p) + ctx.p * rng.randrange(ctx.modulus // ctx.p),
    )


def _coprime_exponents(p: int) -> list[int]:
    return [s for s in range(1, p) if math.gcd(s, p - 1) == 1]


def keygen(
    ctx: PadicContext, family: str, rng: Random, g: GOperation | None = None
) -> CipherKey:
    """Uniformly random valid key of the requested family.

    fhe keys draw A from the non-trivial solutions of A^d = 1 for the
    declared operation; when only A = 1 exists the family offers no secrecy
    and this raises instead of silently returning the identity.
    """
    if family == "additive":
        return AdditiveKey(_random_unit(ctx, rng))
    if family == "multiplicative":
        exps = _coprime_exponents(ctx.p)
        return MultiplicativeKey(
            A=_random_unit(ctx, rng),
            s=rng.choice(exps),
            a=_random_unit(ctx, rng),
        )
    if family == "xor":
        rows = []
        for k in range(ctx.precision):
            rows.append(
                tuple(rng.randrange(ctx.p) for _ in range(k))
                + (rng.randrange(1, ctx.p),)
            )
        return XorKey(ctx, tuple(rows))
    if family == "and":
        exps = _coprime_exponents(ctx.p)
        return AndKey(ctx, tuple(rng.choice(exps) for _ in range(ctx.precision)))
    if family == "fhe":
        if g is None:
            g = G1()
        admissible = admissible_multipliers(ctx, g)
        if isinstance(admissible, AllUnits):
            return FheKey(_random_unit(ctx, rng), g)
        candidates = sorted(a.value for a in admissible if a.value != 1)
        if not candidates:
            raise InvalidKeyError(
                "only the trivial multiplier A = 1 commutes with this operation "
                f"at p = {ctx.p}; pick a different operation or a larger prime"
            )
        return FheKey(PadicInt(ctx, rng.choice(candidates)), g)
    raise DomainError(f"unknown family {family!r}; expected one of {FAMILIES}")


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


def encryption_table(key: CipherKey, limit: int = DEFAULT_TABLE_LIMIT) -> ValueTable:
    ctx = key.ctx
    if ctx.modulus > limit:
        raise DomainError(f"table of size {ctx.modulus} exceeds the limit {limit}")
    return ValueTable.from_callable(ctx, key.enc_int)


def is_identity_key(key: CipherKey, limit: int = DEFAULT_TABLE_LIMIT) -> bool:
    """True iff the encryption map equals the identity mod p**K."""
    table = encryption_table(key, limit)
    return all(table.values[x] == x for x in key.ctx.residues())


# -- serialization ----------------------------------------------------------------------


def key_to_json(key: CipherKey) -> dict:
    base = {"family": key.family, "p": key.ctx.p, "precision": key.ctx.precision}
    if isinstance(key, AdditiveKey):
        return base | {"A": to_text(key.A)}
    if isinstance(key, MultiplicativeKey):
        return base | {"A": to_text(key.A), "s": key.s, "a": to_text(key.a)}
    if isinstance(key, XorKey):
        return base | {"rows": [list(r) for r in key.rows]}
    if isinstance(key, AndKey):
        return base | {"exponents": list(key.exponents)}
    if isinstance(key, FheKey):
        name = g_name(key.g)
        if name == "GSERIES":
            raise DomainError("series operations are not supported in key files")
        extra = {"A": to_text(key.A), "g": name}
        if isinstance(key.g, LinearG):
            extra["ga"] = to_text(key.g.a)
            extra["gb"] = to_text(key.g.b)
        return base | extra
    raise FamilyMismatchError(f"unknown key type {type(key).__name__}")


def _field(data: dict, name: str, kind: type):
    value = data[name]
    if not isinstance(value, kind):
        raise FormatError(
            f"key field {name!r} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def key_from_json(data: dict) -> CipherKey:
    try:
        family = data["family"]
        ctx = PadicContext(int(data["p"]), int(data["precision"]))
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise FormatError(f"malformed key object: {exc}") from exc

    def residue(name: str) -> PadicInt:
        return from_text(_field(data, name, str), ctx)

    try:
        if family == "additive":
            return AdditiveKey(residue("A"))
        if family == "multiplicative":
            return MultiplicativeKey(A=residue("A"), s=int(data["s"]), a=residue("a"))
        if family == "xor":
            rows = _field(data, "rows", list)
            if not all(isinstance(row, list) for row in rows):
                raise FormatError("key field 'rows' must be a list of lists")
            return XorKey(ctx, tuple(tuple(int(c) for c in row) for row in rows))
        if family == "and":
            return AndKey(ctx, tuple(int(s) for s in _field(data, "exponents", list)))
        if family == "fhe":
            g = operation_from_name(
                data["g"],
                ctx,
                a=residue("ga") if "ga" in data else None,
                b=residue("gb") if "gb" in data else None,
            )
            return FheKey(residue("A"), g)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed key object: {exc}") from exc
    except (InvalidKeyError, DomainError, FormatError) as exc:
        raise FormatError(f"invalid key material: {exc}") from exc
    raise FormatError(f"unknown family {family!r}")


G_CHOICES = ("G1", "G2", "G3", "G4", "GLIN")


def operation_from_name(
    name: str,
    ctx: PadicContext,
    a: PadicInt | None = None,
    b: PadicInt | None = None,
) -> GOperation:
    if name == "G1":
        return G1()
    if name == "G2":
        return G2()
    if name == "G3":
        return G3()
    if name == "G4":
        return G4()
    if name == "GLIN":
        return LinearG(a if a is not None else ctx.one, b if b is not None else ctx.one)
    raise FormatError(f"unknown operation {name!r}; expected one of {G_CHOICES}")
