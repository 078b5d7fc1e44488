"""Exact arithmetic on p-adic integers truncated to K base-p digits.

A value is the canonical residue mod p**K together with its context (p, K).
Ring operations, digitwise operations and the unit-group maps (Teichmuller
lift, unit powering) all return the first K digits of the
infinite-precision result; this is well defined because every map here is
1-Lipschitz in the p-adic metric.

Conventions:

* digits are little-endian: x = x0 + p*x1 + ... + p^(K-1)*x_{K-1};
* ``valuation`` of the zero residue is ``math.inf``;
* the unit-group maps (pow_unit, teichmuller) require p odd, because the
  torsion facts they rely on fail at p = 2.
"""

from __future__ import annotations

import math
from functools import cache
from operator import attrgetter
from typing import Sequence

_set = object.__setattr__  # how a frozen record sets its fields
# Every bound on the work one input may ask for (PRIME_BOUND is below, by its test).  Each
# site reads its bound here when it runs, so one value moves every refusal or skip using it.
MAX_PRECISION = 64  # most digits a context keeps
MEASURE_LIMIT = 4096  # largest p^K whose whole map check --key measures and a scan's draw tests
TABLE_LIMIT = 1 << 20  # largest p^K of a value table, series or coordinate form
PROBE_LIMIT = 1 << 16  # largest p^K whose table the coefficient probe builds
PAIR_BUDGET = 1 << 24  # most pairs an exhaustive level (p^(2k)), a random phase or a scan tests
DRAW_BUDGET = 1 << 16  # most digits below p a key draw may enumerate: p - 1 <= this
MAX_NESTING = 200  # parenthesis and call depth of a formula; the parser recurses per level
KEY_DRAW_LIMIT = 1000  # most keys a scan draws in search of one that is not the identity
IDENTITY_PROBE_LIMIT = 32  # most residues a drawn key over MEASURE_LIMIT is tested on
SCAN_DRAW_LIMIT, SCAN_DRAWS_PER_KEY = 32, 8  # a scan of n keys stalls after 32 + 8 * n draws


class PadicError(Exception):
    """Base class for arithmetic domain errors in this package."""


class ContextMismatchError(PadicError):
    """Operands belong to different (p, K) contexts."""


class NonUnitError(PadicError):
    """A unit (first digit nonzero) was required."""


class OddPrimeRequiredError(PadicError):
    """Operation is only defined for odd p."""


class DomainError(PadicError):
    """Argument outside the operation's domain (range, convergence, ...)."""


class FormatError(PadicError):
    """Malformed textual representation."""


class IncompatibleFormulaError(PadicError):
    """The formula uses an operation the key does not respect."""


# Miller-Rabin with the first 13 primes as bases is exact for every n below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_BOUND; DomainError for a larger n with
    no factor among the witnesses."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n >= PRIME_BOUND:
        raise DomainError(
            f"p = {n} is out of range: primality is decided exactly only "
            f"below {PRIME_BOUND}"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive_root(p: int) -> int:
    """The least r >= 1 of order p - 1 mod p, a generator of (Z/p)^x: 1 at p = 2."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


class Record:
    """A frozen record of the fields its classes annotate, compared and shown by field."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = tuple(dict.fromkeys(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__annotations__", ())))
        cls._key = attrgetter(*fields, "__class__")  # a tuple, even of no fields
        n, own = len(fields), vars(cls)
        while n and fields[n - 1] in own:
            n -= 1
        cls._defaults = tuple(own[name] for name in fields[n:])  # trailing fields with a default

    def __init__(self, *args, **kwargs) -> None:
        names, cls = self.__match_args__, type(self)
        if kwargs or len(args) != len(names):  # by name, or a class attribute as default
            if not kwargs and len(names) - len(self._defaults) <= len(args) < len(names):
                args += self._defaults[len(args) - len(names):]  # without building a dict
            else:
                given = vars(cls) | dict(**dict(zip(names, args)), **kwargs)  # twice: TypeError
                if len(args) > len(names) or not kwargs.keys() <= set(names) <= given.keys():
                    raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
                args = [given[name] for name in names]
        for name, value in zip(names, args):  # not through __dict__, which reads slower
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")
    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class PadicContext(Record):
    """Working precision: prime p and number of retained digits K.

    p must be below ``PRIME_BOUND`` (about 3.3e24), the range in which
    primality is decided exactly; a larger p raises ``DomainError``.
    """

    p: int
    precision: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise DomainError(f"p must be a prime integer, got {self.p!r}")
        if not 1 <= self.precision <= MAX_PRECISION:
            raise DomainError(
                f"precision must be in [1, {MAX_PRECISION}], got {self.precision}"
            )
        object.__setattr__(self, "modulus", self.p**self.precision)  # not a field

    def integer(self, n: int) -> "PadicInt":
        """Canonical residue of a non-negative integer."""
        if n < 0:
            raise DomainError("integer source must be non-negative")
        return PadicInt(self, n % self.modulus)

    def from_digits(self, digits: Sequence[int]) -> "PadicInt":
        if len(digits) != self.precision:
            raise DomainError(
                f"expected {self.precision} digits, got {len(digits)}"
            )
        value = 0
        for i, d in enumerate(digits):
            if not 0 <= d < self.p:
                raise DomainError(f"digit {d} at position {i} out of range [0, {self.p})")
            value += d * self.p**i
        return PadicInt(self, value)

    @property
    def one(self) -> "PadicInt":
        return PadicInt(self, 1)

    def residues(self) -> range:
        """All canonical residues, as plain integers."""
        return range(self.modulus)


def check_table_size(ctx: PadicContext, limit: int | None = None) -> None:
    """Refuse a table of p**K entries over limit, TABLE_LIMIT when none is given."""
    limit = TABLE_LIMIT if limit is None else limit
    if ctx.modulus > limit:
        raise DomainError(f"table of size p**K = {ctx.modulus} exceeds the limit {limit}")


class PadicInt(Record):
    """Canonical residue mod p**K, read as the first K digits of a p-adic integer."""

    __slots__ = ("ctx", "value")
    ctx: PadicContext
    value: int

    def __init__(self, ctx: PadicContext, value: int) -> None:  # one per encrypt
        _set_ctx(self, ctx)  # the slot descriptors: no lookup of the name
        _set_value(self, value)
        self.__post_init__()

    def __reduce__(self):  # copy and pickle build a PadicInt again, as its slots are frozen
        return PadicInt, (self.ctx, self.value)

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.ctx.modulus:
            raise DomainError(f"residue {self.value} out of range [0, {self.ctx.modulus})")

    # -- digit access ------------------------------------------------------

    @property
    def digits(self) -> tuple[int, ...]:
        p, v = self.ctx.p, self.value
        out = []
        for _ in range(self.ctx.precision):
            out.append(v % p)
            v //= p
        return tuple(out)

    # -- ring structure ----------------------------------------------------

    def _check_ctx(self, other: "PadicInt") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"mixed contexts {self.ctx} and {other.ctx}")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_ctx(other)
        return PadicInt(self.ctx, (self.value + other.value) % self.ctx.modulus)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check_ctx(other)
        return PadicInt(self.ctx, (self.value - other.value) % self.ctx.modulus)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.ctx, (-self.value) % self.ctx.modulus)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_ctx(other)
        return PadicInt(self.ctx, (self.value * other.value) % self.ctx.modulus)

    def __pow__(self, n: int) -> "PadicInt":
        return pow_nat(self, n)

    # Digitwise (carry-free) operations; for p = 2 these coincide with the
    # usual bitwise xor/and of the residues.
    def __xor__(self, other: "PadicInt") -> "PadicInt":
        return xor_p(self, other)

    def __and__(self, other: "PadicInt") -> "PadicInt":
        return and_p(self, other)

    def __str__(self) -> str:
        return to_text(self)


_set_ctx, _set_value = PadicInt.ctx.__set__, PadicInt.value.__set__


# -- construction / text form ----------------------------------------------


def truncate(x: PadicInt, precision: int) -> PadicInt:
    """Reduction mod p^precision, the map every 1-Lipschitz cipher of the p-adic
    model commutes with; the result lives in a (p, precision) context."""
    if not 1 <= precision <= x.ctx.precision:
        raise DomainError(
            f"target precision {precision} out of range [1, {x.ctx.precision}]"
        )
    ctx = PadicContext(x.ctx.p, precision)
    return PadicInt(ctx, x.value % ctx.modulus)


def to_text(x: PadicInt) -> str:
    """Canonical text form ``p:K:d0,d1,...,d{K-1}``."""
    return f"{x.ctx.p}:{x.ctx.precision}:" + ",".join(str(d) for d in x.digits)


def from_text(text: str, ctx: PadicContext | None = None) -> PadicInt:
    """Parse the canonical text form, or a plain decimal integer (needs ctx)."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise FormatError(f"expected p:K:d0,...,d(K-1), got {text!r}")
        try:
            p, precision = int(parts[0]), int(parts[1])
            digits = [int(d) for d in parts[2].split(",")]
            if ctx is None:
                ctx = PadicContext(p, precision)
            elif ctx.p != p or ctx.precision != precision:
                raise FormatError(
                    f"literal context {p}:{precision} does not match expected "
                    f"{ctx.p}:{ctx.precision}"
                )
            return ctx.from_digits(digits)
        except ValueError as exc:
            raise FormatError(f"malformed p-adic literal {text!r}") from exc
        except DomainError as exc:  # a bad context or digit
            raise FormatError(str(exc)) from exc
    if ctx is None:
        raise FormatError("plain integer literal needs an explicit context")
    try:
        n = int(text)
    except ValueError as exc:
        raise FormatError(f"not an integer or p-adic literal: {text!r}") from exc
    if n < 0:
        raise FormatError("negative literals are not accepted")
    return ctx.integer(n)


# -- valuation / units --------------------------------------------------------


def valuation(x: PadicInt) -> int | float:
    """Index of the first nonzero digit; ``math.inf`` for the zero residue."""
    if x.value == 0:
        return math.inf
    p, v, k = x.ctx.p, x.value, 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def is_unit(x: PadicInt) -> bool:
    return x.value % x.ctx.p != 0


def invert_unit(x: PadicInt) -> PadicInt:
    """The inverse in the unit group Z_p^*, as A^-1 decrypts y = A*x."""
    if not is_unit(x):
        raise NonUnitError(f"residue {x.value} has zero first digit, no inverse")
    return PadicInt(x.ctx, pow(x.value, -1, x.ctx.modulus))


def pow_nat(x: PadicInt, n: int) -> PadicInt:
    if n < 0:
        raise DomainError("natural exponent required; invert explicitly instead")
    return PadicInt(x.ctx, pow(x.value, n, x.ctx.modulus))


def pow_unit(base: PadicInt, exponent: PadicInt | int) -> PadicInt:
    """base**exponent for base in 1 + pZ_p and a p-adic integer exponent.

    For odd p the group 1 + pZ_p mod p**K has order p**(K-1), so only the
    exponent's residue mod p**(K-1) matters.
    """
    ctx = base.ctx
    if ctx.p == 2:
        raise OddPrimeRequiredError("unit powering needs odd p")
    if base.value % ctx.p != 1:
        raise DomainError(f"base must be = 1 mod p, got first digit {base.value % ctx.p}")
    e = exponent.value if isinstance(exponent, PadicInt) else int(exponent)
    if e < 0:
        raise DomainError("exponent residue must be non-negative")
    e %= ctx.p ** (ctx.precision - 1)
    return PadicInt(ctx, pow(base.value, e, ctx.modulus))


# -- Teichmuller lift ---------------------------------------------------------


def teichmuller(ctx: PadicContext, a: int) -> PadicInt:
    """The (p-1)-th root of unity congruent to a mod p (p odd), as a PadicInt."""
    if ctx.p == 2:
        raise OddPrimeRequiredError("Teichmuller lift needs odd p")
    if not 1 <= a <= ctx.p - 1:
        raise DomainError(f"leading digit must be in [1, {ctx.p - 1}], got {a}")
    return PadicInt(ctx, teichmuller_residue(a, ctx.p, ctx.precision))


def teichmuller_residue(t: int, p: int, K: int) -> int:
    """w(t) mod p^K, 0 <= t < p, p odd: the root of x^(p-1) = 1 that is = t mod p,
    by Newton's step x <- x (1 - (x^(p-1) - 1)/(p-1)) mod p^j from x = t, j doubling
    to K (Hensel's lemma; Koblitz, GTM 58, ch. I), with -1/(p-1) = 1 + p + ... +
    p^(j-1): ceil(log2 K) powers with exponent p - 1, not one with p^(K-1)."""
    x, j = t, 1
    while j < K:
        j = min(2 * j, K)
        m = p**j
        x = x * (1 + (pow(x, p - 1, m) - 1) * ((m - 1) // (p - 1))) % m
    return x


# -- digitwise operations -----------------------------------------------------


@cache
def _pair_table(p: int, multiply: bool) -> tuple[bytes, int]:
    """(table, P): entry a*P + b is the digitwise sum or product of the blocks a
    and b of h digits, P = p^h, h the most with P^2 <= 2^14.  The table of h
    digits grows from the one of h - 1, q = p^(h-1), by a high digit: its block
    (a_h, b_h) is the old table plus q*op(a_h, b_h)."""
    digit = bytes((a * b if multiply else a + b) % p for a in range(p) for b in range(p))
    ramp, table, q = bytes(range(256)) * 2, digit, p  # ramp[c:c + 256] maps v to v + c
    while (q * p) ** 2 <= 1 << 14:
        raised = [table.translate(ramp[q * d:q * d + 256]) for d in range(p)]
        table = b"".join(raised[digit[a_h * p + b_h]][a * q:(a + 1) * q]
                         for a_h in range(p) for a in range(q) for b_h in range(p))
        q *= p
    return table, q


def digitwise(x: int, y: int, p: int, m: int, multiply: bool = False) -> int:
    """Digitwise sum (or product) mod p of two residues mod m = p**k.  For p <= 11,
    where p^4 <= 2^14, it reads blocks of h >= 2 digits through ``_pair_table``
    (radix conversion by blocks, Knuth, TAOCP vol. 2, 4.4), else digit by digit."""
    out, shift = 0, 1
    if p <= 11:
        table, q = _pair_table(p, multiply)
        while shift < m:
            out += table[x % q * q + y % q] * shift
            x, y, shift = x // q, y // q, shift * q
        return out
    while shift < m:
        out += (x * y if multiply else x + y) % p * shift
        x, y, shift = x // p, y // p, shift * p
    return out


def xor_p(x: PadicInt, y: PadicInt) -> PadicInt:
    """Digitwise addition mod p (no carries); classical xor at p = 2."""
    x._check_ctx(y)
    return PadicInt(x.ctx, digitwise(x.value, y.value, x.ctx.p, x.ctx.modulus))


def and_p(x: PadicInt, y: PadicInt) -> PadicInt:
    """Digitwise multiplication mod p (no carries); classical and at p = 2."""
    x._check_ctx(y)
    return PadicInt(
        x.ctx, digitwise(x.value, y.value, x.ctx.p, x.ctx.modulus, multiply=True)
    )

