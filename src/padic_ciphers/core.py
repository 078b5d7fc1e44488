"""Exact arithmetic on p-adic integers truncated to K base-p digits.

A value is the canonical residue mod p**K together with its context (p, K).
Ring operations, digitwise operations and the unit-group maps (Teichmuller
lift, exp/ln, unit powering) all return the first K digits of the
infinite-precision result; this is well defined because every map here is
1-Lipschitz in the p-adic metric.

Conventions:

* digits are little-endian: x = x0 + p*x1 + ... + p^(K-1)*x_{K-1};
* ``valuation`` of the zero residue is ``math.inf``;
* the unit-group maps (pow_unit, teichmuller, exp_p, ln_p) require p odd,
  because the torsion/convergence facts they rely on fail at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

DEFAULT_MAX_PRECISION = 64


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


def _is_prime(n: int) -> bool:
    # Deterministic trial division; contexts use desk-scale primes.
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PadicContext:
    """Working precision: prime p and number of retained digits K."""

    p: int
    precision: int
    max_precision: int = field(default=DEFAULT_MAX_PRECISION, compare=False, repr=False)
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not _is_prime(self.p):
            raise DomainError(f"p must be a prime integer, got {self.p!r}")
        if not 1 <= self.precision <= self.max_precision:
            raise DomainError(
                f"precision must be in [1, {self.max_precision}], got {self.precision}"
            )
        object.__setattr__(self, "modulus", self.p**self.precision)

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
    def zero(self) -> "PadicInt":
        return PadicInt(self, 0)

    @property
    def one(self) -> "PadicInt":
        return PadicInt(self, 1)

    def residues(self) -> range:
        """All canonical residues, as plain integers."""
        return range(self.modulus)

    def with_precision(self, precision: int) -> "PadicContext":
        return PadicContext(self.p, precision, max_precision=self.max_precision)


@dataclass(frozen=True, slots=True)
class PadicInt:
    """Canonical residue mod p**K, read as the first K digits of a p-adic integer."""

    ctx: PadicContext
    value: int

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

    def digit(self, k: int) -> int:
        if not 0 <= k < self.ctx.precision:
            raise DomainError(f"digit index {k} out of range [0, {self.ctx.precision})")
        return (self.value // self.ctx.p**k) % self.ctx.p

    def prefix(self, k: int) -> int:
        """The residue mod p**k (value of the first k digits), 0 <= k <= K."""
        if not 0 <= k <= self.ctx.precision:
            raise DomainError(f"prefix length {k} out of range [0, {self.ctx.precision}]")
        return self.value % self.ctx.p**k

    # -- ring structure ----------------------------------------------------

    def _check_ctx(self, other: "PadicInt") -> None:
        if self.ctx != other.ctx:
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


# -- construction / text form ----------------------------------------------


def construct(ctx: PadicContext, source: int | Sequence[int]) -> PadicInt:
    """Build from a non-negative integer (reduced mod p**K) or a digit sequence."""
    if isinstance(source, int):
        return ctx.integer(source)
    return ctx.from_digits(source)


def to_digits(x: PadicInt) -> tuple[int, ...]:
    return x.digits


def truncate(x: PadicInt, precision: int) -> PadicInt:
    """Keep the first ``precision`` digits; the result lives in a (p, precision) context."""
    if not 1 <= precision <= x.ctx.precision:
        raise DomainError(
            f"target precision {precision} out of range [1, {x.ctx.precision}]"
        )
    ctx = x.ctx.with_precision(precision)
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
            p = int(parts[0])
            precision = int(parts[1])
            digits = [int(d) for d in parts[2].split(",")]
        except ValueError as exc:
            raise FormatError(f"malformed p-adic literal {text!r}") from exc
        try:
            parsed_ctx = PadicContext(p, precision) if ctx is None else ctx
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        if ctx is not None and (ctx.p != p or ctx.precision != precision):
            raise FormatError(
                f"literal context {p}:{precision} does not match expected "
                f"{ctx.p}:{ctx.precision}"
            )
        try:
            return parsed_ctx.from_digits(digits)
        except DomainError as exc:
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


# -- valuation / unit decomposition ------------------------------------------


@dataclass(frozen=True)
class UnitDecomposition:
    """x = p^valuation * (unit_digit + p * tail) for nonzero x.

    ``tail`` is carried at full context precision; only its first
    K - valuation - 1 digits are meaningful.
    """

    valuation: int | float
    unit_digit: int
    tail: PadicInt

    def recompose(self) -> PadicInt:
        ctx = self.tail.ctx
        if self.valuation == math.inf:
            return ctx.zero
        v = (self.unit_digit + ctx.p * self.tail.value) * ctx.p**self.valuation
        return PadicInt(ctx, v % ctx.modulus)


def valuation(x: PadicInt) -> int | float:
    """Index of the first nonzero digit; ``math.inf`` for the zero residue."""
    if x.value == 0:
        return math.inf
    p, v, k = x.ctx.p, x.value, 0
    while v % p == 0:
        v //= p
        k += 1
    return k


def unit_decompose(x: PadicInt) -> UnitDecomposition:
    k = valuation(x)
    if k == math.inf:
        return UnitDecomposition(math.inf, 0, x.ctx.zero)
    u = x.value // x.ctx.p**k
    return UnitDecomposition(k, u % x.ctx.p, x.ctx.integer(u // x.ctx.p))


def is_unit(x: PadicInt) -> bool:
    return x.value % x.ctx.p != 0


def invert_unit(x: PadicInt) -> PadicInt:
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
    """The unique (p-1)-th root of unity congruent to a mod p (p odd).

    Closed form w(a) = a^(p^(K-1)) mod p^K: it is = a mod p by Fermat, and its
    (p-1)-th power is (a^(p-1))^(p^(K-1)) = 1, because a^(p-1) lies in 1 + pZ,
    a group of order p^(K-1) mod p^K.
    """
    if ctx.p == 2:
        raise OddPrimeRequiredError("Teichmuller lift needs odd p")
    if not 1 <= a <= ctx.p - 1:
        raise DomainError(f"leading digit must be in [1, {ctx.p - 1}], got {a}")
    return PadicInt(ctx, pow(a, ctx.p ** (ctx.precision - 1), ctx.modulus))


# -- exp / ln on the convergence domains -------------------------------------


def _strip_p_power(n: int, p: int) -> tuple[int, int]:
    """n = p**v * m with m coprime to p; returns (v, m)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def exp_p(x: PadicInt) -> PadicInt:
    """Truncated exponential series; needs p odd and valuation(x) >= 1."""
    ctx = x.ctx
    if ctx.p == 2:
        raise OddPrimeRequiredError("exp_p needs odd p")
    if x.value == 0:
        return ctx.one
    p, K, modulus = ctx.p, ctx.precision, ctx.modulus
    v = valuation(x)
    if v < 1:
        raise DomainError("exp_p argument must have valuation >= 1")
    # Term n is x^n / n!; v_p(n!) = (n - digitsum(n)) / (p - 1), so the term's
    # valuation is at least n*v - (n-1)/(p-1) and grows without bound for p odd.
    total = 1
    num = 1  # exact integer x.value**n
    fact_v, fact_unit = 0, 1  # n! = p**fact_v * fact_unit
    n = 0
    while (n + 1) * (v * (p - 1) - 1) < K * (p - 1):
        n += 1
        num *= x.value
        dv, dm = _strip_p_power(n, p)
        fact_v += dv
        fact_unit = (fact_unit * dm) % modulus
        term = (num // p**fact_v) % modulus
        total += term * pow(fact_unit, -1, modulus)
        total %= modulus
    return PadicInt(ctx, total)


def ln_p(u: PadicInt) -> PadicInt:
    """Truncated logarithm series; needs p odd and u = 1 mod p."""
    ctx = u.ctx
    if ctx.p == 2:
        raise OddPrimeRequiredError("ln_p needs odd p")
    if u.value % ctx.p != 1:
        raise DomainError(f"ln_p argument must be = 1 mod p, got first digit {u.value % ctx.p}")
    p, K, modulus = ctx.p, ctx.precision, ctx.modulus
    t = (u.value - 1) % modulus
    if t == 0:
        return ctx.zero
    v, _ = _strip_p_power(t, p)
    # Term n is (-1)^(n+1) t^n / n with valuation n*v - v_p(n); the lower
    # bound n*v - floor(log_p n) is non-decreasing in n for v >= 1.
    total = 0
    num = 1
    n = 0
    plog = 0  # floor(log_p n)
    pnext = p
    while True:
        n += 1
        if n == pnext:
            plog += 1
            pnext *= p
        if n * v - plog >= K:
            break
        num *= t
        nv, nm = _strip_p_power(n, p)
        term = (num // p**nv) % modulus * pow(nm, -1, modulus) % modulus
        total = (total + term) if n % 2 == 1 else (total - term)
        total %= modulus
    return PadicInt(ctx, total)


# -- digitwise operations -----------------------------------------------------


def _digitwise(x: PadicInt, y: PadicInt, combine) -> PadicInt:
    x._check_ctx(y)
    p = x.ctx.p
    a, b = x.value, y.value
    out, shift = 0, 1
    for _ in range(x.ctx.precision):
        out += (combine(a % p, b % p) % p) * shift
        a //= p
        b //= p
        shift *= p
    return PadicInt(x.ctx, out)


def xor_p(x: PadicInt, y: PadicInt) -> PadicInt:
    """Digitwise addition mod p (no carries); classical xor at p = 2."""
    return _digitwise(x, y, lambda a, b: a + b)


def and_p(x: PadicInt, y: PadicInt) -> PadicInt:
    """Digitwise multiplication mod p (no carries); classical and at p = 2."""
    return _digitwise(x, y, lambda a, b: a * b)


def all_ones(ctx: PadicContext) -> PadicInt:
    """Neutral element of and_p: every digit equal to 1."""
    return PadicInt(ctx, (ctx.modulus - 1) // (ctx.p - 1))
