"""Differential test of the per-key integer kernels against the per-digit
reference implementations they replaced.

The reference functions below are the former bodies of ``encrypt`` and
``decrypt``: they build ``PadicInt`` values, recompute every inverse, lift
and digit on each call, and walk the xor matrix row by row.  Every family's
``enc_int``/``dec_int`` must agree with them on every valuation 0..K-1 and
on zero, and decryption must invert encryption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padic_ciphers import ciphers
from padic_ciphers.ciphers import (
    AdditiveKey,
    AndKey,
    FheKey,
    G1,
    LinearG,
    MultiplicativeKey,
    XorKey,
    keygen,
    roots_of_unity,
)
from padic_ciphers.core import (
    PadicContext,
    PadicInt,
    invert_unit,
    pow_nat,
    pow_unit,
    teichmuller,
    valuation,
)

# -- reference implementations ---------------------------------------------------


@dataclass(frozen=True)
class UnitDecomposition:
    """x = p^valuation * (unit_digit + p * tail) for nonzero x.

    ``tail`` is carried at full context precision; only its first
    K - valuation - 1 digits are meaningful.
    """

    valuation: int | float
    unit_digit: int
    tail: PadicInt


def unit_decompose(x: PadicInt) -> UnitDecomposition:
    k = valuation(x)
    if k == math.inf:
        return UnitDecomposition(math.inf, 0, x.ctx.zero)
    u = x.value // x.ctx.p**k
    return UnitDecomposition(k, u % x.ctx.p, x.ctx.integer(u // x.ctx.p))


def _multiplicative_encrypt(key: MultiplicativeKey, x: PadicInt) -> PadicInt:
    ctx = key.ctx
    if x.value == 0:
        return ctx.zero
    dec = unit_decompose(x)
    k = dec.valuation
    u = PadicInt(ctx, x.value // ctx.p**k)
    w = teichmuller(ctx, dec.unit_digit)
    principal = u * invert_unit(w)  # = 1 mod p
    unit_image = pow_nat(key.A, k) * pow_nat(w, key.s) * pow_unit(principal, key.a)
    return PadicInt(ctx, unit_image.value * ctx.p**k % ctx.modulus)


def _multiplicative_decrypt(key: MultiplicativeKey, y: PadicInt) -> PadicInt:
    ctx = key.ctx
    if y.value == 0:
        return ctx.zero
    p = ctx.p
    dec = unit_decompose(y)
    k = dec.valuation
    w_img = PadicInt(ctx, y.value // p**k)
    # strip A^k, then read t0 through the inverse digit exponent
    w1 = w_img * invert_unit(pow_nat(key.A, k))
    t0 = pow(w1.value % p, pow(key.s, -1, p - 1), p)
    w = teichmuller(ctx, t0)
    principal_img = w1 * invert_unit(pow_nat(w, key.s))
    a_inv = pow(key.a.value, -1, p ** (ctx.precision - 1)) if ctx.precision > 1 else 0
    principal = pow_unit(principal_img, a_inv)
    u = w * principal
    return PadicInt(ctx, u.value * p**k % ctx.modulus)


def _xor_apply(rows: tuple[tuple[int, ...], ...], x: PadicInt) -> PadicInt:
    ctx = x.ctx
    p = ctx.p
    digits = x.digits
    out, shift = 0, 1
    for k, row in enumerate(rows):
        acc = 0
        for i in range(k + 1):
            acc += row[i] * digits[i]
        out += (acc % p) * shift
        shift *= p
    return PadicInt(ctx, out)


def _xor_solve(key: XorKey, y: PadicInt) -> PadicInt:
    ctx = key.key_ctx
    p = ctx.p
    ydig = y.digits
    xdig: list[int] = []
    for k, row in enumerate(key.rows):
        acc = sum(row[i] * xdig[i] for i in range(k))
        xk = (ydig[k] - acc) * pow(row[k], -1, p) % p
        xdig.append(xk)
    return ctx.from_digits(xdig)


def _and_apply(ctx: PadicContext, exponents: tuple[int, ...], x: PadicInt) -> PadicInt:
    p = ctx.p
    digits = x.digits
    out, shift = 0, 1
    for k, s in enumerate(exponents):
        out += pow(digits[k], s, p) * shift
        shift *= p
    return PadicInt(ctx, out)


def reference_encrypt(key, x: PadicInt) -> PadicInt:
    if isinstance(key, (AdditiveKey, FheKey)):
        return key.A * x
    if isinstance(key, MultiplicativeKey):
        return _multiplicative_encrypt(key, x)
    if isinstance(key, XorKey):
        return _xor_apply(key.rows, x)
    return _and_apply(key.key_ctx, key.exponents, x)


def reference_decrypt(key, y: PadicInt) -> PadicInt:
    if isinstance(key, (AdditiveKey, FheKey)):
        return invert_unit(key.A) * y
    if isinstance(key, MultiplicativeKey):
        return _multiplicative_decrypt(key, y)
    if isinstance(key, XorKey):
        return _xor_solve(key, y)
    p = key.key_ctx.p
    inverse = tuple(pow(s, -1, p - 1) if p > 2 else 1 for s in key.exponents)
    return _and_apply(key.key_ctx, inverse, y)


# -- keys and plaintexts -----------------------------------------------------------


def units(ctx: PadicContext):
    p = ctx.p
    return st.builds(
        lambda t, rest: PadicInt(ctx, t + p * rest),
        st.integers(1, p - 1),
        st.integers(0, ctx.modulus // p - 1),
    )


def keys(ctx: PadicContext, family: str):
    p, K = ctx.p, ctx.precision
    exponents = st.sampled_from([s for s in range(1, p) if math.gcd(s, p - 1) == 1])
    if family == "additive":
        return st.builds(AdditiveKey, units(ctx))
    if family == "multiplicative":
        return st.builds(MultiplicativeKey, A=units(ctx), s=exponents, a=units(ctx))
    if family == "xor":
        rows = st.tuples(*(
            st.tuples(*[st.integers(0, p - 1)] * k, st.integers(1, p - 1))
            for k in range(K)
        ))
        return rows.map(lambda r: XorKey(ctx, r))
    if family == "and":
        return st.lists(exponents, min_size=K, max_size=K).map(
            lambda e: AndKey(ctx, tuple(e))
        )
    if p == 2:  # no nontrivial root of unity: a linear G admits every unit
        return units(ctx).map(lambda A: FheKey(A, LinearG(ctx.one, ctx.one)))
    roots = sorted(r.value for r in roots_of_unity(ctx, p - 1))
    return st.sampled_from(roots).map(lambda A: FheKey(PadicInt(ctx, A), G1()))


def plaintexts(ctx: PadicContext, rng) -> list[int]:
    """Zero and one value of each valuation 0..K-1."""
    p, K = ctx.p, ctx.precision
    return [0] + [
        p**v * (rng.randrange(1, p) + p * rng.randrange(p ** (K - v - 1)))
        for v in range(K)
    ]


CASES = [
    (family, PadicContext(p, K))
    for p in (2, 3, 5, 7, 41)
    for K in (1, 2, 16, 64)
    for family in ("additive", "multiplicative", "xor", "and", "fhe")
    if not (family == "multiplicative" and p == 2)
]


@pytest.mark.parametrize(
    "family,ctx", CASES, ids=[f"{f}-{c.p}^{c.precision}" for f, c in CASES]
)
# A xor key at K = 64 has K(K+1)/2 = 2080 coefficients, none of them optional,
# so even the smallest example is large.
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(data=st.data())
def test_kernels_match_reference(family, ctx, data):
    key = data.draw(keys(ctx, family), label="key")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    for x, z in zip(plaintexts(ctx, rng), plaintexts(ctx, rng)):
        y = key.enc_int(x)
        assert y == reference_encrypt(key, PadicInt(ctx, x)).value
        assert key.dec_int(y) == x
        assert key.dec_int(z) == reference_decrypt(key, PadicInt(ctx, z)).value


# -- the block kernels of xor and and ------------------------------------------------
#
# For p <= 7 the xor and and kernels read h digits at a time through tables;
# from p = 11 on they keep one step per digit.  Both sides of that gate, at
# block-boundary precisions, must agree with the per-digit reference.


def test_the_block_sizes_fill_64_entries_without_overflowing_a_slot():
    for p, h in ciphers._BLOCK_DIGITS.items():
        assert p**h <= 64 < p ** (h + 1)
        assert h * (p - 1) ** 2 < 256  # an unreduced xor entry
        assert math.ceil(64 / h) * (p - 1) < 256  # a sum of reduced entries
    assert all(p**2 > 64 for p in (11, 13))


def _boundary_precisions(p: int) -> list[int]:
    h = ciphers._BLOCK_DIGITS.get(p, 1)
    return sorted({1, h - 1, h, h + 1, 63, 64} - {0})


BLOCK_CASES = [
    (family, PadicContext(p, K))
    for p in (2, 3, 5, 7, 11, 13)
    for K in _boundary_precisions(p)
    for family in ("xor", "and")
]


def _check_both_directions(key, ctx, rng) -> None:
    top = ctx.modulus - 1  # every digit p - 1
    for x, z in zip(plaintexts(ctx, rng) + [top], plaintexts(ctx, rng) + [top]):
        y = key.enc_int(x)
        assert y == reference_encrypt(key, PadicInt(ctx, x)).value
        assert key.dec_int(y) == x
        assert key.dec_int(z) == reference_decrypt(key, PadicInt(ctx, z)).value


@pytest.mark.parametrize(
    "family,ctx", BLOCK_CASES, ids=[f"{f}-{c.p}^{c.precision}" for f, c in BLOCK_CASES]
)
def test_block_kernels_match_the_per_digit_reference(family, ctx):
    rng = Random(ctx.p * 100 + ctx.precision)
    for _ in range(3):
        _check_both_directions(keygen(ctx, family, rng), ctx, rng)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_xor_keys_with_every_coefficient_p_minus_1(p):
    ctx = PadicContext(p, 64)
    key = XorKey(ctx, tuple((p - 1,) * (k + 1) for k in range(64)))
    _check_both_directions(key, ctx, Random(p))


def test_block_tables_stay_small_and_large_primes_build_none():
    for p, h in ciphers._BLOCK_DIGITS.items():
        for K in range(1, 65):
            ctx = PadicContext(p, K)
            for family in ("xor", "and"):
                key = keygen(ctx, family, Random(K))
                key.dec_int(key.enc_int(ctx.modulus - 1))
                for kernel in (key._forward, key._backward):
                    assert isinstance(kernel, ciphers._DigitBlocks)
                    assert len(kernel.tables) == math.ceil(K / h)
                    assert all(len(table) <= 64 for table in kernel.tables)
    # the byte tables and digit texts are kept per p, never per key
    def cached() -> list[int]:
        return [f.cache_info().currsize for f in (ciphers._slot_bytes, ciphers._block_texts)]

    assert max(cached()) <= len(ciphers._BLOCK_DIGITS)
    before = cached()
    for p, K in ((11, 64), (13, 5), (65537, 2)):
        ctx = PadicContext(p, K)
        for family in ("xor", "and"):
            key = keygen(ctx, family, Random(p))
            key.dec_int(key.enc_int(ctx.modulus - 1))
            assert not isinstance(key._forward, ciphers._DigitBlocks)
            assert not isinstance(key._backward, ciphers._DigitBlocks)
    assert cached() == before
