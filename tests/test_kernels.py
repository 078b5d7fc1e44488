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
import tracemalloc
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from padic_ciphers import ciphers, core
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
        return UnitDecomposition(math.inf, 0, x.ctx.integer(0))
    u = x.value // x.ctx.p**k
    return UnitDecomposition(k, u % x.ctx.p, x.ctx.integer(u // x.ctx.p))


def _multiplicative_encrypt(key: MultiplicativeKey, x: PadicInt) -> PadicInt:
    ctx = key.ctx
    if x.value == 0:
        return ctx.integer(0)
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
        return ctx.integer(0)
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
    ctx = key.ctx
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
    return _and_apply(key.ctx, key.exponents, x)


def reference_decrypt(key, y: PadicInt) -> PadicInt:
    if isinstance(key, (AdditiveKey, FheKey)):
        return invert_unit(key.A) * y
    if isinstance(key, MultiplicativeKey):
        return _multiplicative_decrypt(key, y)
    if isinstance(key, XorKey):
        return _xor_solve(key, y)
    p = key.ctx.p
    inverse = tuple(pow(s, -1, p - 1) if p > 2 else 1 for s in key.exponents)
    return _and_apply(key.ctx, inverse, y)


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
# so even the smallest example is large, and shrinking one takes minutes.  A
# failure is reported as generated, without the shrink phase.
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.large_base_example],
          phases=[phase for phase in Phase if phase is not Phase.shrink])
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
                for kernel in (key.enc_int.__self__, key.dec_int.__self__):
                    assert isinstance(kernel, ciphers._DigitBlocks)
                    assert len(kernel.tables) == math.ceil(K / h)
                    assert all(len(table) <= 64 for table in kernel.tables)
    # the byte tables are kept per p, never per key
    def cached() -> list[int]:
        return [f.cache_info().currsize for f in (ciphers._slot_bytes,)]

    assert max(cached()) <= len(ciphers._BLOCK_DIGITS)
    before = cached()
    for p, K in ((11, 64), (13, 5), (65537, 2)):
        ctx = PadicContext(p, K)
        for family in ("xor", "and"):
            key = keygen(ctx, family, Random(p))
            key.dec_int(key.enc_int(ctx.modulus - 1))
            assert not isinstance(key.enc_int.__self__, ciphers._DigitBlocks)
            assert not isinstance(key.dec_int.__self__, ciphers._DigitBlocks)
    assert cached() == before


# -- the inverse of the xor matrix ----------------------------------------------------


@pytest.mark.parametrize("K", (1, 2, 63, 64))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_inverse_rows_times_the_key_matrix_is_the_identity(p, K):
    ctx = PadicContext(p, K)
    rng = Random(p * 100 + K)
    every_p_minus_1 = XorKey(ctx, tuple((p - 1,) * (k + 1) for k in range(K)))
    for key in [keygen(ctx, "xor", rng) for _ in range(3)] + [every_p_minus_1]:
        inverse = ciphers._inverse_rows(key.rows, p)
        assert [len(row) for row in inverse] == [k + 1 for k in range(K)]
        assert all(0 <= z < p for row in inverse for z in row)
        for k, row in enumerate(key.rows):  # row k of L times column i of L^-1
            assert [sum(row[j] * inverse[j][i] for j in range(i, k + 1)) % p
                    for i in range(k + 1)] == [0] * k + [1]


def test_an_xor_key_at_a_61_bit_prime_decrypts_what_it_encrypts():
    ctx = PadicContext(2**61 - 1, 3)
    rng = Random(61)
    for _ in range(3):
        _check_both_directions(keygen(ctx, "xor", rng), ctx, rng)


# -- one kernel for an and key whose exponents are their own inverses --------------
#
# Where p - 1 divides 24, s * s = 1 mod p - 1 for every unit s, so an and key
# decrypts with its encrypt kernel; at p = 11 the exponents 3 and 7 are each
# other's inverses, and such a key builds a decrypt kernel of its own.


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_a_self_inverse_and_key_decrypts_with_its_encrypt_kernel(p):
    rng = Random(p)
    for K in sorted({1, ciphers._BLOCK_DIGITS.get(p, 1), 64}):
        ctx = PadicContext(p, K)
        for _ in range(3):
            key = keygen(ctx, "and", rng)
            assert key.dec_int is key.enc_int
            _check_both_directions(key, ctx, rng)


@pytest.mark.parametrize("s", (3, 7))
def test_an_and_key_with_an_exponent_not_its_own_inverse_builds_a_decrypt_kernel(s):
    rng = Random(s)
    for K in (1, 64):
        ctx = PadicContext(11, K)
        key = AndKey(ctx, (s,) + tuple(rng.choice((1, 3, 7, 9)) for _ in range(K - 1)))
        assert key.dec_int is not key.enc_int
        _check_both_directions(key, ctx, rng)


# -- the multiplicative block log ---------------------------------------------------
#
# For p = 3, 5, 7 the multiplicative kernel reads the discrete log of the
# principal unit h digits at a time, h from ``_BLOCK_DIGITS``, and finishes
# with a short binomial tail; from p = 11 on it reads no block and the tail
# runs to full order.  Both must agree with the power kernel they started from,
# kept below as it was, and with the per-digit reference above, at every
# valuation and in both directions.


class PowKernel:
    """The multiplicative kernel before the block log: one Teichmuller lift
    and one modular power per call, with e = a mod p^(K-k-1)."""

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

    def lift(self, c: int) -> int:
        return pow(c, self.top, self.modulus)

    def enc(self, x: int) -> int:
        if x == 0:
            return 0
        q = math.gcd(x, self.modulus)
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


def _multiplicative_keys(ctx: PadicContext, rng: Random) -> list[MultiplicativeKey]:
    """Two random keys, and keys with a = 1, a = -1 and s = 1."""
    exponents = ciphers._coprime_exponents(ctx.p)
    return [keygen(ctx, "multiplicative", rng), keygen(ctx, "multiplicative", rng),
            MultiplicativeKey(ciphers._random_unit(ctx, rng), rng.choice(exponents), ctx.one),
            MultiplicativeKey(ciphers._random_unit(ctx, rng), rng.choice(exponents),
                              PadicInt(ctx, ctx.modulus - 1)),
            MultiplicativeKey(ciphers._random_unit(ctx, rng), 1, ciphers._random_unit(ctx, rng))]


def _check_multiplicative(key: MultiplicativeKey, ctx: PadicContext, rng: Random) -> None:
    reference = PowKernel(key)
    values = plaintexts(ctx, rng) + plaintexts(ctx, rng) + [1, ctx.modulus - 1]
    for x, z in zip(values, reversed(values)):
        y = key.enc_int(x)
        assert y == reference.enc(x) == reference_encrypt(key, PadicInt(ctx, x)).value
        assert key.dec_int(y) == x
        assert key.dec_int(z) == reference.dec(z) == reference_decrypt(key, PadicInt(ctx, z)).value


LOG_DIGITS = {p: h for p, h in ciphers._BLOCK_DIGITS.items() if p > 2}  # p -> h, p odd

# The block log at K = 1, 2, h, h + 1, 16 and 64; the full tail from p = 11 on.
MULTIPLICATIVE_CASES = [
    PadicContext(p, K) for p, h in LOG_DIGITS.items() for K in sorted({1, 2, h, h + 1, 16, 64})
] + [PadicContext(p, K) for p, K in ((11, 1), (11, 2), (11, 4), (11, 16), (13, 64), (41, 5),
                                     (65537, 3))]


@pytest.mark.parametrize(
    "ctx", MULTIPLICATIVE_CASES, ids=[f"{c.p}^{c.precision}" for c in MULTIPLICATIVE_CASES]
)
def test_both_paths_match_the_power_kernel_and_the_reference(ctx):
    kernel = ciphers._UnitKernel  # one kernel at every p
    rng = Random(ctx.p * 100 + ctx.precision)
    for key in _multiplicative_keys(ctx, rng):
        _check_multiplicative(key, ctx, rng)
        assert isinstance(key.enc_int.__self__, kernel)
        assert isinstance(key.dec_int.__self__, kernel)


def test_log_tables_stay_small_and_large_primes_build_none():
    ciphers._log_tables.cache_clear()
    for p, h in LOG_DIGITS.items():
        for K in range(1, 65):
            ctx = PadicContext(p, K)
            key = keygen(ctx, "multiplicative", Random(K))
            key.dec_int(key.enc_int(ctx.modulus - 1))
            for kernel in (key.enc_int.__self__, key.dec_int.__self__):  # level 0 reads every block
                assert isinstance(kernel, ciphers._UnitKernel)
                rows = [row for _, _, row in kernel.levels[1][-1]]
                blocks = math.ceil((math.ceil(K / 4) - 1) / h)
                assert len(rows) == blocks
                assert sum(map(len, rows)) <= blocks * p**h
    # one log half per context, which every key there shares
    contexts = 64 * len(LOG_DIGITS)
    assert ciphers._log_tables.cache_info().currsize == contexts
    ctx = PadicContext(7, 64)
    first, second = (keygen(ctx, "multiplicative", Random(i)).enc_int.__self__ for i in (1, 2))
    assert all(a[1] is b[1] for a, b in zip(first.levels[1][-1], second.levels[1][-1]))
    assert ciphers._log_tables.cache_info().currsize == contexts
    # from p = 11 on, up to p = 65537, no table and no list of lifts at all
    for p, K in ((11, 64), (13, 5), (65537, 2)):
        ctx = PadicContext(p, K)
        key = keygen(ctx, "multiplicative", Random(p))
        key.dec_int(key.enc_int(ctx.modulus - 1))
        for kernel in (key.enc_int.__self__, key.dec_int.__self__):
            assert isinstance(kernel, ciphers._UnitKernel)
            for M, shift, lead, unlift, first, *tail, steps in kernel.levels.values():
                assert steps == []
                assert not isinstance(unlift, list) and not isinstance(first, list)
    assert ciphers._log_tables.cache_info().currsize == contexts


# The block log stops once v = 1 mod p^j with 4j >= K-k, and the binomial
# tail 1 + C(b,1) z + C(b,2) z^2 + C(b,3) z^3, z = v - 1, finishes it.  Every
# K in 1..64 and every level k give every e = K - k, so every e at which
# ceil(e/4) - 1 crosses a multiple of h and the level reads one block more.
# From p = 11 on no block is read, and the tail runs to z^(e-1).


def _plain_unit_map(ctx: PadicContext, x: int, b: int, sigma: int, shift: int,
                    lead: int) -> int:
    """p^k lead^k w(t)^sigma <v>^b mod p^K for x = p^k u, v = shift^k u mod
    p^(K-k) and t = v mod p, by plain modular powers."""
    p, K = ctx.p, ctx.precision
    k = valuation(PadicInt(ctx, x))
    M = p ** (K - k)
    v = x // p**k * pow(shift, k, M) % M
    w = pow(v % p, p ** (K - 1), M)
    principal = v * pow(w, -1, M) % M
    return pow(lead, k, M) * pow(w, sigma, M) * pow(principal, b, M) % M * p**k


BIG_PRIME = 3317044064679887385961813  # the largest prime below core.PRIME_BOUND
# The precisions tested per p: every one where a block table exists, and from
# p = 11 on fewer, as the plain powers of the reference grow long; at p = 11
# they still give every e = K - k in 1..64.
TAIL_PRECISIONS = {**{p: range(1, 65) for p in LOG_DIGITS}, 11: (*range(1, 64, 2), 64),
                   13: range(1, 65, 5), 101: (1, 2, 3, 5, 8, 16, 33, 64),
                   65537: (1, 2, 3, 8, 16), BIG_PRIME: (1, 2, 5, 9)}


def _digit_exponent(p: int, rng: Random) -> int:
    """A random s coprime to p - 1: from keygen's list where p - 1 is within
    DRAW_BUDGET, else drawn again until coprime."""
    if p - 1 <= core.DRAW_BUDGET:
        return rng.choice(ciphers._coprime_exponents(p))
    while math.gcd(s := rng.randrange(1, p), p - 1) != 1:
        pass
    return s


@pytest.mark.parametrize("p", sorted(TAIL_PRECISIONS))
def test_the_tail_kernel_matches_plain_powers_at_every_precision_and_level(p):
    h, rng = LOG_DIGITS.get(p), Random(p)
    blocks_read = set()
    for K in TAIL_PRECISIONS[p]:
        ctx = PadicContext(p, K)
        m = ctx.modulus
        exponents = {1, p ** (K - 1) - 1, ciphers._random_unit(ctx, rng).value} - {0}
        for b in sorted(exponents):  # p^(K-1) - 1 is no unit at K = 1
            key = MultiplicativeKey(ciphers._random_unit(ctx, rng),
                                    _digit_exponent(p, rng), PadicInt(ctx, b))
            A, s = key.A.value, key.s
            enc = (b, s, 1, A)
            dec = (pow(b, -1, p ** (K - 1)), pow(s, -1, p - 1), pow(A, -1, m), 1)
            for k in range(K):
                M = p ** (K - k)
                blocks_read.add((K - k, len(key.enc_int.__self__.levels[p**k][-1])))
                for u in (1, M - 1, rng.randrange(M // p) * p + rng.randrange(1, p)):
                    x = u * p**k
                    y = key.enc_int(x)
                    assert y == _plain_unit_map(ctx, x, *enc)
                    assert key.dec_int(y) == x
                    assert key.dec_int(x) == _plain_unit_map(ctx, x, *dec)
    if h is None:  # no block table: no block read, and the tail runs to z^(e-1)
        assert {n for _, n in blocks_read} == {0}
        return
    # each e reads ceil((ceil(e/4) - 1)/h) blocks, so 4j >= e with j = 1 + h n
    assert blocks_read == {(e, math.ceil((math.ceil(e / 4) - 1) / h)) for e in range(1, 65)}
    assert all(4 * (1 + h * n) >= e > 4 * (1 + h * (n - 1)) for e, n in blocks_read if n)


def test_a_key_at_a_61_bit_prime_keeps_a_bounded_number_of_lifts():
    """Almost every value at this p has a leading digit not seen before; the
    kernel must not keep a lift for each of them."""
    ctx = PadicContext(2**61 - 1, 4)
    key = MultiplicativeKey(A=PadicInt(ctx, 2), s=1, a=PadicInt(ctx, 3))
    rng = Random(61)

    def encrypt_many(n: int) -> None:
        for _ in range(n):
            key.enc_int(rng.randrange(1, ctx.modulus))

    tracemalloc.start()  # before the first lift, so that dropping one counts too
    try:
        encrypt_many(512)
        before = tracemalloc.get_traced_memory()[0]
        encrypt_many(1000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024  # 1000 kept lifts take about 150 KiB


def _large_prime_key(ctx: PadicContext, rng: Random) -> MultiplicativeKey:
    return MultiplicativeKey(ciphers._random_unit(ctx, rng), _digit_exponent(ctx.p, rng),
                             ciphers._random_unit(ctx, rng))


def test_from_p_11_on_no_call_lifts_a_digit(monkeypatch):
    """From p = 11 on the kernel maps w(t)^sigma <u>^b through u^sigma and
    u^(p-1), so neither building it nor calling it lifts a digit."""
    def no_lift(*args):
        raise AssertionError("a Teichmuller lift from p = 11 on")

    monkeypatch.setattr(ciphers, "teichmuller_residue", no_lift)
    monkeypatch.setattr(core, "teichmuller_residue", no_lift)
    for p, K in ((11, 4), (101, 16), (2**61 - 1, 4), (BIG_PRIME, 9)):
        ctx = PadicContext(p, K)
        rng = Random(p)
        for key in (_large_prime_key(ctx, rng),
                    MultiplicativeKey(A=PadicInt(ctx, 2), s=1, a=PadicInt(ctx, 3))):
            for x in plaintexts(ctx, rng) + [1, ctx.modulus - 1]:
                assert key.dec_int(key.enc_int(x)) == x


def test_a_key_at_the_largest_prime_keeps_its_tail_coefficients_once():
    """From p = 11 on the tail's exponent (b - sigma)/(p - 1) is full size
    even where a is small, so each direction keeps its K coefficients mod
    p^K once, for every level to read."""
    ctx = PadicContext(BIG_PRIME, 64)
    rng = Random(64)
    for key in (_large_prime_key(ctx, rng),
                MultiplicativeKey(A=PadicInt(ctx, 2), s=1, a=PadicInt(ctx, 3))):
        tracemalloc.start()
        try:
            key.enc_int, key.dec_int
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 400 * 1024  # a copy reduced per level holds about 1.2 MiB and 680 KiB
        x = rng.randrange(1, ctx.modulus)
        assert key.dec_int(key.enc_int(x)) == x
