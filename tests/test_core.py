import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from padic_ciphers import core
from padic_ciphers.core import (
    PRIME_BOUND,
    ContextMismatchError,
    DomainError,
    FormatError,
    NonUnitError,
    OddPrimeRequiredError,
    PadicContext,
    PadicInt,
    and_p,
    digitwise,
    from_text,
    invert_unit,
    pow_nat,
    pow_unit,
    teichmuller,
    to_text,
    truncate,
    valuation,
    xor_p,
    _is_prime,
    _primitive_root,
)
from test_kernels import unit_decompose

C34 = PadicContext(3, 4)
C32 = PadicContext(3, 2)
C33 = PadicContext(3, 3)
C52 = PadicContext(5, 2)
C53 = PadicContext(5, 3)
C28 = PadicContext(2, 8)


def test_context_validation():
    with pytest.raises(DomainError):
        PadicContext(4, 2)
    with pytest.raises(DomainError):
        PadicContext(5, 0)
    with pytest.raises(DomainError):
        PadicContext(5, 65)


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]
    assert _is_prime(10**12 + 39)


def _order(r: int, p: int) -> int:
    """The multiplicative order of r mod p, by repeated multiplication."""
    n, v = 1, r % p
    while v != 1:
        n, v = n + 1, v * r % p
    return n


def test_primitive_root_is_the_least_residue_of_order_p_minus_1():
    for p in filter(_trial_division, range(200)):
        r = _primitive_root(p)
        assert _order(r, p) == p - 1, p
        assert all(_order(s, p) < p - 1 for s in range(1, r)), p
    assert _primitive_root(2) == 1


def test_primality_rejects_carmichael_numbers_and_strong_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
    # Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
    # factors are prime; at these k every factor exceeds the 13 witnesses.
    for k in (35, 45, 51):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(_trial_division(f) and f > 41 for f in factors)
        carmichael.append(math.prod(factors))
    for n in carmichael:
        assert all(pow(a, n - 1, n) == 1 for a in (2, 43, 97) if math.gcd(a, n) == 1)
        assert not _is_prime(n), n
    # the least strong pseudoprimes to the first 4, 9 and 12 prime bases
    for n, factors in ((3215031751, (151, 751, 28351)),
                       (3825123056546413051, (149491, 747451, 34233211)),
                       (318665857834031151167461, (399165290221, 798330580441))):
        assert math.prod(factors) == n and not _is_prime(n)


def test_primality_of_a_60_bit_prime_is_fast():
    n = 2**60 - 93
    start = time.perf_counter()
    assert _is_prime(n) and n.bit_length() == 60
    assert time.perf_counter() - start < 0.01
    assert not _is_prime(n * 3) and not _is_prime((2**30 + 3) * (2**31 - 1))


def test_p_beyond_the_exact_primality_range_is_refused():
    # PRIME_BOUND is itself a strong pseudoprime to all 13 witnesses; 2^89 - 1
    # is a Mersenne prime
    for p in (PRIME_BOUND, 2**89 - 1, 10**45 + 7):
        with pytest.raises(DomainError, match="out of range"):
            PadicContext(p, 1)
    for p in (2 * PRIME_BOUND, PRIME_BOUND + 2):  # a witness divides each
        with pytest.raises(DomainError, match="must be a prime"):
            PadicContext(p, 1)


def test_construct_and_digits():
    x = C34.integer(5)
    assert x.digits == (2, 1, 0, 0)
    assert C34.from_digits([2, 1, 0, 0]).value == 5
    # canonical reduction
    assert C34.integer(5 + 81).value == 5
    with pytest.raises(DomainError):
        C34.integer(-1)
    with pytest.raises(DomainError):
        C34.from_digits([3, 0, 0, 0])
    with pytest.raises(DomainError):
        C34.from_digits([1, 1])


def test_digit_roundtrip_exhaustive():
    for v in C33.residues():
        x = C33.integer(v)
        assert C33.from_digits(x.digits) == x


def test_truncate():
    x = C34.integer(5)
    t = truncate(x, 1)
    assert t.ctx.precision == 1 and t.digits == (2,)
    with pytest.raises(DomainError):
        truncate(x, 5)
    with pytest.raises(DomainError):
        truncate(x, 0)


def test_ring_ops_examples():
    a, b = C34.integer(5), C34.integer(7)
    assert (a + b).digits == (0, 1, 1, 0)  # 12
    assert (C32.integer(5) * C32.integer(7)).digits == (2, 2)  # 35 = 8 mod 9
    assert (a - b).value == (5 - 7) % 81
    assert (-a).value == 76
    with pytest.raises(ContextMismatchError):
        a + C32.integer(1)


def test_digitwise_ops_examples():
    assert xor_p(C32.integer(5), C32.integer(7)).value == 0
    assert and_p(C32.integer(5), C32.integer(7)).value == 8
    # at p=2 the digitwise ops are the classical bitwise ones
    assert xor_p(C28.integer(13), C28.integer(9)).value == 13 ^ 9 == 4
    assert and_p(C28.integer(13), C28.integer(9)).value == 13 & 9
    assert (C32.integer(5) ^ C32.integer(7)).value == 0


def test_digitwise_kernel_matches_digit_lists():
    rng = random.Random(5)
    for ctx in (C33, C28, PadicContext(7, 5), PadicContext(5, 16)):
        p = ctx.p
        pairs = [(rng.randrange(ctx.modulus), rng.randrange(ctx.modulus)) for _ in range(200)]
        for x, y in pairs:
            dx, dy = ctx.integer(x).digits, ctx.integer(y).digits
            added = ctx.from_digits([(a + b) % p for a, b in zip(dx, dy)])
            multiplied = ctx.from_digits([a * b % p for a, b in zip(dx, dy)])
            assert digitwise(x, y, p, ctx.modulus) == added.value
            assert digitwise(x, y, p, ctx.modulus, multiply=True) == multiplied.value


def _digit_lists(x: int, y: int, p: int, K: int, multiply: bool) -> int:
    """Digitwise sum or product read from the two digit lists, digit by digit."""
    out = 0
    for k in range(K):
        a, b = x // p**k % p, y // p**k % p
        out += (a * b if multiply else a + b) % p * p**k
    return out


@pytest.mark.parametrize("p, h", [(2, 7), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1), (65537, 1)])
def test_blocked_digitwise_matches_digit_lists_on_both_sides_of_the_gate(p, h):
    """p <= 11 reads blocks of h digits, h the most with p^(2h) <= 2^14, through
    one bytes table per (p, operation); p >= 13 builds none."""
    if h > 1:
        assert p ** (2 * h) <= 1 << 14 < p ** (2 * h + 2)
    else:  # a block would be one digit: the per-digit loop, and no table
        assert p**4 > 1 << 14
    rng = random.Random(p)
    core._pair_table.cache_clear()
    for K in sorted({1, max(h - 1, 1), h, h + 1, 64}):
        m = p**K
        pairs = [(0, m - 1), (m - 1, 0), (m - 1, m - 1), (0, 0)]
        pairs += [(rng.randrange(m), rng.randrange(m)) for _ in range(20)]
        for x, y in pairs:
            for multiply in (False, True):
                assert digitwise(x, y, p, m, multiply) == _digit_lists(x, y, p, K, multiply)
    info = core._pair_table.cache_info()
    assert info.currsize == (0 if h == 1 else 2)  # one table per (p, operation), built once
    assert info.misses == info.currsize
    for multiply in (False, True)[:info.currsize]:
        table, q = core._pair_table(p, multiply)
        assert type(table) is bytes and len(table) == q * q <= 1 << 14 and q == p**h


def test_xor_group_laws_exhaustive():
    zero = C32.integer(0)
    for a in C32.residues():
        xa = C32.integer(a)
        assert xor_p(xa, zero) == xa
        for b in C32.residues():
            xb = C32.integer(b)
            assert xor_p(xa, xb) == xor_p(xb, xa)
    # every element has an inverse (digitwise negation)
    for a in C32.residues():
        xa = C32.integer(a)
        inv = C32.from_digits(tuple((-d) % 3 for d in xa.digits))
        assert xor_p(xa, inv) == zero


def test_and_identity():
    e = C53.from_digits((1, 1, 1))
    for v in [0, 1, 17, 124]:
        x = C53.integer(v)
        assert and_p(x, e) == x


def test_valuation_and_unit_decompose():
    x = C34.integer(18)
    d = unit_decompose(x)
    assert valuation(x) == 2 and d.valuation == 2
    assert d.unit_digit == 2 and d.tail.value == 0
    y = C52.integer(7)
    dy = unit_decompose(y)
    assert (dy.valuation, dy.unit_digit, dy.tail.value) == (0, 2, 1)
    z = C34.integer(0)
    assert valuation(z) == math.inf
    dz = unit_decompose(z)
    assert (dz.valuation, dz.unit_digit, dz.tail) == (math.inf, 0, C34.integer(0))


def test_unit_decompose_recompose_exhaustive():
    for v in range(1, C33.modulus):
        d = unit_decompose(C33.integer(v))
        assert (d.unit_digit + 3 * d.tail.value) * 3**d.valuation % C33.modulus == v


def test_invert_unit_examples():
    assert invert_unit(C52.integer(2)).value == 13
    assert invert_unit(C33.integer(4)).value == 7
    with pytest.raises(NonUnitError):
        invert_unit(C33.integer(3))
    with pytest.raises(NonUnitError):
        invert_unit(C33.integer(0))


def test_invert_unit_exhaustive_oracle():
    # oracle: brute scan of residues mod 27
    for v in C33.residues():
        if v % 3 == 0:
            continue
        inv = invert_unit(C33.integer(v))
        matches = [w for w in C33.residues() if (v * w) % 27 == 1]
        assert matches == [inv.value]


def test_pow_nat():
    assert pow_nat(C52.integer(7), 4).value == 1
    assert pow_nat(C52.integer(7), 0).value == 1
    with pytest.raises(DomainError):
        pow_nat(C52.integer(7), -1)


def test_pow_unit_examples():
    # exponents act through their residue mod p^(K-1)
    assert pow_unit(C33.integer(4), C33.integer(13)).value == 13  # 4^(13 mod 9) = 4^4
    r = pow_unit(C33.integer(4), C33.integer(26))
    assert r.value == 7
    assert (C33.integer(4) * r).value == 1
    with pytest.raises(DomainError):
        pow_unit(C33.integer(2), C33.integer(1))
    with pytest.raises(OddPrimeRequiredError):
        pow_unit(C28.integer(3), C28.integer(1))


def test_pow_unit_exponent_homomorphism():
    rng = random.Random(7)
    ctx = PadicContext(5, 4)
    for _ in range(50):
        base = ctx.integer(1 + 5 * rng.randrange(5**3))
        e1 = ctx.integer(rng.randrange(ctx.modulus))
        e2 = ctx.integer(rng.randrange(ctx.modulus))
        assert pow_unit(base, e1 + e2) == pow_unit(base, e1) * pow_unit(base, e2)


def test_teichmuller_examples():
    assert teichmuller(C52, 2).value == 7
    assert teichmuller(C33, 2).value == 26
    assert teichmuller(C52, 1).value == 1
    with pytest.raises(DomainError):
        teichmuller(C52, 0)
    with pytest.raises(DomainError):
        teichmuller(C52, 5)
    with pytest.raises(OddPrimeRequiredError):
        teichmuller(C28, 1)


def test_teichmuller_is_root_of_unity_oracle():
    # oracle: omega(a) is the unique solution of A^(p-1) = 1 with A = a mod p,
    # found by brute scan
    for ctx, a in [(C52, 2), (C52, 3), (C52, 4), (C33, 2)]:
        w = teichmuller(ctx, a)
        scan = [
            v
            for v in ctx.residues()
            if pow(v, ctx.p - 1, ctx.modulus) == 1 and v % ctx.p == a
        ]
        assert scan == [w.value]


def _teichmuller_fixed_point(p: int, precision: int, a: int) -> int:
    """The lift as the fixed point of t -> t^p mod p^K, iterated from a."""
    modulus = p**precision
    t = a
    for _ in range(precision + 1):
        nxt = pow(t, p, modulus)
        if nxt == t:
            break
        t = nxt
    assert pow(t, p, modulus) == t
    return t


def test_teichmuller_closed_form_equals_fixed_point():
    for p in (3, 5, 7, 11, 13):
        for K in (1, 2, 5, 16, 64):
            ctx = PadicContext(p, K)
            for a in range(1, p):
                assert teichmuller(ctx, a).value == _teichmuller_fixed_point(p, K, a)


# Where no block table lists the lifts, the kernel lifts by Newton's step at
# every call; the closed form t^(p^(K-1)) mod p^K is the reference here.
NEWTON_PRECISIONS = {11: range(1, 65), 13: range(1, 65), 101: range(1, 65),
                     65537: (1, 2, 3, 16, 64), 3317044064679887385961813: (1, 2, 3, 17, 33)}


@pytest.mark.parametrize("p", sorted(NEWTON_PRECISIONS))
def test_the_newton_lift_equals_the_closed_form(p):
    rng = random.Random(p)
    for K in NEWTON_PRECISIONS[p]:
        ctx = PadicContext(p, K)
        for a in sorted({1, 2, p - 1, rng.randrange(1, p)}):
            assert teichmuller(ctx, a).value == pow(a, p ** (K - 1), ctx.modulus)
        assert core.teichmuller_residue(0, p, K) == 0
    if p > 65537:  # one lift at the largest admitted p and K: its closed form takes 0.4 s
        assert teichmuller(PadicContext(p, 64), 2).value == pow(2, p**63, p**64)


def test_teichmuller_multiplicative():
    for p, K in [(3, 3), (5, 2), (7, 4)]:
        ctx = PadicContext(p, K)
        for a in range(1, p):
            for b in range(1, p):
                lhs = teichmuller(ctx, a) * teichmuller(ctx, b)
                rhs = teichmuller(ctx, a * b % p)
                assert lhs == rhs


# -- exp / ln: the reference for pow_unit ----------------------------------------
#
# pow_unit(u, e) = u^e on 1 + pZ_p is exp(e ln u); the series below compute that
# the long way, term by term on the convergence domains.


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
        return ctx.integer(0)
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


def test_exp_ln_examples():
    assert ln_p(C53.integer(6)).value == 55
    assert exp_p(C53.integer(55)).value == 6
    assert exp_p(C53.integer(0)).value == 1
    assert ln_p(C53.one).value == 0
    with pytest.raises(DomainError):
        exp_p(C53.integer(2))  # valuation 0
    with pytest.raises(DomainError):
        ln_p(C53.integer(7))  # not = 1 mod p
    with pytest.raises(OddPrimeRequiredError):
        exp_p(C28.integer(2))
    with pytest.raises(OddPrimeRequiredError):
        ln_p(C28.integer(3))


def test_exp_ln_mutual_inverse_exhaustive():
    for p in (3, 5):
        ctx = PadicContext(p, 3)
        for t in range(p**2):
            x = ctx.integer(p * t)
            u = exp_p(x)
            assert u.value % p == 1
            assert ln_p(u) == x
        for t in range(p**2):
            u = ctx.integer(1 + p * t)
            assert exp_p(ln_p(u)) == u


def test_pow_unit_agrees_with_exp_ln():
    # the two routes compute the same unit-group action
    rng = random.Random(11)
    for p in (3, 5, 7):
        ctx = PadicContext(p, 4)
        for _ in range(25):
            base = ctx.integer(1 + p * rng.randrange(p**3))
            e = ctx.integer(rng.randrange(ctx.modulus))
            assert pow_unit(base, e) == exp_p(e * ln_p(base))


def test_text_form_roundtrip():
    x = C34.integer(5)
    assert to_text(x) == "3:4:2,1,0,0"
    assert from_text("3:4:2,1,0,0") == x
    assert from_text(" 3:4:2,1,0,0 ") == x
    assert from_text("5", C34) == x
    assert str(x) == "3:4:2,1,0,0"
    with pytest.raises(FormatError):
        from_text("5")  # plain integer needs a context
    with pytest.raises(FormatError):
        from_text("3:4:2,1", C34)
    with pytest.raises(FormatError):
        from_text("3:2:1,0", C34)  # context mismatch
    with pytest.raises(FormatError):
        from_text("4:2:1,0")  # p not prime
    with pytest.raises(FormatError):
        from_text("zzz", C34)


@given(st.integers(0, 3**4 - 1), st.integers(0, 3**4 - 1), st.integers(1, 4))
def test_truncation_exactness(a, b, k):
    # computing at K digits then truncating equals computing at k digits
    xa, xb = C34.integer(a), C34.integer(b)
    for op in (lambda u, v: u + v, lambda u, v: u * v, xor_p, and_p):
        full = truncate(op(xa, xb), k)
        small = op(truncate(xa, k), truncate(xb, k))
        assert full == small


@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_ultrametric_of_ring_ops(a, b):
    xa, xb = C53.integer(a), C53.integer(b)
    va, vb = valuation(xa), valuation(xb)
    assert valuation(xa + xb) >= min(va, vb)
    assert valuation(xa * xb) >= min(va + vb, C53.precision)


# -- refusals, to the letter -----------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: PadicInt(C32, 9), "residue 9 out of range [0, 9)"),
    (lambda: PadicInt(C32, -1), "residue -1 out of range [0, 9)"),
    (lambda: pow_unit(C33.integer(1), -1), "exponent residue must be non-negative"),
], ids=range(3))
def test_domain_refusals(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("text, ctx, message", [
    ("3:2:1:0", None, "expected p:K:d0,...,d(K-1), got '3:2:1:0'"),
    ("3:x:1,0", None, "malformed p-adic literal '3:x:1,0'"),
    ("3:2:1,0", C34, "literal context 3:2 does not match expected 3:4"),
    # a DomainError of the context or the digits, read as a FormatError
    ("4:2:1,0", None, "p must be a prime integer, got 4"),
    ("3:65:1", None, "precision must be in [1, 64], got 65"),
    ("3:2:1,3", None, "digit 3 at position 1 out of range [0, 3)"),
    ("3:2:1,3", C32, "digit 3 at position 1 out of range [0, 3)"),
    ("3:2:1,0,0", C32, "expected 2 digits, got 3"),
], ids=range(8))
def test_from_text_refusals(text, ctx, message):
    with pytest.raises(FormatError) as info:
        from_text(text, ctx)
    assert str(info.value) == message
