import math
import random

import pytest
from hypothesis import given, strategies as st

from padic_ciphers.core import (
    ContextMismatchError,
    DomainError,
    FormatError,
    NonUnitError,
    OddPrimeRequiredError,
    PadicContext,
    PadicInt,
    all_ones,
    and_p,
    construct,
    exp_p,
    from_text,
    invert_unit,
    ln_p,
    pow_nat,
    pow_unit,
    teichmuller,
    to_text,
    truncate,
    unit_decompose,
    valuation,
    xor_p,
)

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
    # the bound is configurable
    assert PadicContext(5, 80, max_precision=128).precision == 80


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
    assert construct(C34, 5) == construct(C34, (2, 1, 0, 0))


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


def test_xor_group_laws_exhaustive():
    zero = C32.zero
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
    e = all_ones(C53)
    assert e.digits == (1, 1, 1)
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
    z = C34.zero
    assert valuation(z) == math.inf
    dz = unit_decompose(z)
    assert dz.valuation == math.inf and dz.recompose() == z


def test_unit_decompose_recompose_exhaustive():
    for v in C33.residues():
        x = C33.integer(v)
        assert unit_decompose(x).recompose() == x


def test_invert_unit_examples():
    assert invert_unit(C52.integer(2)).value == 13
    assert invert_unit(C33.integer(4)).value == 7
    with pytest.raises(NonUnitError):
        invert_unit(C33.integer(3))
    with pytest.raises(NonUnitError):
        invert_unit(C33.zero)


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


def test_teichmuller_multiplicative():
    for p, K in [(3, 3), (5, 2), (7, 4)]:
        ctx = PadicContext(p, K)
        for a in range(1, p):
            for b in range(1, p):
                lhs = teichmuller(ctx, a) * teichmuller(ctx, b)
                rhs = teichmuller(ctx, a * b % p)
                assert lhs == rhs


def test_exp_ln_examples():
    assert ln_p(C53.integer(6)).value == 55
    assert exp_p(C53.integer(55)).value == 6
    assert exp_p(C53.zero).value == 1
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
