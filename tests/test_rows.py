"""The rows an exhaustive scan reads, against the pair form of each operation.

``_rows`` builds each row a scan reads, as bytes up to 256 residues and as
a list above, and keeps no table: MUL rows from stride slices of a ramp,
XOR and AND rows from per-digit terms or the level below,
G1, G3, G4 and LinearG rows from a row of ADD or MUL through their split,
G2 and SeriesG from their ``op.rows``.  Every row must equal the list of
``op.pair`` values, and no scan of an operation with a split may call its
``pair``.
"""

from __future__ import annotations

import tracemalloc
from random import Random

import pytest

from padic_ciphers import analysis
from padic_ciphers.analysis import AND, MUL, XOR, homomorphism_test
from padic_ciphers.ciphers import (
    G1,
    G2,
    G3,
    G4,
    GLIN,
    OP_NAMES,
    LinearG,
    Operation,
    SeriesG,
    keygen,
)
from padic_ciphers.core import DomainError, PadicContext, PadicInt
from padic_ciphers.lipschitz import ValueTable
from test_scans import outcome, reference_test


def _operations(ctx: PadicContext, rng: Random) -> list[Operation]:
    """Every named operation but GLIN (G3 needs an odd p), LinearG with unit,
    non-unit and zero coefficients, and one SeriesG."""
    p, m = ctx.p, ctx.modulus
    i = ctx.integer
    unit = (p * rng.randrange(m) + rng.randrange(1, p)) % m
    ops = [op for op in OP_NAMES.values() if op is not GLIN and (p > 2 or op.name != "G3")]
    ops += [LinearG(i(unit), i(p * rng.randrange(m))), LinearG(i(0), i(unit)),
            LinearG(i(p), i(0)), LinearG(i(0), i(0)),
            SeriesG(i(0), i(unit), i(p), (((1, 1), i(rng.randrange(m))), ((2, 1), i(1))))]
    return ops


def _assert_rows(ctx: PadicContext, ys, rng: Random) -> None:
    p, m = ctx.p, ctx.modulus
    for op in _operations(ctx, rng):
        rows = analysis._rows(op, ctx)
        for y in ys:
            want = [op.pair(x, y, p, m) for x in range(m)]
            assert rows(y) == (bytes(want) if m <= 256 else want), (op, ctx, y)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_byte_rows_equal_the_pair_form_at_every_y(p):
    rng = Random(p)
    k = 1
    while p**k <= 256:
        ctx = PadicContext(p, k)
        _assert_rows(ctx, range(ctx.modulus), rng)
        k += 1


# Above 256 residues: levels whose ceil(sqrt(m)) chunk length is a power of p
# (3^6, 5^4, 17^2) and is not (7^3, 2^9), and k = 1 at primes above 256,
# where no power of p lies between 1 and m.
@pytest.mark.parametrize("p,k", [(7, 3), (3, 6), (2, 9), (5, 4), (17, 2), (257, 1), (4093, 1)])
def test_list_rows_equal_the_pair_form(p, k):
    ctx = PadicContext(p, k)
    m = ctx.modulus
    rng = Random(m)
    ys = {0, 1, p % m, p ** (k - 1), m - 1, *rng.sample(range(m), 4)}
    _assert_rows(ctx, sorted(ys), rng)


# XOR and AND rows sum per-digit terms packed in one integer up to 256
# residues (every y at those levels is checked above) and interleave p
# gathers of the level below above it: every y where that level is bytes
# (7^2, 2^8), and 64 of them at 2^10, where it is a list.
@pytest.mark.parametrize("p,k", [(7, 3), (2, 9), (2, 10)])
def test_digitwise_list_rows_equal_the_pair_form_at_every_y(p, k):
    ctx = PadicContext(p, k)
    m = ctx.modulus
    for op in (XOR, AND):
        rows = analysis._rows(op, ctx)
        for y in range(m) if m < 1000 else Random(m).sample(range(m), 64):
            assert rows(y) == [op.pair(x, y, p, m) for x in range(m)], (op, y)


# The split of G3 raises at p = 2 when the rows are set up, not at the first
# row read; the scan must still raise what the per-pair scan raised, and in
# the same order as the level and prime checks.
@pytest.mark.parametrize("K", (3, 9))
def test_errors_match_the_reference_at_byte_and_list_levels(K):
    ctx = PadicContext(2, K)
    rng = Random(K)
    table = ValueTable(ctx, tuple(rng.randrange(ctx.modulus) for _ in range(ctx.modulus)))
    key = keygen(ctx, "additive", rng)
    for subject in (table, key):
        for kwargs in ({"exhaustive_k": K}, {"exhaustive_k": 1}, {"exhaustive_k": K + 1},
                       {"trials": 10, "seed": 0}):
            got = outcome(homomorphism_test, subject, G3(), **kwargs)
            assert got == outcome(reference_test, subject, G3(), **kwargs), (subject, kwargs)
            assert isinstance(got, tuple) and got[0] is DomainError
    other = PadicContext(3, 2)
    five = PadicContext(5, 4)
    key = keygen(five, "additive", rng)
    for op in (LinearG(other.one, other.integer(2)), LinearG(five.one, PadicInt(other, 1))):
        for kwargs in ({"exhaustive_k": 2}, {"exhaustive_k": 4}, {"trials": 10, "seed": 0}):
            got = outcome(homomorphism_test, key, op, **kwargs)
            assert got == outcome(reference_test, key, op, **kwargs), (op, kwargs)
            assert got == (DomainError, "operation coefficients use a different prime")


def test_scans_of_split_operations_call_no_kernel(monkeypatch):
    """MUL builds its rows from a ramp, and G1, G3, G4 and LinearG from a row
    of ADD or MUL: with each one's ``pair`` raising, full scans still pass."""
    def pair(*args):
        raise AssertionError("a row was built by pair")

    for ctx in (PadicContext(3, 5), PadicContext(7, 3)):  # 243 and 343 residues
        ops = [MUL, G1(), G3(), G4(), LinearG(ctx.integer(3), ctx.integer(7 * ctx.p))]
        for cls in set(map(type, ops)):
            monkeypatch.setattr(cls, "pair", pair)
        identity = ValueTable(ctx, tuple(range(ctx.modulus)))
        for op in ops:
            for k in range(1, ctx.precision + 1):
                rep = homomorphism_test(identity, op, exhaustive_k=k)
                assert rep.verdict == "pass" and rep.trials == ctx.p ** (2 * k), (op, k)


# The two operations that state ``rows`` are checked above at levels of up to
# 4096 residues; at precision 64 their rows must still equal the pair form,
# on random x and y and on 0, 1 and -1.
@pytest.mark.parametrize("p", (3, 7, 13))
def test_stated_rows_equal_the_pair_form_at_full_precision(p):
    ctx = PadicContext(p, 64)
    m, rng = ctx.modulus, Random(p)

    def draw():
        return ctx.integer(rng.randrange(m))

    terms = (((1, 1), draw()), ((3, 0), draw()), ((0, 2), draw()), ((2, 5), draw()))
    ops = [G2(), SeriesG(ctx.integer(0), draw(), draw(), terms),
           SeriesG(draw(), draw(), draw(), ())]
    xs = [0, 1, m - 1, *(rng.randrange(m) for _ in range(200))]
    for op in ops:
        for y in (0, 1, m - 1, rng.randrange(m)):
            assert op.rows(xs, p, m)(y) == [op.pair(x, y, p, m) for x in xs], (op, y)


# A ramp of ceil(sqrt(m)) copies of range(m) is 64 * m list entries, 2 MiB at
# either level; the whole m * m table it stands in for would be 134 MB.
@pytest.mark.parametrize("p,k", [(4093, 1), (2, 12)])
def test_mul_rows_take_no_table_of_the_level(p, k):
    ctx = PadicContext(p, k)
    m = ctx.modulus
    tracemalloc.start()
    try:
        rows = analysis._rows(MUL, ctx)
        read = [rows(y) for y in (1, m // 2 + 1, m - 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read[0] == list(range(m))
    assert peak < 4 << 20, peak
