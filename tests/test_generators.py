"""The generator rows that decide an exhaustive level of ADD, MUL, XOR or AND.

Each of the four is a monoid on Z/p^k, so a map respects it once it does at
every x and every y in a generating set and the identity.  The sets of
``analysis._generators`` must generate each monoid, and a scan that passes
on them alone must give the report of the per-pair reference scan on maps
that respect the law, on maps one entry away from one, and on maps that
respect the rows of all generators but one.
"""

from __future__ import annotations

from random import Random

import pytest

from padic_ciphers import analysis
from padic_ciphers.analysis import ADD, AND, MUL, XOR, homomorphism_test
from padic_ciphers.ciphers import encryption_table, keygen
from padic_ciphers.core import PadicContext, _primitive_root
from padic_ciphers.lipschitz import ValueTable
from test_scans import outcome, reference_test

FAMILY = {ADD: "additive", MUL: "multiplicative", XOR: "xor", AND: "and"}


def _closure(op, gens: set[int], p: int, m: int) -> set[int]:
    """Everything op builds from gens, words of any length."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        z = frontier.pop()
        for s in gens:
            v = op.pair(z, s, p, m)
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    return reached


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3), (7, 3), (11, 2), (13, 2)])
def test_generators_and_identity_generate_each_monoid(p, top):
    for k in range(1, top + 1):
        m = p**k
        for op in FAMILY:
            gens = analysis._generators(op, PadicContext(p, k))
            assert any(all(op.pair(x, e, p, m) == x for x in range(m)) for e in gens), (op, k)
            assert _closure(op, gens, p, m) == set(range(m)), (op, p, k)


def test_units_of_the_mul_generators_generate_the_unit_group():
    """At odd p the lift g of a primitive root mod p^2 has order
    p^(k-1)(p-1) mod p^k; at p = 2 the units need -1 and 5 both from k = 3."""
    for p in (3, 5, 7):
        for k in range(1, 5):
            m = p**k
            units = {g for g in analysis._generators(MUL, PadicContext(p, k)) if g % p} - {1}
            assert len(units) == 1, (p, k)
            units_mod_m = {x for x in range(m) if x % p}
            assert _closure(MUL, units | {1}, p, m) == units_mod_m, (p, k)
    for k in range(3, 9):
        m = 2**k
        odd = set(range(1, m, 2))
        assert _closure(MUL, {1, m - 1, 5}, 2, m) == odd
        assert _closure(MUL, {1, m - 1}, 2, m) != odd and _closure(MUL, {1, 5}, 2, m) != odd
        assert {1, m - 1, 5} <= analysis._generators(MUL, PadicContext(2, k))


def test_the_mul_generator_is_a_primitive_root_mod_p_squared():
    """The least primitive root r of 40487 has r^(p-1) = 1 mod p^2, so the
    generator there is r + p."""
    for p in (3, 5, 7, 11, 13, 29, 101, 40487):
        (g,) = {g for g in analysis._generators(MUL, PadicContext(p, 2)) if g % p} - {1}
        assert g % p == _primitive_root(p) and pow(g, p - 1, p * p) != 1, p
    assert pow(_primitive_root(40487), 40486, 40487**2) == 1


def _subjects(ctx: PadicContext, op, rng: Random, few: bool) -> list[ValueTable]:
    """The identity, x^3 and keys of op's family, each also with one entry
    changed; constants; and maps that respect
    every generator row but one: for MUL the identity with the residues of
    valuation 1 times 1 + p (all but p), and at p = 2 the indicators of
    {1, -1} (all but 5) and of <5> (all but -1); for AND the digit map that
    keeps the digits 1 and sets every other digit to 0 (all rows with a
    digit r).  With few, of the maps before those only the identity, its
    changed copy and the constant 0 are kept."""
    p, m = ctx.p, ctx.modulus
    laws = [tuple(range(m)), tuple(pow(x, 3, m) for x in range(m))]
    if not (op is MUL and p == 2):  # no multiplicative keys at p = 2
        laws += [encryption_table(keygen(ctx, FAMILY[op], rng)).values for _ in range(2)]
    near = []
    for values in laws:
        changed, x = list(values), rng.randrange(m)
        changed[x] = (changed[x] + rng.randrange(1, m)) % m
        near.append(tuple(changed))
    consts = [(c,) * m for c in (0, 1, rng.randrange(m))]
    out = laws[:1] + near[:1] + consts[:1] if few else laws + near + consts
    if op is MUL:
        out.append(tuple(x * (1 + p) % m if x % p == 0 < x % (p * p) else x for x in range(m)))
    if op is MUL and p == 2 and m >= 8:
        fives = {pow(5, i, m) for i in range(m)}
        out += [tuple(int(x in (1, m - 1)) for x in range(m)),
                tuple(int(x in fives) for x in range(m))]
    if op is AND:
        out.append(tuple(sum(p**i for i in range(ctx.precision) if x // p**i % p == 1)
                         for x in range(m)))
    return [ValueTable(ctx, values) for values in out]


# p = 2 at K = 5, where MUL needs both -1 and 5; AND at p = 2 and odd p; and
# one level above 256 residues, 7^3, on fewer subjects.
@pytest.mark.parametrize("p,K", [(2, 5), (3, 4), (5, 3), (7, 3)])
def test_generator_rows_give_the_reports_of_the_full_reference_scan(p, K):
    ctx = PadicContext(p, K)
    rng = Random(31 * p + K)
    verdicts = []
    for op in FAMILY:
        for subject in _subjects(ctx, op, rng, few=p**K > 256):
            for k in range(1, K + 1) if p**K <= 256 else (K,):
                got = outcome(homomorphism_test, subject, op, exhaustive_k=k)
                assert got == outcome(reference_test, subject, op, exhaustive_k=k), (op, k)
                verdicts.append(got.verdict)
    assert {"pass", "counterexample"} <= set(verdicts)


@pytest.mark.parametrize("p,K,op,n", [(2, 5, MUL, 4), (2, 5, AND, 6), (3, 4, XOR, 5),
                                      (3, 4, AND, 9), (5, 3, ADD, 2), (7, 3, MUL, 3)])
def test_a_passing_level_reads_two_rows_per_generator(monkeypatch, p, K, op, n):
    """Row y and row f(y) for each y of the set, and no other row of the level."""
    ctx = PadicContext(p, K)
    read = []
    build = analysis._rows

    def counting(o, c):
        row = build(o, c)
        if (o, c) != (op, ctx):  # a base or lower-level row that _rows reads itself
            return row

        def counted(y):
            read.append(y)
            return row(y)
        return counted

    monkeypatch.setattr(analysis, "_rows", counting)
    identity = ValueTable(ctx, tuple(range(ctx.modulus)))
    rep = homomorphism_test(identity, op, exhaustive_k=K)
    assert rep.verdict == "pass" and rep.trials == ctx.modulus ** 2
    assert len(analysis._generators(op, ctx)) == n
    assert sorted(read) == sorted(2 * [*analysis._generators(op, ctx)])
