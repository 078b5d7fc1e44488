"""Exhaustive scans of operations with a split compare one row per class.

For op(x, y) = base(u(x), w(y)) (G1, G3, G4, LinearG), whether row y
differs depends on y only through (w(y), w(f(y))), so ``homomorphism_test``
scans the least y of each distinct pair where w repeats a value.  Its
reports must equal those of a plain scan of every y and x built from
``op.pair`` alone: verdict, witness, trials, mode and detail.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

import pytest

from padic_ciphers import analysis
from padic_ciphers.analysis import SearchReport, _subject, homomorphism_test
from padic_ciphers.ciphers import (
    FAMILIES,
    G1,
    G3,
    G4,
    InvalidKeyError,
    LinearG,
    encryption_table,
    keygen,
)
from padic_ciphers.core import PadicContext
from padic_ciphers.lipschitz import ValueTable, random_one_lipschitz_table


@lru_cache(maxsize=4)
def _pair_rows(op, p: int, m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(op.pair(x, y, p, m) for x in range(m)) for y in range(m))


def plain_scan(subject, op, k: int) -> SearchReport:
    """Every y in order, then the first differing x, from op.pair alone."""
    ctx, f = _subject(subject)
    p, m = ctx.p, ctx.p**k
    rows, enc = _pair_rows(op, p, m), [f(v) % m for v in range(m)]
    mode = f"exhaustive:k={k}"
    for y in range(m):
        lhs, rhs = [enc[z] for z in rows[y]], [rows[enc[y]][e] for e in enc]
        if lhs != rhs:
            x = next(x for x in range(m) if lhs[x] != rhs[x])
            return SearchReport("counterexample", (x, y), y * m + x + 1, mode,
                                {"level": k, "lhs": lhs[x], "rhs": rhs[x]})
    return SearchReport("pass", None, m * m, mode)


def split_operations(ctx: PadicContext, rng: Random) -> list:
    """G1, G3 (odd p), G4, and LinearG with a unit b (w injective) and a
    non-unit b (w repeats values).  G(x, y) = p*y differs at y only where
    p*f(y) != f(p*y), so a map changed at one late unit y differs there
    alone, though p*y repeats p*(y - p^(k-1)): a scan of one y per value of
    w(y), without w(f(y)), would pass it."""
    p, m, i = ctx.p, ctx.modulus, ctx.integer
    unit = p * rng.randrange(m) + rng.randrange(1, p)
    ops = [G1(), G4(), LinearG(i(rng.randrange(m)), i(unit)),
           LinearG(i(unit), i(p * rng.randrange(1, m))), LinearG(i(0), i(p))]
    return ops + [G3()] * (p > 2)


def split_subjects(ctx: PadicContext, rng: Random) -> list:
    """A key of every family, fhe keys of each split G, and tables: the
    identity, two constants, a random 1-Lipschitz map, and an fhe key's map
    with one late entry changed."""
    keys = [keygen(ctx, family, rng) for family in FAMILIES if family != "fhe"]
    for g in split_operations(ctx, rng):
        try:
            keys.append(keygen(ctx, "fhe", rng, g))
        except InvalidKeyError:  # only A = 1 commutes with g here
            pass
    m = ctx.modulus
    late = list(encryption_table(keys[-1]).values)
    late[m - 2] = (late[m - 2] + 1) % m
    tables = [tuple(range(m)), (0,) * m, (1 % m,) * m,
              random_one_lipschitz_table(ctx, rng, 1.0).values, tuple(late)]
    return keys + [ValueTable(ctx, t) for t in tables]


@pytest.mark.parametrize("p,K", [(3, 5), (5, 3), (7, 3)])
def test_class_scans_match_a_scan_of_every_y(p, K):
    ctx = PadicContext(p, K)
    rng = Random(p * 100 + K)
    ops = split_operations(ctx, rng)
    verdicts, subjects = set(), split_subjects(ctx, rng)
    for op in ops:
        for k in range(1, K + 1):
            for subject in subjects:
                got = homomorphism_test(subject, op, exhaustive_k=k)
                assert got == plain_scan(subject, op, k), (subject, op, k)
                verdicts.add((got.verdict, k == K))
    assert verdicts == {(v, top) for v in ("pass", "counterexample") for top in (True, False)}


def _count_reads(monkeypatch, op, ctx: PadicContext) -> list[int]:
    """The rows of op at ctx that a scan reads; the rows keep their classes."""
    read, build = [], analysis._rows

    def counting(o, c):
        row = build(o, c)
        if (o, c) != (op, ctx):
            return row

        def counted(y):
            read.append(y)
            return row(y)
        counted.classes = row.classes
        return counted

    monkeypatch.setattr(analysis, "_rows", counting)
    return read


@pytest.mark.parametrize("p,K", [(3, 5), (5, 3), (7, 3)])
def test_a_level_reads_two_rows_per_distinct_class(monkeypatch, p, K):
    """Row y and row f(y) for the least y of each (w(y), w(f(y))), and the
    two rows of the witness; an fhe key's G1 level reads about 2 p^(K-1)."""
    ctx = PadicContext(p, K)
    m, rng = ctx.modulus, Random(p * 10 + K)
    fhe_g1 = False
    for subject in split_subjects(ctx, rng):
        _, f = _subject(subject)
        for op in split_operations(ctx, rng):
            w = op.split(p, m)[2]
            read = _count_reads(monkeypatch, op, ctx)
            rep = homomorphism_test(subject, op, exhaustive_k=K)
            classes = len({(w(y), w(f(y) % m)) for y in range(m)})
            repeats = len({w(y) for y in range(m)}) < m
            if rep.verdict == "pass":
                assert len(read) == 2 * (classes if repeats else m), (subject, op)
            else:
                assert len(read) <= 2 * (classes if repeats else m) + 2, (subject, op)
            if isinstance(op, G1) and isinstance(getattr(subject, "g", None), G1):
                assert rep.verdict == "pass" and len(read) < 4 * p ** (K - 1), subject
                fhe_g1 = True
    assert fhe_g1
