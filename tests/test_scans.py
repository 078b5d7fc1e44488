"""Differential test of the row scans and the operations' integer kernels
against the per-pair code they replaced.

The reference functions below are the plain formula of each operation on
integers, the former ``g_eval`` body (one PadicInt per intermediate value),
the former ``_rehome`` that moved a G's coefficients to a lower level, and
the former per-pair scan loop of ``homomorphism_test`` with its operation
table of one int per pair.  The row scans must give the same
``SearchReport`` (verdict, witness, trials, mode and detail) for every
operation on every family's keys and on random tables, and raise the same
errors.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_ciphers import analysis
from padic_ciphers.analysis import (
    ADD,
    AND,
    MUL,
    XOR,
    SearchReport,
    _subject,
    homomorphism_test,
)
from padic_ciphers.ciphers import (
    G1,
    G2,
    G3,
    G4,
    GLIN,
    OP_NAMES,
    FheKey,
    GOperation,
    LinearG,
    Operation,
    SeriesG,
    g_eval,
    keygen,
)
from padic_ciphers.core import (
    DomainError,
    PadicContext,
    PadicError,
    PadicInt,
    digitwise,
    invert_unit,
    pow_nat,
)
from padic_ciphers.lipschitz import ValueTable

# -- reference implementations ---------------------------------------------------


def reference_g_eval(op: GOperation, x: PadicInt, y: PadicInt) -> PadicInt:
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


@lru_cache(maxsize=256)
def _rehome(g: GOperation, ctx: PadicContext) -> GOperation:
    def move(v: PadicInt) -> PadicInt:
        if v.ctx.p != ctx.p:
            raise DomainError("operation coefficients use a different prime")
        return PadicInt(ctx, v.value % ctx.modulus)

    if isinstance(g, LinearG):
        return LinearG(move(g.a), move(g.b))
    if isinstance(g, SeriesG):
        return SeriesG(
            move(g.c),
            move(g.a),
            move(g.b),
            tuple(((i, j), move(c)) for (i, j), c in g.terms),
        )
    return g


# op -> op(x, y) mod m = p^k on integers, from the formula that defines it;
# G4 as its series.  G3, LinearG and SeriesG go through reference_g_eval.
_PLAIN = {
    ADD: lambda x, y, p, m: (x + y) % m,
    MUL: lambda x, y, p, m: x * y % m,
    XOR: lambda x, y, p, m: digitwise(x, y, p, m),
    AND: lambda x, y, p, m: digitwise(x, y, p, m, multiply=True),
    G1(): lambda x, y, p, m: x * pow(y, p - 1, m) % m,
    G2(): lambda x, y, p, m: (pow(x, p - 1, m) * y + x * pow(y, p - 1, m)) % m,
    G4(): lambda x, y, p, m: sum(p**s * (pow(x, (p - 1) * s + 1, m) + pow(y, (p - 1) * s + 1, m))
                                 for s in range(m.bit_length()) if p**s < m) % m,
}


def _op_int(op: Operation, ctx: PadicContext, x: int, y: int) -> int:
    if op in _PLAIN:
        return _PLAIN[op](x, y, ctx.p, ctx.modulus)
    g = _rehome(op, ctx)
    return reference_g_eval(g, PadicInt(ctx, x), PadicInt(ctx, y)).value


@lru_cache(maxsize=32)
def _op_table(op: Operation, ctx: PadicContext) -> tuple[int, ...]:
    m = ctx.modulus
    return tuple(_op_int(op, ctx, x, y) for y in range(m) for x in range(m))


def reference_test(
    subject, op: Operation, *, exhaustive_k=None, trials=2000, seed=None
) -> SearchReport:
    ctx, f = _subject(subject)
    if op is GLIN:
        raise DomainError("bind the linear operation to coefficients before testing")
    if exhaustive_k is not None:
        k = exhaustive_k
        if not 1 <= k <= ctx.precision:
            raise DomainError(f"level must be in [1, {ctx.precision}], got {k}")
        sub = PadicContext(ctx.p, k)
        m = sub.modulus
        mode = f"exhaustive:k={k}"
        enc = [f(v) % m for v in range(m)]
        table = _op_table(op, sub) if m <= 256 else None
        checked = 0
        for y in range(m):
            row = y * m
            for x in range(m):
                if table is not None:
                    z = table[row + x]
                    rhs = table[enc[y] * m + enc[x]]
                else:
                    z = _op_int(op, sub, x, y)
                    rhs = _op_int(op, sub, enc[x], enc[y])
                checked += 1
                if enc[z] != rhs:
                    return SearchReport(
                        "counterexample",
                        (x, y),
                        checked,
                        mode,
                        {"level": k, "lhs": enc[z], "rhs": rhs},
                    )
        return SearchReport("pass", None, checked, mode)
    r = Random(seed)
    mode = f"random:K={ctx.precision}"
    m = ctx.modulus
    for i in range(trials):
        xv, yv = r.randrange(m), r.randrange(m)
        z = _op_int(op, ctx, xv, yv)
        lhs = f(z)
        rhs = _op_int(op, ctx, f(xv), f(yv))
        if lhs != rhs:
            return SearchReport(
                "counterexample", (xv, yv), i + 1, mode, {"lhs": lhs, "rhs": rhs}
            )
    return SearchReport("pass", None, trials, mode)


def outcome(test, *args, **kwargs):
    """The report, or the type and message of the error raised."""
    try:
        return test(*args, **kwargs)
    except PadicError as exc:
        return type(exc), str(exc)


# -- subjects and operations --------------------------------------------------------


def subjects(ctx: PadicContext, rng: Random, tables: bool = True) -> list:
    """One key of each family and, if asked, two random tables."""
    out = [keygen(ctx, family, rng) for family in ("additive", "xor", "and")]
    if ctx.p == 2:  # no multiplicative keys; fhe needs a linear G
        out.append(FheKey(PadicInt(ctx, 3), LinearG(ctx.one, ctx.integer(5))))
    else:
        out += [keygen(ctx, "multiplicative", rng), keygen(ctx, "fhe", rng)]
    for _ in range(2 if tables else 0):
        values = tuple(rng.randrange(ctx.modulus) for _ in range(ctx.modulus))
        out.append(ValueTable(ctx, values))
    return out


def operations(ctx: PadicContext, rng: Random) -> list[Operation]:
    def coeff() -> PadicInt:
        return PadicInt(ctx, rng.randrange(ctx.modulus))

    series = SeriesG(ctx.integer(0), coeff(), coeff(), (((1, 1), coeff()), ((2, 1), coeff())))
    return [ADD, MUL, XOR, AND, G1(), G2(), G3(), G4(), LinearG(coeff(), coeff()), series]


# Levels 1-3 at p = 2, 3, 5, 7.  The level 7^3 = 343 has more than 256
# residues, so its rows are lists rather than bytes.  There a
# passing per-pair reference scan of a G takes about a second, so a key meets
# G operations only if they are among its own laws; at levels 1 and 2 it
# meets every one.
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_exhaustive_scans_match_reference(p):
    ctx = PadicContext(p, 3)
    rng = Random(p)
    ops = operations(ctx, rng)
    for subject in subjects(ctx, rng):
        for op in ops:
            deep = (p < 7 or op in (ADD, MUL, XOR, AND) or isinstance(subject, ValueTable)
                    or op in subject.laws)
            for k in (1, 2, 3) if deep else (1, 2):
                got = outcome(homomorphism_test, subject, op, exhaustive_k=k)
                want = outcome(reference_test, subject, op, exhaustive_k=k)
                assert got == want, (subject, op, k)


# The first witness on levels of 512 and 729 residues, where the scan finds
# the first mismatching row by itemgetter gathers: the identity table, which
# respects every operation, with one entry early or late given a wrong top
# digit.  AND meets the late one only at y = p^(K-1), a third of the way or more.
@pytest.mark.parametrize("p,K", [(2, 9), (3, 6)])
@pytest.mark.parametrize("planted", ("early", "late"))
def test_first_witness_above_256_residues_matches_reference(p, K, planted):
    ctx = PadicContext(p, K)
    m = ctx.modulus
    x = 5 if planted == "early" else m - 3
    values = list(range(m))
    values[x] = (x + m // p) % m
    table = ValueTable(ctx, tuple(values))
    for op in (ADD, MUL, XOR, AND):
        got = homomorphism_test(table, op, exhaustive_k=K)
        assert got.verdict == "counterexample", op
        assert got == reference_test(table, op, exhaustive_k=K), op


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("K", (3, 16))
def test_random_scans_match_reference(p, K):
    ctx = PadicContext(p, K)
    rng = Random(p * K)
    ops = operations(ctx, rng)
    for subject in subjects(ctx, rng, tables=K == 3):
        for op in ops:
            seed = rng.randrange(1 << 30)
            got = outcome(homomorphism_test, subject, op, trials=300, seed=seed)
            want = outcome(reference_test, subject, op, trials=300, seed=seed)
            assert got == want, (subject, op)


# Every level of at most 256 residues, and the first level above, at each p:
# the rows the scans read (bytes up to 256 residues, lists above) and each
# operation's integer kernel, its pair form, all equal the per-pair reference.
@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_rows_match_the_per_pair_reference(p):
    ops = [op for op in OP_NAMES.values()
           if op is not GLIN and (p > 2 or not isinstance(op, G3))]  # G3 needs odd p
    rng = Random(p)
    for k in range(1, 10):
        ctx = PadicContext(p, k)
        m = ctx.modulus
        ys = range(m) if m <= 256 else rng.sample(range(m), 4)
        for op in ops:
            rows = analysis._rows(op, ctx)
            for y in ys:
                want = [_op_int(op, ctx, x, y) for x in range(m)]
                assert rows(y) == (bytes(want) if m <= 256 else want), (op, ctx, y)
                assert [op.pair(x, y, p, m) for x in range(m)] == want, (op, ctx, y)
        if m > 256:
            break


def test_coefficients_of_another_prime_are_refused():
    key = keygen(PadicContext(5, 3), "additive", Random(1))
    other = PadicContext(3, 3)
    op = LinearG(other.one, other.integer(2))
    for kwargs in ({"exhaustive_k": 2}, {"trials": 10, "seed": 0}):
        got = outcome(homomorphism_test, key, op, **kwargs)
        assert got == outcome(reference_test, key, op, **kwargs)
        assert got == (DomainError, "operation coefficients use a different prime")


# -- the G pair kernels, through g_eval ---------------------------------------------------


@st.composite
def g_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PadicContext(p, draw(st.sampled_from((1, 2, 16))))
    residue = st.integers(0, ctx.modulus - 1).map(lambda v: PadicInt(ctx, v))
    terms = draw(st.lists(
        st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), residue).filter(
            lambda t: sum(t[0]) >= 2),
        max_size=3,
    ))
    ops = [G1(), G2(), G3(), G4(), LinearG(draw(residue), draw(residue)),
           SeriesG(ctx.integer(0) if terms else draw(residue), draw(residue), draw(residue),
                   tuple(terms))]
    return ctx, ops, draw(residue), draw(residue)


@settings(max_examples=200, deadline=None)
@given(g_cases())
def test_g_kernels_match_reference(case):
    _, ops, x, y = case
    for op in ops:
        assert outcome(g_eval, op, x, y) == outcome(reference_g_eval, op, x, y)


def test_g_eval_errors_match_reference():
    ctx, other, third = PadicContext(5, 2), PadicContext(5, 3), PadicContext(5, 4)
    x, y = ctx.integer(2), ctx.integer(3)
    cases = [
        (SeriesG(third.integer(0), other.one, ctx.one, ()), x, y),  # the error names a
        (G1(), x, other.integer(3)),
        (G3(), PadicContext(2, 3).one, PadicContext(2, 3).one),
        (LinearG(other.one, ctx.one), x, y),
        (LinearG(ctx.one, other.one), x, y),
        (SeriesG(ctx.integer(0), other.one, ctx.one, ()), x, y),
        (SeriesG(other.integer(0), ctx.one, ctx.one, ()), x, y),
        (SeriesG(ctx.integer(0), ctx.one, other.one, ()), x, y),
        (SeriesG(ctx.integer(0), ctx.one, ctx.one, (((1, 1), other.one),)), x, y),
        (ADD, x, y),
    ]
    for op, a, b in cases:
        got = outcome(g_eval, op, a, b)
        assert isinstance(got, tuple) and got == outcome(reference_g_eval, op, a, b), op


def test_an_operation_with_no_row_form_is_refused_by_name():
    """A G stating ``pair`` alone passes random trials; an exhaustive level,
    which reads whole rows, refuses it with a DomainError naming it, and
    ``_rows`` refuses GLIN the same way."""

    class PairOnly(GOperation):
        def pair(self, x: int, y: int, p: int, m: int) -> int:
            return (x + y) % m

    ctx = PadicContext(5, 2)
    key = keygen(ctx, "additive", Random(1))
    assert homomorphism_test(key, PairOnly(), trials=50, seed=1).verdict == "pass"
    refusal = r"operation {} states neither split nor rows, so an exhaustive level "
    with pytest.raises(DomainError, match="^" + refusal.format(r".*PairOnly\(\)")):
        homomorphism_test(key, PairOnly(), exhaustive_k=1)
    with pytest.raises(DomainError, match="^" + refusal.format("GLIN")):
        analysis._rows(GLIN, ctx)
