"""Law checking and counterexample search for the digit ciphers.

A key of one family respects its own operation by construction; the
interesting questions are negative ones.  Does an additive key also respect
multiplication?  Does anything respect two of the four basic operations at
once without being the identity?  The searches here settle such questions
at a chosen precision: every cipher map is compatible with reduction mod
p^k, so a mismatch found among representatives mod p^k is a genuine
counterexample, and exhausting all pairs mod p^k proves the law at that
level.  Escalating k and falling back to random full-precision pairs gives
a cheap, honest verdict: "counterexample" with a witness, or "exhausted"
with the search budget on record.

Scans run on plain residues.  An exhaustive level k compares one row per y:
row y of an operation holds op(x, y) for every x, so f(op(x, y)) over all x
is a gather of row y through the encryption values, op(f(x), f(y)) a gather
of the encryption values through row f(y), and the first differing x is
looked up only on a mismatch.  ADD, MUL, XOR and AND are monoids, so a map
respects one once it does at every x for each y in a generating set and the
identity (induction on words): those rows decide a pass, and a mismatch
among them reruns the scan from y = 0 for the first witness.  No table is
kept: each row is built when read, as bytes up to 256 residues, where each
gather is one ``bytes.translate``, and as a list above, where each gather
is one ``operator.itemgetter`` call.  Random pairs come
from ``op.pair``, each operation's one integer kernel (``ciphers.Operation``).
Rows are built from structure, with no Python arithmetic per entry where
the operation allows it: ADD rows are slices of a doubled ramp, MUL rows
join about sqrt(m) stride slices of a ramp of ceil(sqrt(m)) copies of
range(m) (m = p^k), and an XOR/AND row sums k per-digit terms, each m byte
slots of one integer (p gathers of the level k-1 row above 256 residues).
An operation that states a split op(x, y) = base(u(x), w(y)) with base ADD
or MUL (``Operation.split``: G1, G3, G4 and LinearG) reads row y as the
base row of w(y) through a vector of u(x), so a scan compares only the
least y of each distinct (w(y), w(f(y))); G2 and SeriesG state ``rows``
instead (SeriesG's calls ``pair``; no command scans one).  So a level holds
O(m^1.5) entries besides its rows, never the m^2 of a whole table of lists.
A level of more than core.PAIR_BUDGET pairs is refused with DomainError
before any of it is built.

The coefficient probe cross-checks the multiplicative cipher against its
interpolation series: the normalized coefficients must reduce mod p to
A^k t0^s on pure digit powers t0 p^k, and to a A^k t0^(s-1) h on mixed
indices with lowest nonzero digit t0 at position k and leading digit h.
The s-1 in the mixed band is the fingerprint of the unit-splitting rule:
the series sees the derivative of the principal-part map, not the digit
map itself.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from operator import eq, itemgetter
from random import Random

from .ciphers import (  # ADD, MUL, XOR and AND are re-exported
    ADD,
    AND,
    FAMILIES,
    GLIN,
    MUL,
    OP_NAMES,
    XOR,
    CipherKey,
    MultiplicativeKey,
    Operation,
    encrypt,
    encryption_table,
    identity_only,
    is_identity_key,
    key_to_json,
    keygen,
)
from . import core
from .core import DomainError, FormatError, PadicContext, PadicInt, Record, check_table_size

CANONICAL_PAIRS = (
    (ADD, MUL),
    (ADD, XOR),
    (ADD, AND),
    (MUL, XOR),
    (MUL, AND),
    (XOR, AND),
)


def symbol_from_name(name: str) -> Operation:
    try:
        return OP_NAMES[name]
    except KeyError:
        raise FormatError(f"unknown operation {name!r}") from None


def laws_for_key(key: CipherKey) -> tuple[Operation, ...]:
    """The operations a key's encryption map is supposed to respect."""
    return key.laws


class SearchReport(Record):
    verdict: str  # "pass" | "counterexample" | "exhausted"
    witness: tuple[int, ...] | None
    trials: int
    mode: str
    detail: dict | None = None

    def to_json(self) -> dict:
        return vars(self) | {"witness": list(self.witness) if self.witness is not None else None}


# -- evaluating operations at reduced precision -------------------------------

TABLE_RESIDUES = 256  # rows of levels this small are bytes; sets the escalation depth


def check_pair_budget(ctx: PadicContext, k: int) -> None:
    """Refuse an exhaustive level k whose p^(2k) pairs exceed PAIR_BUDGET."""
    pairs = ctx.p ** (2 * k)
    if pairs > core.PAIR_BUDGET:
        raise DomainError(f"level {k} has {ctx.p}^{2 * k} = {pairs} pairs, "
                          f"over the budget of {core.PAIR_BUDGET}")


def check_trial_budget(trials: int) -> None:
    """Refuse a random phase of a negative count or of more than PAIR_BUDGET pairs."""
    if trials < 0:
        raise DomainError(f"a count of random pairs cannot be negative, got {trials}")
    if trials > core.PAIR_BUDGET:
        raise DomainError(f"{trials} random pairs are over the budget of {core.PAIR_BUDGET}")


def _rows(op: Operation, ctx: PadicContext):
    """The function y -> [op(x, y) for x in range(p^k)] at level ctx = (p, k),
    as bytes up to TABLE_RESIDUES residues and as a list above."""
    p, m = ctx.p, ctx.modulus
    if op is ADD or op is MUL:
        return _ramp_rows(op, m)
    if op is not XOR and op is not AND:
        split = op.split(p, m)
        if split is None:
            rows = getattr(op, "rows", None)
            if rows is None:  # GLIN, or a G stating pair alone
                raise DomainError(f"operation {op!r} states neither split nor rows, "
                                  "so an exhaustive level has no row form for it")
            row = rows(range(m), p, m)
            return row if m > TABLE_RESIDUES else lambda y: bytes(row(y))
        # op(x, y) = base(u(x), w(y)): row y is the base row of w(y) read at
        # each u(x), by one translate or itemgetter call through a vector.
        base, u, w = split
        rows, ws = _rows(base, ctx), [*map(w, range(m))]
        us = ws if u is w or u is None else [*map(u, range(m))]
        if u is None:
            row = lambda y: rows(ws[y])
        elif m <= TABLE_RESIDUES:
            us, pad = bytes(us), bytes(256 - m)
            row = lambda y: us.translate(rows(ws[y]) + pad)
        else:
            gather = itemgetter(*us)
            row = lambda y: [*gather(rows(ws[y]))]
        row.classes = ws if len(set(ws)) < m else None  # row y depends on y only via ws[y]
        return row
    # Digitwise: entry x of row y is the sum over i of p^i digit(y_i)[x_i],
    # digit the level-1 ADD or MUL row and x_i, y_i digit i of x and y.  Up to
    # 256 residues each term is m byte slots of one integer: no slot carries.
    digit, k = _rows(ADD if op is XOR else MUL, PadicContext(p, 1)), ctx.precision
    if k == 1:
        return digit
    if m <= TABLE_RESIDUES:
        tables, terms = [digit(a).ljust(256) for a in range(p)], []
        for q in (p**i for i in range(k)):
            x_i = b"".join([bytes([d]) * q for d in range(p)]) * (m // (p * q))
            terms.append((q, [int.from_bytes(x_i.translate(t), "little") * q for t in tables]))
        return lambda y: sum(t[y // q % p] for q, t in terms).to_bytes(m, "little")
    # Above, entry x0 + p*x' is entry x' of the level k-1 row read through
    # t -> d + p*t, d = digit(y mod p)[x0]: p gathers through stride-p slices
    # of range(m), interleaved.
    lower, offsets = _rows(op, PadicContext(p, k - 1)), [[*range(d, m, p)] for d in range(p)]
    return lambda y: [*chain.from_iterable(zip(*map(
        itemgetter(*lower(y // p)), map(offsets.__getitem__, digit(y % p)))))]


def _ramp_rows(op: Operation, m: int):
    """Rows of ADD or MUL mod m, as slices of a ramp of copies of range(m)."""
    ramp = bytes(range(m)) if m <= TABLE_RESIDUES else [*range(m)]
    if op is ADD:
        ramp *= 2
        return lambda y: ramp[y:y + m]
    # Row y of MUL holds x*y for x = qn + r, 0 <= r < n: chunk q is the
    # stride-y reading ramp[c:c + n*y:y] of n copies of range(m), from
    # c = qny mod m.  With n = ceil(sqrt(m)) the ceil(m/n) <= n starts c are
    # the stride-ny reading of the same ramp, so a row takes about sqrt(m)
    # slices and the ramp n*m entries.  At k = 1, n is not a power of p: the
    # least one over sqrt(m) is p itself, which would make a ramp of m^2.
    n = math.isqrt(m - 1) + 1
    chunks, zero = -(-m // n), ramp[:1] * m
    ramp *= n

    def mul_row(y):
        if not y:
            return zero
        s = n * y % m
        row = ramp[:0]
        for c in ramp[:chunks * s:s] if s else zero[:chunks]:
            row += ramp[c:c + n * y:y]
        return row[:m]
    return mul_row


def _generators(op: Operation, ctx: PadicContext) -> set[int]:
    """A generating set and the identity of ADD, MUL, XOR or AND on Z/p^k."""
    p, m = ctx.p, ctx.modulus
    powers = [p**i for i in range(ctx.precision)]
    if op is ADD:
        return {0, 1}
    if op is XOR:
        return {0, *powers}
    r = core._primitive_root(p)
    if op is MUL:  # units: a primitive root mod p^2 at odd p, -1 and 5 at p = 2
        units = (m - 1, 5) if p == 2 else (r if pow(r, p - 1, p * p) != 1 else r + p,)
        return {1, p % m, *(u % m for u in units)}
    e = (m - 1) // (p - 1)  # the all-ones digits; AND sets one digit to 0 or r
    return {e, *(e - q for q in powers), *(e + (r - 1) * q for q in powers)}


def _subject(subject):
    if isinstance(subject, CipherKey):
        return subject.ctx, subject.enc_int
    from .lipschitz import ValueTable  # only here, so scanning keys never loads lipschitz
    if isinstance(subject, ValueTable):
        return subject.ctx, subject.values.__getitem__
    raise DomainError(f"cannot test a {type(subject).__name__}; pass a key or a table")


# -- homomorphism testing ------------------------------------------------------


def homomorphism_test(
    subject,
    op: Operation,
    *,
    exhaustive_k: int | None = None,
    trials: int = 2000,
    seed: int | None = None,
    rng: Random | None = None,
) -> SearchReport:
    """Check f(op(x, y)) == op(f(x), f(y)).

    With exhaustive_k, scan every pair of residues mod p^k; the verdict
    "pass" then certifies the law at that level.  Otherwise sample `trials`
    random pairs at full precision, at most PAIR_BUDGET of them.
    """
    ctx, f = _subject(subject)
    if op is GLIN:
        raise DomainError("bind the linear operation to coefficients before testing")
    if any(v.ctx.p != ctx.p for v in op.coefficients):
        raise DomainError("operation coefficients use a different prime")
    if exhaustive_k is not None:
        k = exhaustive_k
        if not 1 <= k <= ctx.precision:
            raise DomainError(f"level must be in [1, {ctx.precision}], got {k}")
        check_pair_budget(ctx, k)
        sub = PadicContext(ctx.p, k)
        m = sub.modulus
        mode = f"exhaustive:k={k}"
        row = _rows(op, sub)
        enc = [f(v) % m for v in range(m)]
        # Row y holds op(x, y) for every x, so f(op(x, y)) for all x is one
        # gather through enc, and op(f(x), f(y)) one gather through row f(y).
        if m <= TABLE_RESIDUES:  # byte rows: each gather is one translate
            enc_bytes, pad = bytes(enc), bytes(256 - m)
            enc_tab = enc_bytes + pad

            def differs(y):
                return row(y).translate(enc_tab) != enc_bytes.translate(row(enc[y]) + pad)
        else:  # rows of ints: each gather is one itemgetter call
            gather = itemgetter(*enc)

            def differs(y):
                return itemgetter(*row(y))(enc) != gather(row(enc[y]))
        ys, ws = range(m), getattr(row, "classes", None)
        if ws:  # differs(y) depends on (ws[y], ws[enc[y]]) alone: scan the least y of each
            first, pairs = {}, zip(ws, map(ws.__getitem__, enc))
            ys = compress(ys, map(eq, map(first.setdefault, pairs, ys), ys))
        monoid = op is ADD or op is MUL or op is XOR or op is AND  # no Record.__eq__ calls
        decided = monoid and not any(map(differs, _generators(op, sub)))
        y = None if decided else next(filter(differs, ys), None)
        if y is None:
            return SearchReport("pass", None, m * m, mode)
        # Only the first mismatching row is gathered entry by entry, for x.
        lhs = [enc[z] for z in row(y)]
        image = row(enc[y])
        rhs = [image[e] for e in enc]
        x = next(x for x in range(m) if lhs[x] != rhs[x])
        return SearchReport(
            "counterexample", (x, y), y * m + x + 1, mode,
            {"level": k, "lhs": lhs[x], "rhs": rhs[x]},
        )
    check_trial_budget(trials)
    r = rng if rng is not None else Random(seed)
    mode = f"random:K={ctx.precision}"
    pair, p, m = op.pair, ctx.p, ctx.modulus
    for i in range(trials):
        xv, yv = r.randrange(m), r.randrange(m)
        lhs = f(pair(xv, yv, p, m))
        rhs = pair(f(xv), f(yv), p, m)
        if lhs != rhs:
            return SearchReport(
                "counterexample", (xv, yv), i + 1, mode, {"lhs": lhs, "rhs": rhs}
            )
    return SearchReport("pass", None, trials, mode)


def _escalation_depth(ctx: PadicContext, max_k: int | None) -> int:
    if max_k is None:
        max_k = 1
        while max_k < ctx.precision and ctx.p ** (max_k + 1) <= TABLE_RESIDUES:
            max_k += 1
    depth = min(max_k, ctx.precision)
    check_pair_budget(ctx, depth)
    return depth


def counterexample_search(
    subject,
    op: Operation,
    *,
    max_k: int | None = None,
    random_trials: int = 512,
    rng: Random | None = None,
) -> SearchReport:
    """Escalate exhaustive levels k = 1, 2, ... then fall back to random pairs.

    Levels stay exhaustive while p^k <= 256 unless max_k says otherwise.  A
    level over PAIR_BUDGET pairs or a random_trials outside [0, PAIR_BUDGET]
    is refused before any scan.  The witness (x, y) reported for level k holds
    residues mod p^k, scanned in order of y then x.  Random pairs come from
    rng, or from Random(0) when none is given.
    """
    ctx, _ = _subject(subject)
    max_k = _escalation_depth(ctx, max_k)
    check_trial_budget(random_trials)
    total = 0
    for k in range(1, max_k + 1):
        rep = homomorphism_test(subject, op, exhaustive_k=k)
        total += rep.trials
        if rep.verdict == "counterexample":
            return SearchReport(rep.verdict, rep.witness, total, rep.mode, rep.detail)
    rep = homomorphism_test(
        subject, op, trials=random_trials, rng=rng if rng is not None else Random(0)
    )
    total += rep.trials
    if rep.verdict == "counterexample":
        return SearchReport(rep.verdict, rep.witness, total, rep.mode, rep.detail)
    return SearchReport("exhausted", None, total, f"escalation:k<={max_k}+random")


def _nonidentity_key(ctx: PadicContext, family: str, rng: Random):
    for _ in range(0 if identity_only(ctx, family) else core.KEY_DRAW_LIMIT):
        key = keygen(ctx, family, rng)
        if ctx.modulus <= core.MEASURE_LIMIT:
            if not is_identity_key(key):
                return key
        elif any(
            encrypt(key, PadicInt(ctx, v)).value != v
            for v in (rng.randrange(ctx.modulus) for _ in range(core.IDENTITY_PROBE_LIMIT))
        ):
            return key
    raise DomainError(f"could not draw a non-identity {family} key")


def intersection_scan(
    first: Operation,
    second: Operation,
    ctx: PadicContext,
    *,
    n_keys: int = 10,
    seed: int = 0,
    max_k: int | None = None,
    random_trials: int = 256,
) -> list[SearchReport]:
    """Draw non-identity keys respecting `first`; hunt violations of `second`.

    A run of all-"counterexample" verdicts is evidence that the first family
    meets the second only in maps both already share.  At working precision K
    the overlap is not always bare identity: multiplication by 1 + c*p^(K-1)
    shifts only the top digit, by the carry-free linear term c*x_0, so it is at
    once a non-identity additive multiplier and a triangular digit map (a xor
    homomorphism).  The overlap shrinks to the identity as K grows.  When the
    escalation is deep enough to check every pair mod p^K, an "exhausted"
    verdict is a proof of such shared membership; those keys carry no violation
    to find, so the scan redraws instead of reporting them.  At scales the
    escalation cannot exhaust, nothing is redrawn and "exhausted" verdicts
    surface as-is.  A search takes up to p^2 + ... + p^(2k) + random_trials
    pairs at escalation depth k.  A scan whose n_keys searches could pass
    PAIR_BUDGET is refused up front, as is a negative n_keys or random_trials,
    and so is a search that could pass it after those run so far, a redrawn
    key's included.  One Random(seed) drives every draw: the keys, and the
    random pairs of each key's search.
    """
    family = next((name for name, cls in FAMILIES.items() if cls.laws == (first,)), None)
    if family is None:
        raise DomainError(f"no key family realizes {first.name}")
    depth = _escalation_depth(ctx, max_k)
    if n_keys < 0:
        raise DomainError(f"a count of keys cannot be negative, got {n_keys}")
    check_trial_budget(random_trials)
    search = sum(ctx.p ** (2 * k) for k in range(1, depth + 1)) + random_trials
    if n_keys * search > core.PAIR_BUDGET:
        raise DomainError(f"a scan of {n_keys} keys takes up to {n_keys * search} pairs, "
                          f"over the budget of {core.PAIR_BUDGET}")
    r = Random(seed)
    proves_membership = depth >= ctx.precision
    reports = []
    draws = spent = 0
    while len(reports) < n_keys:
        draws += 1
        if draws > core.SCAN_DRAW_LIMIT + core.SCAN_DRAWS_PER_KEY * n_keys:
            raise DomainError(
                f"sampling stalled: {family} keys keep satisfying {second.name}"
            )
        if spent + search > core.PAIR_BUDGET:
            raise DomainError(f"a scan that has run {spent} pairs takes up to {search} more, "
                              f"over the budget of {core.PAIR_BUDGET}")
        key = _nonidentity_key(ctx, family, r)
        rep = counterexample_search(
            key, second, max_k=max_k, random_trials=random_trials, rng=r
        )
        spent += rep.trials
        if rep.verdict == "exhausted" and proves_membership:
            continue
        detail = dict(rep.detail or {})
        detail["key"] = key_to_json(key)
        reports.append(SearchReport(rep.verdict, rep.witness, rep.trials, rep.mode, detail))
    return reports


# -- interpolation-series probe -----------------------------------------------


def vdp_coefficient_probe(key: MultiplicativeKey) -> SearchReport:
    """Verify the closed congruences for the cipher's interpolation coefficients.

    Normalized coefficient at index m, everything mod p:

    * m = t0 * p^k (single nonzero digit):      b = A^k * t0^s
    * m = u + h * p^(n-1), u != 0, lead digit h,
      lowest nonzero digit t0 at position k:    b = a * A^k * t0^(s-1) * h
    """
    if key.family != "multiplicative":
        raise DomainError("the coefficient probe applies to multiplicative keys")
    check_table_size(key.ctx, core.PROBE_LIMIT)
    return _vdp_probe_table(encryption_table(key), key.A.value, key.s, key.a.value)


def _vdp_probe_table(table, A: int, s: int, a: int) -> SearchReport:
    from .lipschitz import NotOneLipschitzError, digit_length, vdp_interpolate

    ctx = table.ctx
    p = ctx.p
    series = vdp_interpolate(table)
    mode = "vdp-coefficients"
    if series.B[0] != 0:
        return SearchReport(
            "counterexample", (0,), 1, mode, {"m": 0, "expected": 0, "got": series.B[0]}
        )
    pure = mixed = 0
    for m in range(1, ctx.modulus):
        n = digit_length(m, p)
        lead = m // p ** (n - 1)
        u = m - lead * p ** (n - 1)
        try:
            b = series.b(m)
        except NotOneLipschitzError:
            return SearchReport(
                "counterexample", (m,), pure + mixed + 1, mode,
                {"m": m, "reason": "coefficient not divisible by p^(digits-1)"},
            )
        if u == 0:
            expected = pow(A, n - 1, p) * pow(lead, s, p) % p
            pure += 1
        else:
            k, uu = 0, u
            while uu % p == 0:
                uu //= p
                k += 1
            expected = a * pow(A, k, p) * pow(uu % p, s - 1, p) * lead % p
            mixed += 1
        if b % p != expected:
            return SearchReport(
                "counterexample", (m,), pure + mixed, mode,
                {"m": m, "expected": expected, "got": b % p},
            )
    return SearchReport(
        "pass", None, pure + mixed, mode, {"pure_powers": pure, "mixed": mixed}
    )
