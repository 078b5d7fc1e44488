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
looked up only on a mismatch.  Levels of at most 256 residues read their
rows from a cached table of bytes, and each gather there is one
``bytes.translate``; larger levels build each row when it is needed, so no
level holds p^(2k) entries.  ADD rows are slices of a doubled ramp, MUL rows
one product each, XOR/AND rows join per-digit chunks in the order of the
level k-1 row, and G rows come from the operation's own kernel
(``ciphers.G1.kernel`` and its kin).  A level of more than PAIR_BUDGET
pairs is refused with DomainError before any of it is built.

The coefficient probe cross-checks the multiplicative cipher against its
interpolation series: the normalized coefficients must reduce mod p to
A^k t0^s on pure digit powers t0 p^k, and to a A^k t0^(s-1) h on mixed
indices with lowest nonzero digit t0 at position k and leading digit h.
The s-1 in the mixed band is the fingerprint of the unit-splitting rule:
the series sees the derivative of the principal-part map, not the digit
map itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from random import Random

from .ciphers import (  # OpSymbol, ADD, MUL, XOR and AND are re-exported
    ADD,
    AND,
    FAMILIES,
    MUL,
    OP_NAMES,
    XOR,
    CipherKey,
    MultiplicativeKey,
    OpSymbol,
    encrypt,
    encryption_table,
    is_identity_key,
    key_to_json,
    keygen,
    _op_int,
)
from .core import DomainError, FormatError, PadicContext, PadicInt
from .lipschitz import (
    NotOneLipschitzError,
    ValueTable,
    _check_table_size,
    digit_length,
    vdp_interpolate,
)

CANONICAL_PAIRS = (
    (ADD, MUL),
    (ADD, XOR),
    (ADD, AND),
    (MUL, XOR),
    (MUL, AND),
    (XOR, AND),
)


def symbol_from_name(name: str) -> OpSymbol:
    try:
        return OP_NAMES[name]
    except KeyError:
        raise FormatError(f"unknown operation {name!r}") from None


def laws_for_key(key: CipherKey) -> tuple[OpSymbol, ...]:
    """The operations a key's encryption map is supposed to respect."""
    return key.laws


@dataclass(frozen=True)
class SearchReport:
    verdict: str  # "pass" | "counterexample" | "exhausted"
    witness: tuple[int, ...] | None
    trials: int
    mode: str
    detail: dict | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "trials": self.trials,
            "mode": self.mode,
            "detail": self.detail,
        }


# -- evaluating operations at reduced precision -------------------------------

PAIR_BUDGET = 1 << 24  # most pairs one exhaustive level may scan: p^(2k) <= this
TABLE_RESIDUES = 256  # levels this small keep their operation table
PROBE_LIMIT = 1 << 16  # largest p^K whose table the coefficient probe builds


def check_pair_budget(ctx: PadicContext, k: int) -> None:
    """Refuse an exhaustive level k whose p^(2k) pairs exceed PAIR_BUDGET."""
    pairs = ctx.p ** (2 * k)
    if pairs > PAIR_BUDGET:
        raise DomainError(
            f"level {k} has {ctx.p}^{2 * k} = {pairs} pairs, "
            f"over the budget of {PAIR_BUDGET}"
        )


def _row_builder(sym: OpSymbol, ctx: PadicContext):
    """The function y -> [op(x, y) for x in range(p^k)] at level ctx = (p, k)."""
    p, m = ctx.p, ctx.modulus
    kind = sym.kind
    if kind == "ADD":  # slices of a doubled ramp, of bytes up to 256 residues
        ramp = (bytes(range(m)) if m <= TABLE_RESIDUES else [*range(m)]) * 2
        return lambda y: ramp[y:y + m]
    if kind == "MUL":
        return lambda y: [x * y % m for x in range(m)]
    if kind == "G":
        kernel, xs = sym.g.kernel, range(m)
        return lambda y: kernel(xs, y, p, m)
    # Digitwise: x = x0 + p*x' takes digit 0 from the level-1 ADD or MUL row
    # and the rest from the level k-1 row, in the order of x.
    digit = _rows(ADD if kind == "XOR" else MUL, PadicContext(p, 1))
    if ctx.precision == 1:
        return digit
    lower = _rows(sym, PadicContext(p, ctx.precision - 1))
    # Row y is the level k-1 row with each entry t replaced by the chunk
    # d + p*t of the digit row: bytes joined in one call up to 256 residues.
    if m <= TABLE_RESIDUES:
        chunks = [[bytes(d + p * t for d in digit(a)) for t in range(m // p)] for a in range(p)]
        return lambda y: b"".join(map(chunks[y % p].__getitem__, lower(y // p)))
    chunks = [[[d + p * t for d in digit(a)] for t in range(m // p)] for a in range(p)]
    return lambda y: [*chain.from_iterable(map(chunks[y % p].__getitem__, lower(y // p)))]


def _rows(sym: OpSymbol, ctx: PadicContext):
    """Row function of an operation at a level: read from the cached table
    when the level has at most TABLE_RESIDUES residues, else built per call."""
    if ctx.modulus <= TABLE_RESIDUES:
        return _op_table(sym, ctx).__getitem__
    return _row_builder(sym, ctx)


@lru_cache(maxsize=128)
def _op_table(sym: OpSymbol, ctx: PadicContext) -> tuple[bytes, ...]:
    """Row y of op at a level of at most 256 residues, one byte per entry.

    A table takes at most 256 * (256 + 33) + 2088 bytes (76 KB) and the cache
    at most 128 of them (9.7 MB).  Certifying keys at (3,5), (5,3), (7,3) and
    refuting at (3,3), (3,4), (5,2), (7,2) use 74 distinct tables.
    """
    build = _row_builder(sym, ctx)
    return tuple(bytes(build(y)) for y in range(ctx.modulus))


def _subject(subject):
    if isinstance(subject, ValueTable):
        return subject.ctx, subject.values.__getitem__
    if isinstance(subject, CipherKey):
        return subject.ctx, subject.enc_int
    raise DomainError(f"cannot test a {type(subject).__name__}; pass a key or a table")


# -- homomorphism testing ------------------------------------------------------


def homomorphism_test(
    subject,
    op: OpSymbol,
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
    if op.kind == "G":
        if op.g is None:
            raise DomainError("bind the linear operation to coefficients before testing")
        if any(v.ctx.p != ctx.p for v in op.g.coefficients):
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
        ys = range(m)
        if m <= TABLE_RESIDUES:  # byte rows: each gather is one translate
            enc_bytes, pad = bytes(enc), bytes(256 - m)
            enc_tab = enc_bytes + pad
            bad = next((y for y in ys if row(y).translate(enc_tab)
                        != enc_bytes.translate(row(enc[y]) + pad)), None)
            ys = () if bad is None else (bad,)
        for y in ys:
            lhs = [enc[z] for z in row(y)]
            image = row(enc[y])
            rhs = [image[e] for e in enc]
            if lhs != rhs:
                x = next(x for x in range(m) if lhs[x] != rhs[x])
                return SearchReport(
                    "counterexample",
                    (x, y),
                    y * m + x + 1,
                    mode,
                    {"level": k, "lhs": lhs[x], "rhs": rhs[x]},
                )
        return SearchReport("pass", None, m * m, mode)
    if trials > PAIR_BUDGET:
        raise DomainError(f"{trials} random pairs are over the budget of {PAIR_BUDGET}")
    r = rng if rng is not None else Random(seed)
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
    op: OpSymbol,
    *,
    max_k: int | None = None,
    random_trials: int = 512,
    seed: int = 0,
    rng: Random | None = None,
) -> SearchReport:
    """Escalate exhaustive levels k = 1, 2, ... then fall back to random pairs.

    Levels stay exhaustive while p^k <= 256 unless max_k says otherwise; a
    max_k whose level has more than PAIR_BUDGET pairs is refused before any
    scan.  The witness (x, y) reported for level k consists of residues mod
    p^k, scanned in order of y then x.
    """
    ctx, _ = _subject(subject)
    max_k = _escalation_depth(ctx, max_k)
    total = 0
    for k in range(1, max_k + 1):
        rep = homomorphism_test(subject, op, exhaustive_k=k)
        total += rep.trials
        if rep.verdict == "counterexample":
            return SearchReport(rep.verdict, rep.witness, total, rep.mode, rep.detail)
    rep = homomorphism_test(
        subject, op, trials=random_trials, rng=rng if rng is not None else Random(seed)
    )
    total += rep.trials
    if rep.verdict == "counterexample":
        return SearchReport(rep.verdict, rep.witness, total, rep.mode, rep.detail)
    return SearchReport("exhausted", None, total, f"escalation:k<={max_k}+random")


def _nonidentity_key(ctx: PadicContext, family: str, rng: Random, attempts: int = 1000):
    for _ in range(attempts):
        key = keygen(ctx, family, rng)
        if ctx.modulus <= 4096:
            if not is_identity_key(key):
                return key
        elif any(
            encrypt(key, PadicInt(ctx, v)).value != v
            for v in (rng.randrange(ctx.modulus) for _ in range(32))
        ):
            return key
    raise DomainError(f"could not draw a non-identity {family} key")


def intersection_scan(
    first: OpSymbol,
    second: OpSymbol,
    ctx: PadicContext,
    *,
    n_keys: int = 10,
    seed: int = 0,
    rng: Random | None = None,
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
    surface as-is.  A scan of more than PAIR_BUDGET pairs, counted as n_keys
    times p^(2k) + random_trials at escalation depth k, is refused up front.
    """
    family = next((name for name, cls in FAMILIES.items() if cls.laws == (first,)), None)
    if family is None:
        raise DomainError(f"no key family realizes {first.name}")
    depth = _escalation_depth(ctx, max_k)
    pairs = n_keys * (ctx.p ** (2 * depth) + random_trials)
    if pairs > PAIR_BUDGET:
        raise DomainError(f"a scan of {n_keys} keys takes up to {pairs} pairs, "
                          f"over the budget of {PAIR_BUDGET}")
    r = rng if rng is not None else Random(seed)
    proves_membership = depth >= ctx.precision
    reports = []
    draws = 0
    while len(reports) < n_keys:
        draws += 1
        if draws > 32 + 8 * n_keys:
            raise DomainError(
                f"sampling stalled: {family} keys keep satisfying {second.name}"
            )
        key = _nonidentity_key(ctx, family, r)
        rep = counterexample_search(
            key, second, max_k=max_k, random_trials=random_trials, rng=r
        )
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
    _check_table_size(key.ctx, PROBE_LIMIT)
    return _vdp_probe_table(encryption_table(key), key.A.value, key.s, key.a.value)


def _vdp_probe_table(table: ValueTable, A: int, s: int, a: int) -> SearchReport:
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
