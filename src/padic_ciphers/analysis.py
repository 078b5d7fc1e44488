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
from random import Random

from .ciphers import (
    AdditiveKey,
    AndKey,
    FheKey,
    G1,
    G2,
    G3,
    G4,
    GOperation,
    LinearG,
    MultiplicativeKey,
    SeriesG,
    XorKey,
    encrypt,
    encryption_table,
    g_eval,
    g_name,
    is_identity_key,
    key_to_json,
    keygen,
)
from .core import DomainError, FormatError, PadicContext, PadicInt, and_p, xor_p
from .lipschitz import (
    NotOneLipschitzError,
    ValueTable,
    digit_length,
    vdp_interpolate,
)

_KINDS = ("ADD", "MUL", "XOR", "AND", "G")

_KEY_TYPES = (AdditiveKey, MultiplicativeKey, XorKey, AndKey, FheKey)


@dataclass(frozen=True)
class OpSymbol:
    """A named two-argument operation.

    kind "G" carries a concrete operation, or None for a linear placeholder
    to be bound at use (a key file supplies the coefficients).
    """

    kind: str
    g: GOperation | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown operation kind {self.kind!r}")
        if self.kind != "G" and self.g is not None:
            raise DomainError(f"{self.kind} does not take an operation parameter")

    @property
    def name(self) -> str:
        if self.kind != "G":
            return self.kind
        return "GLIN" if self.g is None else g_name(self.g)


ADD = OpSymbol("ADD")
MUL = OpSymbol("MUL")
XOR = OpSymbol("XOR")
AND = OpSymbol("AND")


def g_sym(op: GOperation) -> OpSymbol:
    return OpSymbol("G", op)


CANONICAL_PAIRS = (
    (ADD, MUL),
    (ADD, XOR),
    (ADD, AND),
    (MUL, XOR),
    (MUL, AND),
    (XOR, AND),
)


def symbol_from_name(name: str) -> OpSymbol:
    basic = {"ADD": ADD, "MUL": MUL, "XOR": XOR, "AND": AND}
    if name in basic:
        return basic[name]
    named_g = {"G1": G1(), "G2": G2(), "G3": G3(), "G4": G4()}
    if name in named_g:
        return OpSymbol("G", named_g[name])
    if name == "GLIN":
        return OpSymbol("G")
    raise FormatError(f"unknown operation {name!r}")


def op_apply(
    sym: OpSymbol, x: PadicInt, y: PadicInt, linear_g: LinearG | None = None
) -> PadicInt:
    if sym.kind == "ADD":
        return x + y
    if sym.kind == "MUL":
        return x * y
    if sym.kind == "XOR":
        return xor_p(x, y)
    if sym.kind == "AND":
        return and_p(x, y)
    g = sym.g if sym.g is not None else linear_g
    if g is None:
        raise DomainError("linear operation is unbound; supply its coefficients")
    return g_eval(g, x, y)


def laws_for_key(key) -> tuple[OpSymbol, ...]:
    """The operations a key's encryption map is supposed to respect."""
    if isinstance(key, FheKey):
        return (ADD, OpSymbol("G", key.g))
    if isinstance(key, AdditiveKey):
        return (ADD,)
    if isinstance(key, MultiplicativeKey):
        return (MUL,)
    if isinstance(key, XorKey):
        return (XOR,)
    if isinstance(key, AndKey):
        return (AND,)
    raise DomainError(f"unknown key type {type(key).__name__}")


@dataclass(frozen=True)
class SearchReport:
    verdict: str  # "pass" | "counterexample" | "exhausted"
    witness: tuple[int, ...] | None
    trials: int
    mode: str
    detail: dict | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "trials": self.trials,
            "mode": self.mode,
            "detail": self.detail,
        }


# -- evaluating operations at reduced precision -------------------------------


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


def _op_int(sym: OpSymbol, ctx: PadicContext, x: int, y: int) -> int:
    p, m = ctx.p, ctx.modulus
    if sym.kind == "ADD":
        return (x + y) % m
    if sym.kind == "MUL":
        return (x * y) % m
    if sym.kind == "XOR":
        out, shift = 0, 1
        for _ in range(ctx.precision):
            out += (x + y) % p * shift
            x, y, shift = x // p, y // p, shift * p
        return out
    if sym.kind == "AND":
        out, shift = 0, 1
        for _ in range(ctx.precision):
            out += x * y % p * shift
            x, y, shift = x // p, y // p, shift * p
        return out
    g = _rehome(sym.g, ctx)
    return g_eval(g, PadicInt(ctx, x), PadicInt(ctx, y)).value


@lru_cache(maxsize=32)
def _op_table(sym: OpSymbol, ctx: PadicContext) -> tuple[int, ...]:
    m = ctx.modulus
    return tuple(_op_int(sym, ctx, x, y) for y in range(m) for x in range(m))


def _subject(subject):
    if isinstance(subject, ValueTable):
        return subject.ctx, subject.values.__getitem__
    if isinstance(subject, _KEY_TYPES):
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
    random pairs at full precision.
    """
    ctx, f = _subject(subject)
    if op.kind == "G" and op.g is None:
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
        while max_k < ctx.precision and ctx.p ** (max_k + 1) <= 256:
            max_k += 1
    return min(max_k, ctx.precision)


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

    Levels stay exhaustive while p^k <= 256; the witness (x, y) reported for
    level k consists of residues mod p^k, scanned in order of y then x.
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


_FAMILY_OF = {"ADD": "additive", "MUL": "multiplicative", "XOR": "xor", "AND": "and"}


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
    surface as-is.
    """
    if first.kind not in _FAMILY_OF:
        raise DomainError(f"no key family realizes {first.name}")
    family = _FAMILY_OF[first.kind]
    r = rng if rng is not None else Random(seed)
    proves_membership = _escalation_depth(ctx, max_k) >= ctx.precision
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


def vdp_coefficient_probe(
    key: MultiplicativeKey, *, limit: int = 1 << 16
) -> SearchReport:
    """Verify the closed congruences for the cipher's interpolation coefficients.

    Normalized coefficient at index m, everything mod p:

    * m = t0 * p^k (single nonzero digit):      b = A^k * t0^s
    * m = u + h * p^(n-1), u != 0, lead digit h,
      lowest nonzero digit t0 at position k:    b = a * A^k * t0^(s-1) * h
    """
    if not isinstance(key, MultiplicativeKey):
        raise DomainError("the coefficient probe applies to multiplicative keys")
    table = encryption_table(key, limit)
    return _vdp_probe_table(table, key.A.value, key.s, key.a.value)


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
