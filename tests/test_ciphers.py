import hashlib
import json
import math
import sys
from itertools import product
from random import Random

import pytest

from padic_ciphers import ciphers
from padic_ciphers.analysis import vdp_coefficient_probe
from padic_ciphers.ciphers import (
    ADD,
    AND,
    FAMILIES,
    G_CHOICES,
    OP_NAMES,
    AdditiveKey,
    AndKey,
    FheKey,
    G1,
    G2,
    G3,
    G4,
    GLIN,
    MUL,
    XOR,
    InvalidKeyError,
    LinearG,
    MultiplicativeKey,
    Operation,
    SeriesG,
    XorKey,
    admissible_multipliers,
    decrypt,
    encrypt,
    encryption_table,
    exponent_gcd,
    g_eval,
    identity_only,
    is_identity_key,
    key_from_json,
    key_to_json,
    keygen,
    multiplier_count,
    operation_from_name,
    roots_of_unity,
)
from padic_ciphers.core import (
    DRAW_BUDGET,
    DomainError,
    FormatError,
    PadicContext,
    PadicInt,
    _is_prime,
    and_p,
    pow_nat,
    pow_unit,
    teichmuller,
    xor_p,
)
from padic_ciphers.lipschitz import check_measure_bruteforce
from test_scans import reference_g_eval

C32 = PadicContext(3, 2)
C33 = PadicContext(3, 3)
C52 = PadicContext(5, 2)
C53 = PadicContext(5, 3)


def all_values(ctx):
    return [PadicInt(ctx, v) for v in ctx.residues()]


# -- additive ---------------------------------------------------------------


def test_additive_known_values():
    key = AdditiveKey(C53.integer(7))
    assert encrypt(key, C53.integer(3)).value == 21
    e3, e4 = encrypt(key, C53.integer(3)), encrypt(key, C53.integer(4))
    assert (e3 + e4).value == 49
    assert encrypt(key, C53.integer(7)).value == 49


def test_additive_roundtrip_and_law_exhaustive():
    key = AdditiveKey(C53.integer(7))
    for x in all_values(C53):
        assert decrypt(key, encrypt(key, x)) == x
    for x in all_values(C33):
        for y in all_values(C33):
            k = AdditiveKey(C33.integer(5))
            assert encrypt(k, x + y) == encrypt(k, x) + encrypt(k, y)


def test_additive_rejects_non_unit():
    with pytest.raises(InvalidKeyError):
        AdditiveKey(C53.integer(10))


# -- multiplicative --------------------------------------------------------


def test_multiplicative_known_values():
    key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    assert encrypt(key, C52.integer(2)).value == 23
    assert encrypt(key, C52.integer(4)).value == 4
    assert encrypt(key, C52.integer(0)).value == 0
    assert decrypt(key, C52.integer(23)).value == 2


def test_multiplicative_law_exhaustive():
    key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    for x in all_values(C52):
        for y in all_values(C52):
            assert encrypt(key, x * y) == encrypt(key, x) * encrypt(key, y)


def _digit_rule_encrypt(key, x):
    """The tempting direct-on-digits variant: map t0 through t0^s mod p and
    keep the non-Teichmuller principal part.  Not multiplicative; kept as a
    regression reference."""
    ctx = key.ctx
    if x.value == 0:
        return ctx.integer(0)
    p = ctx.p
    k, v = 0, x.value
    while v % p == 0:
        v //= p
        k += 1
    t0 = v % p
    principal = PadicInt(ctx, v * pow(t0, -1, ctx.modulus) % ctx.modulus)
    image = (
        pow_nat(key.A, k)
        * ctx.integer(pow(t0, key.s, p))
        * pow_unit(principal, key.a)
    )
    return PadicInt(ctx, image.value * p**k % ctx.modulus)


def test_digit_rule_variant_is_not_multiplicative():
    key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    two, four = C52.integer(2), C52.integer(4)
    broken = _digit_rule_encrypt(key, two) * _digit_rule_encrypt(key, two)
    assert broken.value == 9
    assert _digit_rule_encrypt(key, four).value == 4  # != 9: law fails
    # the repaired cipher passes the same probe
    assert (encrypt(key, two) * encrypt(key, two)) == encrypt(key, four)


def test_multiplicative_random_keys_roundtrip_and_law():
    rng = Random(7)
    for p in (3, 5, 7):
        ctx = PadicContext(p, 3)
        for _ in range(10):
            key = keygen(ctx, "multiplicative", rng)
            for _ in range(40):
                x = PadicInt(ctx, rng.randrange(ctx.modulus))
                y = PadicInt(ctx, rng.randrange(ctx.modulus))
                assert decrypt(key, encrypt(key, x)) == x
                assert encrypt(key, x * y) == encrypt(key, x) * encrypt(key, y)


def test_multiplicative_key_validation():
    with pytest.raises(InvalidKeyError):
        MultiplicativeKey(A=C52.one, s=2, a=C52.one)  # gcd(2, 4) = 2
    with pytest.raises(InvalidKeyError):
        MultiplicativeKey(A=C52.integer(5), s=1, a=C52.one)
    with pytest.raises(InvalidKeyError):
        MultiplicativeKey(A=PadicContext(2, 4).one, s=1, a=PadicContext(2, 4).one)


# -- xor --------------------------------------------------------------------


def test_xor_known_values():
    key = XorKey(C32, ((2,), (1, 1)))
    assert encrypt(key, C32.integer(4)).value == 8
    e1, e3 = encrypt(key, C32.integer(1)), encrypt(key, C32.integer(3))
    assert xor_p(e1, e3) == encrypt(key, xor_p(C32.integer(1), C32.integer(3)))


def test_xor_roundtrip_and_law_exhaustive():
    key = XorKey(C32, ((2,), (1, 1)))
    for x in all_values(C32):
        assert decrypt(key, encrypt(key, x)) == x
        for y in all_values(C32):
            assert encrypt(key, xor_p(x, y)) == xor_p(encrypt(key, x), encrypt(key, y))


def test_xor_random_keys():
    rng = Random(11)
    for _ in range(20):
        key = keygen(C33, "xor", rng)
        for x in all_values(C33):
            assert decrypt(key, encrypt(key, x)) == x


def test_xor_key_validation():
    with pytest.raises(InvalidKeyError):
        XorKey(C32, ((0,), (1, 1)))  # zero diagonal
    with pytest.raises(InvalidKeyError):
        XorKey(C32, ((1,),))  # wrong row count
    with pytest.raises(InvalidKeyError):
        XorKey(C32, ((1,), (1, 1, 1)))  # wrong row length


# -- and --------------------------------------------------------------------


def test_and_known_values():
    key = AndKey(C52, (3, 1))
    assert encrypt(key, C52.integer(7)).value == 8


def test_and_roundtrip_and_law_exhaustive():
    key = AndKey(C52, (3, 1))
    for x in all_values(C52):
        assert decrypt(key, encrypt(key, x)) == x
        for y in all_values(C52):
            assert encrypt(key, and_p(x, y)) == and_p(encrypt(key, x), encrypt(key, y))


def test_and_keys_at_p3_are_identity():
    rng = Random(3)
    for _ in range(5):
        key = keygen(C33, "and", rng)
        assert key.exponents == (1, 1, 1)
        assert is_identity_key(key)


def test_and_key_validation():
    with pytest.raises(InvalidKeyError):
        AndKey(C52, (2, 1))  # gcd(2, 4) = 2
    with pytest.raises(InvalidKeyError):
        AndKey(C52, (3,))  # wrong length


# -- two-variable operations -------------------------------------------------


def test_g_eval_known_values():
    two, three = C52.integer(2), C52.integer(3)
    assert g_eval(G1(), two, three).value == 12  # 2 * 3^4 = 162 = 12 mod 25
    assert g_eval(G2(), two, three).value == (16 * 3 + 2 * 81) % 25
    assert g_eval(G3(), two, three).value == (4 * 9) % 25
    lin = LinearG(C52.integer(2), C52.integer(3))
    assert g_eval(lin, two, three).value == 13


def test_g4_matches_truncated_series():
    # x/(1 - p x^(p-1)) expands as sum_s p^s x^((p-1)s + 1)
    for x in all_values(C32):
        for y in all_values(C32):
            closed = g_eval(G4(), x, y)
            series = C32.integer(0)
            for s in range(C32.precision):
                e = (C32.p - 1) * s + 1
                series = series + C32.integer(C32.p**s) * (
                    pow_nat(x, e) + pow_nat(y, e)
                )
            assert closed == series


def test_g1_to_g4_state_their_own_pair():
    """Each G writes its closed form for one pair, its one integer kernel,
    which the formula passes call at every G node, and one whole-row form for
    the law scans: a ``split`` into ADD or MUL, or else ``rows``.  No class
    states a second kernel."""
    assert [name for name, cls in vars(ciphers).items()
            if isinstance(cls, type) and "kernel" in vars(cls)] == []
    for op in (G1, G2, G3, G4, LinearG, SeriesG):
        assert "pair" in vars(op), op.__name__
        assert ("split" in vars(op)) != ("rows" in vars(op)), op.__name__


@pytest.mark.parametrize("p,K", ((3, 3), (5, 2), (7, 2)))
def test_g1_to_g4_pair_matches_the_reference(p, K):
    """``pair`` against the PadicInt formula of each G, at every pair of a
    level and at 100 random pairs at precision 64."""
    ctx, top, rng = PadicContext(p, K), PadicContext(p, 64), Random(p)
    for op in (G1(), G2(), G3(), G4()):
        for y, x in product(ctx.residues(), repeat=2):
            want = reference_g_eval(op, PadicInt(ctx, x), PadicInt(ctx, y)).value
            assert op.pair(x, y, p, ctx.modulus) == want, (op, x, y)
        for _ in range(100):
            x, y = rng.randrange(top.modulus), rng.randrange(top.modulus)
            want = reference_g_eval(op, PadicInt(top, x), PadicInt(top, y)).value
            assert op.pair(x, y, p, top.modulus) == want, (op, x, y)
    with pytest.raises(DomainError, match=r"needs an odd p"):
        G3().pair(1, 1, 2, 8)


def test_an_unbound_operation_refuses_to_compute():
    """GLIN and any Operation that states no ``pair`` are names alone: asking
    one for a value raises DomainError, not RecursionError."""
    for op in (GLIN, Operation("X")):
        unbound = rf"^operation {op.name} is unbound: it has no integer kernel$"
        with pytest.raises(DomainError, match=unbound):
            op.pair(1, 2, 5, 25)


def test_series_g_validation_and_eval():
    terms = (((1, 1), C52.integer(2)),)
    op = SeriesG(C52.integer(0), C52.one, C52.one, terms)
    x, y = C52.integer(3), C52.integer(4)
    assert g_eval(op, x, y).value == (3 + 4 + 2 * 12) % 25
    with pytest.raises(DomainError):
        SeriesG(C52.one, C52.one, C52.one, terms)  # nonzero constant
    with pytest.raises(DomainError):
        SeriesG(C52.integer(0), C52.one, C52.one, (((1, 0), C52.one),))  # degree < 2


def test_exponent_gcds():
    assert exponent_gcd(G1(), 5) == 4
    assert exponent_gcd(G2(), 5) == 4
    assert exponent_gcd(G3(), 5) == 3
    assert exponent_gcd(G4(), 5) == 4
    assert exponent_gcd(G3(), 7) == 5
    assert exponent_gcd(LinearG(C52.one, C52.one), 5) is None
    op = SeriesG(C52.integer(0), C52.one, C52.one, (((1, 1), C52.one), ((3, 0), C52.one)))
    assert exponent_gcd(op, 5) == 1  # gcd(2 - 1, 3 - 1)


def test_g3_has_no_exponent_at_p_2():
    """G3 is x^((p-1)/2) y^((p-1)/2), so its rule refuses p = 2 as its kernel
    does, and an fhe key for it at p = 2 is refused; a linear G still builds."""
    ctx = PadicContext(2, 3)
    for call in (lambda: exponent_gcd(G3(), 2), lambda: FheKey(ctx.integer(3), G3()),
                 lambda: g_eval(G3(), ctx.one, ctx.one)):
        with pytest.raises(DomainError, match=r"needs an odd p \(exponent \(p-1\)/2\)"):
            call()
    assert FheKey(ctx.integer(3), LinearG(ctx.one, ctx.one)).enc_int(1) == 3


def test_g1_multiplier_invariance_needs_root_of_unity():
    # A = 7 satisfies A^4 = 1 mod 25 and commutes with G1; A = 2 does not.
    a_good, a_bad = C52.integer(7), C52.integer(2)
    x, y = C52.integer(2), C52.integer(3)
    assert a_good * g_eval(G1(), x, y) == g_eval(G1(), a_good * x, a_good * y)
    assert a_bad * g_eval(G1(), x, y) != g_eval(G1(), a_bad * x, a_bad * y)


def test_admissible_multipliers():
    got = admissible_multipliers(C52, G1())
    assert {a.value for a in got} == {1, 7, 18, 24}
    assert {a.value for a in roots_of_unity(C52, 4)} == {1, 7, 18, 24}
    assert {a.value for a in admissible_multipliers(C52, G3())} == {1}
    assert admissible_multipliers(C52, LinearG(C52.one, C52.one)) is None  # every unit
    # every admissible multiplier really is a 4th root of 1
    for a in got:
        assert pow_nat(a, 4).value == 1


def test_roots_of_unity_match_one_lift_per_root():
    # The reference lifts every digit j with j^d = 1 mod p on its own.
    for p in filter(_is_prime, range(3, 60)):
        for K in (1, 2, 5):
            ctx = PadicContext(p, K)
            for d in range(1, 2 * p):
                expected = {teichmuller(ctx, j) for j in range(1, p) if pow(j, d, p) == 1}
                assert roots_of_unity(ctx, d) == expected, (p, K, d)


def _commuting_units(ctx: PadicContext, op) -> set[int]:
    """Every unit A with A*G(x, y) = G(Ax, Ay) for all x and y, by brute force."""
    p, m = ctx.p, ctx.modulus
    table = [[op.pair(x, y, p, m) for x in range(m)] for y in range(m)]  # table[y][x] = G(x, y)
    return {A for A in range(1, m) if A % p and all(
        A * table[y][x] % m == table[A * y % m][A * x % m] for y in range(m) for x in range(m))}


def _rule_cases(ctx: PadicContext):
    """(G, exact): exact when the rule must find every commuting unit.  At
    finite K more units commute than the solutions of A^d = 1 in Z_p where a
    coefficient is a multiple of p (as in G4) or p divides d."""
    i, p = ctx.integer, ctx.p

    def series(c, *terms):
        return SeriesG(i(c), i(2), i(1), tuple(((a, b), i(v)) for a, b, v in terms))

    return [
        (G1(), True), (G2(), True), (G3(), True), (G4(), False),
        (LinearG(i(2), i(p + 1)), True),
        (series(1), True),  # a unit constant term: A = 1 alone
        (series(p), False),
        (series(0, (1, 1, 1)), True),  # d = 1
        (series(0, (2, 1, 3), (0, 3, 1)), True),  # d = 2
        (series(0, (3, 0, 1), (2, 2, p - 1)), True),  # d = gcd(2, 3)
        (series(0, (4, 0, 1)), 3 % p != 0),  # d = 3
        (series(0, (1, 1, p)), False),
    ]


@pytest.mark.parametrize("p,K", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_the_multiplier_rule_matches_brute_force(p, K):
    ctx = PadicContext(p, K)
    units = {a for a in ctx.residues() if a % p}
    for op, exact in _rule_cases(ctx):
        rule = admissible_multipliers(ctx, op)
        rule = units if rule is None else {a.value for a in rule}
        assert multiplier_count(ctx, op) in (None, len(rule))
        brute = _commuting_units(ctx, op)
        assert (rule == brute) if exact else (rule <= brute), (op, sorted(rule), sorted(brute))


def test_a_constant_series_admits_only_the_identity_multiplier():
    g = SeriesG(C53.integer(1), C53.integer(2), C53.integer(3), ())
    assert exponent_gcd(g, 5) == 1
    assert admissible_multipliers(C53, g) == {C53.one}
    with pytest.raises(InvalidKeyError, match="only the trivial multiplier"):
        keygen(C53, "fhe", Random(1), g=g)
    with pytest.raises(InvalidKeyError):
        FheKey(C53.integer(2), g)


@pytest.mark.parametrize("op", [ADD, MUL, XOR, AND, GLIN], ids=repr)
def test_the_multiplier_rule_refuses_what_is_not_a_g(op):
    for call in (lambda: exponent_gcd(op, 5), lambda: admissible_multipliers(C52, op),
                 lambda: FheKey(C52.one, op)):
        with pytest.raises(DomainError, match="unknown operation"):
            call()


# -- fhe ----------------------------------------------------------------------


def test_fhe_known_chain():
    key = FheKey(C52.integer(7), G1())
    e2, e3 = encrypt(key, C52.integer(2)), encrypt(key, C52.integer(3))
    assert (e2.value, e3.value) == (14, 21)
    mixed = g_eval(G1(), e2, e3)
    assert mixed.value == 9
    assert decrypt(key, mixed) == g_eval(G1(), C52.integer(2), C52.integer(3))
    assert decrypt(key, mixed).value == 12
    # the additive law holds at the same time
    assert e2 + e3 == encrypt(key, C52.integer(5))


def test_fhe_key_validation():
    with pytest.raises(InvalidKeyError):
        FheKey(C52.integer(2), G1())  # 2^4 = 16 != 1 mod 25
    key = FheKey(C52.integer(24), G2())
    assert exponent_gcd(key.g, key.ctx.p) == 4


def test_fhe_keygen_draws_nontrivial_roots():
    rng = Random(5)
    seen = set()
    for _ in range(30):
        key = keygen(C52, "fhe", rng, g=G1())
        seen.add(key.A.value)
        assert pow_nat(key.A, 4).value == 1
    assert seen <= {7, 18, 24}
    assert len(seen) == 3


def test_fhe_keygen_refuses_trivial_only():
    with pytest.raises(InvalidKeyError):
        keygen(C52, "fhe", Random(0), g=G3())  # only A = 1 satisfies A^3 = 1


def test_fhe_linear_g_any_unit():
    rng = Random(9)
    lin = LinearG(C52.integer(2), C52.integer(3))
    key = keygen(C52, "fhe", rng, g=lin)
    x, y = C52.integer(4), C52.integer(11)
    assert decrypt(key, g_eval(lin, encrypt(key, x), encrypt(key, y))) == g_eval(
        lin, x, y
    )


# -- whole-map properties -------------------------------------------------------


def test_keygen_multiplicative_exponent_choices():
    rng = Random(1)
    seen = {keygen(C52, "multiplicative", rng).s for _ in range(40)}
    assert seen == {1, 3}


def test_seeded_keys_are_pinned():
    # The draw budget must not change a single seeded key: the digest was taken
    # before the budget existed.  (5, 3) with seed 11 is the README tour's key.
    digest = hashlib.sha256()
    for p, K in ((3, 4), (5, 3), (5, 16), (7, 3), (13, 2)):
        for family in FAMILIES:
            for seed in (0, 1, 11, 2026):
                key = keygen(PadicContext(p, K), family, Random(seed))
                digest.update(json.dumps(key_to_json(key), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "ad511e106d58b4bd9cd0cb4a85f096e48be0b9fd796814aa006fae5a8a08b3e8")


def test_seeded_fhe_keys_under_g2_and_g4_are_pinned():
    # Taken before each family drew its own key and the roots of unity came
    # from one lifted generator.
    digest = hashlib.sha256()
    for p, K in ((5, 3), (7, 3), (13, 2)):
        for g in (G2(), G4()):
            for seed in (0, 1, 11):
                key = keygen(PadicContext(p, K), "fhe", Random(seed), g=g)
                digest.update(json.dumps(key_to_json(key), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "fa303ffed79c06e9b81b2f5216045bb1b138d96f4a66b8d61f7858472005776f")


@pytest.mark.parametrize("family", ["nope", None, 3, ["fhe"], {"family": "fhe"}])
def test_keygen_refuses_an_unknown_family(family):
    with pytest.raises(DomainError, match="unknown family"):
        keygen(C52, family, Random(0))


def test_draw_budget_bounds_p():
    assert DRAW_BUDGET == 1 << 16
    for family in ("multiplicative", "and"):  # p - 1 == DRAW_BUDGET is still drawn
        keygen(PadicContext(DRAW_BUDGET + 1, 2), family, Random(0))
    for family in ("multiplicative", "and", "fhe"):
        with pytest.raises(DomainError, match=f"over the budget of {DRAW_BUDGET}"):
            keygen(PadicContext(DRAW_BUDGET + 3, 2), family, Random(0))  # 65539 is prime


def test_all_families_preserve_measure():
    rng = Random(17)
    for family in ("additive", "multiplicative", "xor", "and"):
        for ctx in (C33, C52):
            key = keygen(ctx, family, rng)
            table = encryption_table(key)
            assert check_measure_bruteforce(table), (family, ctx.p)
    key = keygen(C52, "fhe", rng, g=G1())
    assert check_measure_bruteforce(encryption_table(key))


def test_identity_detection():
    assert is_identity_key(AdditiveKey(C52.one))
    assert not is_identity_key(AdditiveKey(C52.integer(7)))


IDENTITY_KEYS = {
    "additive": lambda ctx: AdditiveKey(ctx.one),
    "multiplicative": lambda ctx: MultiplicativeKey(ctx.one, 1, ctx.one),
    "xor": lambda ctx: XorKey(ctx, tuple((0,) * k + (1,) for k in range(ctx.precision))),
    "and": lambda ctx: AndKey(ctx, (1,) * ctx.precision),
    "fhe": lambda ctx: FheKey(ctx.one, G1()),
}


def _verdict(fn, key):
    try:
        return fn(key)
    except DomainError as exc:  # a context over the table limit
        return str(exc)


@pytest.mark.parametrize("p, K", [(5, 3), (7, 64)])
@pytest.mark.parametrize("family", FAMILIES)
def test_key_protocol(monkeypatch, family, p, K):
    ctx = PadicContext(p, K)
    key = keygen(ctx, family, Random(p * K + 1))
    assert isinstance(key, FAMILIES[family]) and key.ctx == ctx
    assert not {"enc_int", "dec_int"} & set(vars(key))  # each kernel is built on first use
    enc, dec = key.enc_int, key.dec_int
    assert key.enc_int is enc and key.dec_int is dec
    rng = Random(K)
    xs = [0, ctx.modulus - 1] + [
        p**v * (rng.randrange(1, p) + p * rng.randrange(p ** (K - v - 1))) for v in range(K)
    ]
    assert [dec(enc(x)) for x in xs] == xs
    assert issubclass(FheKey, AdditiveKey)

    def table_verdict(k) -> bool:  # the whole-table comparison
        table = encryption_table(k)
        return all(table.values[x] == x for x in ctx.residues())

    keys = (IDENTITY_KEYS[family](ctx), key)
    want = [_verdict(table_verdict, k) for k in keys]
    if ctx.modulus <= 1 << 20:
        assert want == [True, False]

    def no_table(k):
        raise AssertionError("is_identity_key built a table")

    monkeypatch.setattr("padic_ciphers.ciphers.encryption_table", no_table)
    assert [_verdict(is_identity_key, k) for k in keys] == want


def test_encryption_table_limit():
    key = keygen(PadicContext(2, 21), "additive", Random(1))
    with pytest.raises(DomainError, match=r"p\*\*K = 2097152 exceeds the limit 1048576$"):
        encryption_table(key)
    # The coefficient probe refuses a table over its own limit of 2^16
    # before it builds one.
    key = MultiplicativeKey(A=PadicContext(3, 11).one, s=1, a=PadicContext(3, 11).one)
    with pytest.raises(DomainError, match=r"p\*\*K = 177147 exceeds the limit 65536$"):
        vdp_coefficient_probe(key)


# -- serialization ----------------------------------------------------------------


def test_key_json_roundtrip_all_families():
    rng = Random(23)
    keys = [
        keygen(C53, "additive", rng),
        keygen(C53, "multiplicative", rng),
        keygen(C33, "xor", rng),
        keygen(C52, "and", rng),
        keygen(C52, "fhe", rng, g=G2()),
        keygen(C52, "fhe", rng, g=LinearG(C52.integer(2), C52.integer(3))),
    ]
    for key in keys:
        data = key_to_json(key)
        back = key_from_json(data)
        assert back == key
        assert back.ctx == key.ctx
        assert back.laws == key.laws  # operations key the operation-table cache
        assert hash(back.laws) == hash(key.laws)


def test_key_json_rejects_malformed():
    with pytest.raises(FormatError):
        key_from_json({"family": "banana", "p": 5, "precision": 2})
    with pytest.raises(FormatError):
        key_from_json({"family": "additive", "p": 5})  # missing precision
    with pytest.raises(FormatError):
        key_from_json({"family": "additive", "p": 5, "precision": 2, "A": "5:2:0,1"})
    with pytest.raises(FormatError):
        key_from_json(
            {"family": "xor", "p": 3, "precision": 2, "rows": [[0], [1, 1]]}
        )
    with pytest.raises(FormatError):
        key_from_json(
            {"family": "fhe", "p": 5, "precision": 2, "A": "5:2:2,1", "g": "G9"}
        )


def test_operation_from_name():
    assert operation_from_name("G1", C52) == G1()
    assert operation_from_name("G4", C52) == G4()
    lin = operation_from_name("GLIN", C52, a=C52.integer(2), b=C52.integer(3))
    assert lin == LinearG(C52.integer(2), C52.integer(3))
    with pytest.raises(FormatError):
        operation_from_name("G9", C52)


# -- refusals, to the letter ---------------------------------------------------------


def _refusal(exc_type, call) -> str:
    with pytest.raises(exc_type) as info:
        call()
    return str(info.value)


def test_encrypt_and_decrypt_refuse_a_value_in_another_context():
    key = keygen(C52, "additive", Random(1))
    x = C53.integer(7)
    assert _refusal(DomainError, lambda: encrypt(key, x)) == (
        "plaintext context does not match the key")
    assert _refusal(DomainError, lambda: decrypt(key, x)) == (
        "ciphertext context does not match the key")


# The call path compares contexts by identity first: an equal context that is
# another object must still encrypt and decrypt, and an unequal one be refused.
@pytest.mark.parametrize("family", FAMILIES)
def test_an_equal_context_of_another_object_encrypts_and_decrypts_alike(family):
    ctx, twin = PadicContext(7, 64), PadicContext(7, 64)
    assert twin == ctx and twin is not ctx
    key = keygen(ctx, family, Random(30))
    for v in (0, 1, 7, 12345, ctx.modulus - 1):
        x, x_twin = PadicInt(ctx, v), PadicInt(twin, v)
        y, y_twin = encrypt(key, x), encrypt(key, x_twin)
        assert y_twin == y and y_twin.ctx is twin and y.ctx is ctx
        assert decrypt(key, y_twin) == x_twin == decrypt(key, y)
    for other in (PadicContext(7, 63), PadicContext(5, 64)):
        z = PadicInt(other, 12345)
        assert _refusal(DomainError, lambda: encrypt(key, z)) == (
            "plaintext context does not match the key")
        assert _refusal(DomainError, lambda: decrypt(key, z)) == (
            "ciphertext context does not match the key")


@pytest.mark.parametrize("family", ["additive", "multiplicative", "fhe"])
def test_a_key_ctx_is_its_multiplier_ctx_and_reading_it_changes_no_view(family):
    key = keygen(PadicContext(5, 16), family, Random(31))
    twin = type(key)(*(getattr(key, name) for name in key.__match_args__))
    views = (repr(twin), hash(twin))
    assert twin.ctx is twin.A.ctx and vars(twin)["ctx"] is twin.A.ctx  # read once, then kept
    assert (repr(twin), hash(twin)) == views == (repr(key), hash(key))
    assert twin == key and key_to_json(twin) == key_to_json(key)
    back = key_from_json(key_to_json(twin))
    assert back == twin and hash(back) == hash(twin) and back.ctx == twin.ctx


def test_encrypt_and_decrypt_make_at_most_four_python_calls_and_keep_the_range_check():
    """On the key's own context object, after a warm-up call: the function,
    the kernel, PadicInt.__init__ and its __post_init__.  No context is
    compared through Record.__eq__ and no key property runs; __post_init__
    still refuses a residue out of range."""
    ctx = PadicContext(7, 64)
    key = keygen(ctx, "additive", Random(32))
    x = ctx.integer(12345)
    y = encrypt(key, x)
    assert decrypt(key, y) == x
    for call, arg in ((encrypt, x), (decrypt, y)):
        codes = []

        def profile(frame, event, _):
            if event == "call":
                codes.append(frame.f_code)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            call(key, arg)
        finally:
            sys.setprofile(previous)
        assert len(codes) <= 4, [code.co_qualname for code in codes]
        assert PadicContext.__eq__.__code__ not in codes
    for v in (-1, ctx.modulus):
        assert _refusal(DomainError, lambda: PadicInt(ctx, v)) == (
            f"residue {v} out of range [0, {ctx.modulus})")


@pytest.mark.parametrize("s", (0, 2, 4, 5))
def test_both_families_refuse_a_digit_exponent_that_is_no_unit_mod_p_minus_1(s):
    # x -> x^s permutes F_5 only for s = 1 and s = 3
    assert _refusal(InvalidKeyError, lambda: MultiplicativeKey(C52.one, s, C52.one)) == (
        "digit exponent s must be in [1, 4] and coprime to p-1")
    assert _refusal(InvalidKeyError, lambda: AndKey(C52, (1, s))) == (
        f"digit exponent {s} must be in [1, 4] and coprime to p-1")
    with pytest.raises(FormatError, match=r"^invalid key material: digit exponent s must"):
        key_from_json({"family": "multiplicative", "p": 5, "precision": 2,
                       "A": "5:2:1,0", "s": s, "a": "5:2:1,0"})


def test_multiplicative_key_refuses_a_in_another_context_or_not_a_unit():
    assert _refusal(InvalidKeyError, lambda: MultiplicativeKey(C52.one, 1, C53.one)) == (
        "parameters A and a must share a context")
    assert _refusal(InvalidKeyError, lambda: MultiplicativeKey(C52.one, 1, C52.integer(5))) == (
        "principal-unit exponent a must be a unit")


@pytest.mark.parametrize("c", (-1, 3))
def test_xor_key_refuses_a_coefficient_out_of_range(c):
    assert _refusal(InvalidKeyError, lambda: XorKey(C32, ((1,), (c, 1)))) == (
        "row 1 has a coefficient out of range")


def test_roots_of_unity_refuse_p_2_and_an_exponent_below_1():
    assert _refusal(DomainError, lambda: roots_of_unity(PadicContext(2, 3), 1)) == (
        "roots of unity are computed for odd p")
    for d in (0, -3):
        assert _refusal(DomainError, lambda: roots_of_unity(C52, d)) == "exponent must be >= 1"


def test_a_key_file_cannot_hold_a_series_g():
    key = FheKey(C53.one, SeriesG(C53.integer(0), C53.one, C53.one, (((1, 1), C53.one),)))
    assert _refusal(DomainError, lambda: key_to_json(key)) == (
        "series operations are not supported in key files")


def test_an_all_zero_series_g_has_no_exponent_gcd():
    zero = C53.integer(0)
    assert exponent_gcd(SeriesG(zero, zero, zero, (((1, 1), zero), ((0, 3), zero))), 5) is None


def test_the_g_choices_are_the_last_names_of_op_names():
    assert G_CHOICES == ("G1", "G2", "G3", "G4", "GLIN")
    assert list(OP_NAMES)[-len(G_CHOICES):] == list(G_CHOICES)
    assert [OP_NAMES[name] for name in G_CHOICES] == [G1(), G2(), G3(), G4(), GLIN]


@pytest.mark.parametrize("name", ["G9", "ADD", "STAR", "g1", ["G1"], {"G1": 1}, 1, None],
                         ids=repr)
def test_operation_from_name_refuses_every_name_but_a_g(name):
    expected = f"unknown operation {name!r}; expected one of ('G1', 'G2', 'G3', 'G4', 'GLIN')"
    assert _refusal(FormatError, lambda: operation_from_name(name, C52)) == expected
    data = {"family": "fhe", "p": 5, "precision": 2, "A": "5:2:1,0", "g": name}
    assert _refusal(FormatError, lambda: key_from_json(data)) == (
        f"invalid key material: {expected}")


def _every_key(ctx, family):
    """Every key of the family at ctx, lazily."""
    p, K = ctx.p, ctx.precision
    units = [PadicInt(ctx, a) for a in range(ctx.modulus) if a % p]
    exponents = [s for s in range(1, p) if math.gcd(s, p - 1) == 1]
    if family == "additive":
        return (AdditiveKey(A) for A in units)
    if family == "multiplicative":
        return (MultiplicativeKey(A, s, a) for A in units for s in exponents for a in units)
    if family == "xor":
        rows = [[row + (d,) for row in product(range(p), repeat=k) for d in range(1, p)]
                for k in range(K)]
        return (XorKey(ctx, key_rows) for key_rows in product(*rows))
    return (AndKey(ctx, key_exponents) for key_exponents in product(exponents, repeat=K))


@pytest.mark.parametrize("family", ["additive", "multiplicative", "xor", "and"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_identity_only_matches_an_enumeration_of_every_key(family, p, K):
    ctx = PadicContext(p, K)
    if family == "multiplicative" and p == 2:  # the family has no key at all at p = 2
        assert not identity_only(ctx, family)
        return
    only_identity = all(is_identity_key(key) for key in _every_key(ctx, family))
    assert identity_only(ctx, family) == only_identity
    if only_identity:  # keygen still returns that key
        assert is_identity_key(keygen(ctx, family, Random(1)))
