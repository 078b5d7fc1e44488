from random import Random

import pytest

from padic_ciphers import analysis
from padic_ciphers.analysis import (
    ADD,
    AND,
    CANONICAL_PAIRS,
    MUL,
    OpSymbol,
    XOR,
    counterexample_search,
    homomorphism_test,
    intersection_scan,
    laws_for_key,
    symbol_from_name,
    vdp_coefficient_probe,
    _vdp_probe_table,
)
from padic_ciphers.ciphers import (
    FAMILIES,
    AdditiveKey,
    FheKey,
    G1,
    G2,
    G3,
    G4,
    LinearG,
    MultiplicativeKey,
    XorKey,
    encryption_table,
    g_sym,
    key_from_json,
    keygen,
    op_apply,
)
from padic_ciphers.core import (
    ContextMismatchError,
    DomainError,
    FormatError,
    PadicContext,
    PadicInt,
    and_p,
    xor_p,
)
from padic_ciphers.lipschitz import ValueTable

C33 = PadicContext(3, 3)
C52 = PadicContext(5, 2)
C53 = PadicContext(5, 3)


def test_op_symbols():
    assert ADD.name == "ADD" and XOR.name == "XOR"
    assert g_sym(G1()).name == "G1"
    assert OpSymbol("G").name == "GLIN"
    with pytest.raises(DomainError):
        OpSymbol("ADD", G1())
    with pytest.raises(DomainError):
        OpSymbol("NAND")
    assert symbol_from_name("MUL") is MUL
    assert symbol_from_name("G3") == g_sym(G3())
    assert symbol_from_name("GLIN").g is None
    with pytest.raises(FormatError):
        symbol_from_name("G9")


def test_op_apply():
    x, y = C52.integer(7), C52.integer(9)
    assert op_apply(ADD, x, y) == x + y
    assert op_apply(MUL, x, y) == x * y
    assert op_apply(g_sym(G1()), x, y).value == (7 * 9**4) % 25
    lin = LinearG(C52.integer(2), C52.integer(3))
    assert op_apply(OpSymbol("G"), x, y, linear_g=lin) == op_apply(g_sym(lin), x, y)
    with pytest.raises(DomainError):
        op_apply(OpSymbol("G"), x, y)


@pytest.mark.parametrize("p, K", [(2, 8), (3, 4), (5, 3)])
def test_op_apply_matches_the_operators(p, K):
    ctx = PadicContext(p, K)
    rng = Random(p * 100 + K)
    for _ in range(300):
        x, y = (PadicInt(ctx, rng.randrange(ctx.modulus)) for _ in range(2))
        assert op_apply(ADD, x, y) == x + y
        assert op_apply(MUL, x, y) == x * y
        assert op_apply(XOR, x, y) == xor_p(x, y)
        assert op_apply(AND, x, y) == and_p(x, y)


def test_op_apply_refuses_mixed_contexts_as_the_operators_do():
    x, y = C52.integer(7), C53.integer(9)
    for sym, operator in ((ADD, PadicInt.__add__), (MUL, PadicInt.__mul__),
                          (XOR, xor_p), (AND, and_p)):
        with pytest.raises(ContextMismatchError) as want:
            operator(x, y)
        with pytest.raises(ContextMismatchError) as got:
            op_apply(sym, x, y)
        assert str(got.value) == str(want.value), sym.name


def test_laws_for_key():
    assert laws_for_key(AdditiveKey(C53.integer(7))) == (ADD,)
    key = FheKey(C52.integer(7), G1())
    assert laws_for_key(key) == (ADD, g_sym(G1()))


def test_exhaustive_pass():
    key = AdditiveKey(C53.integer(7))
    rep = homomorphism_test(key, ADD, exhaustive_k=2)
    assert rep.verdict == "pass"
    assert rep.trials == 625
    assert rep.mode == "exhaustive:k=2"


def test_exhaustive_counterexample_at_first_level():
    # multiplying by 2 respects + but not *: already 2 = f(1*1) != f(1)f(1) = 4
    key = AdditiveKey(C53.integer(2))
    rep = counterexample_search(key, MUL)
    assert rep.verdict == "counterexample"
    assert rep.witness == (1, 1)
    assert rep.mode == "exhaustive:k=1"
    assert (rep.detail["lhs"], rep.detail["rhs"]) == (2, 4)


def test_additive_versus_xor_witness():
    # y-then-x scan order pins the first witness exactly
    key = AdditiveKey(C33.integer(13))
    rep = counterexample_search(key, XOR)
    assert rep.verdict == "counterexample"
    assert rep.mode == "exhaustive:k=3"
    assert rep.witness == (4, 1)
    assert rep.detail == {"level": 3, "lhs": 11, "rhs": 2}


def test_randomized_pass_full_precision():
    rng = Random(2)
    big = PadicContext(5, 16)
    key = keygen(big, "xor", rng)
    rep = homomorphism_test(key, XOR, seed=1, trials=200)
    assert rep.verdict == "pass"
    assert rep.trials == 200
    assert rep.mode == "random:K=16"


def test_fhe_key_passes_both_laws():
    rng = Random(3)
    big = PadicContext(5, 16)
    key = keygen(big, "fhe", rng, g=G1())
    for law in laws_for_key(key):
        assert homomorphism_test(key, law, seed=4, trials=150).verdict == "pass"
    # exhaustively at a small level too
    small = FheKey(C52.integer(7), G1())
    for law in laws_for_key(small):
        assert homomorphism_test(small, law, exhaustive_k=2).verdict == "pass"


def test_non_root_multiplier_fails_g1_law():
    rep = counterexample_search(AdditiveKey(C52.integer(2)), g_sym(G1()))
    assert rep.verdict == "counterexample"


def test_value_table_subject():
    key = AdditiveKey(C33.integer(13))
    table = encryption_table(key)
    assert homomorphism_test(table, ADD, exhaustive_k=3).verdict == "pass"
    rep = counterexample_search(table, XOR)
    assert rep.witness == (4, 1)


def test_intersection_scan_canonical_pairs():
    assert len(CANONICAL_PAIRS) == 6
    for first, second in CANONICAL_PAIRS:
        reports = intersection_scan(first, second, C33, n_keys=4, seed=9)
        assert len(reports) == 4
        for rep in reports:
            assert rep.verdict == "counterexample", (first.name, second.name)
            key = key_from_json(rep.detail["key"])
            # replay: the witness really violates the second law
            check = homomorphism_test(key, second, exhaustive_k=rep.detail["level"])
            assert check.verdict == "counterexample"


def test_finite_precision_overlap_is_the_top_digit_band():
    # Exhaustive over the additive keyspace: the only non-identity multipliers
    # that respect XOR at precision K are A = 1 + c*p^(K-1).  Multiplying by
    # such A moves only the top digit, by the carry-free linear term c*x_0, so
    # the map is itself a triangular digit map; the overlap of the two families
    # thins out to the identity as precision grows.
    for ctx, band in ((C33, (10, 19)), (C52, (6, 11, 16, 21))):
        members = []
        for A in ctx.residues():
            if A % ctx.p == 0 or A == 1:
                continue
            rep = counterexample_search(AdditiveKey(ctx.integer(A)), XOR, random_trials=0)
            if rep.verdict == "exhausted":
                members.append(A)
        assert tuple(members) == band
        q = ctx.p ** (ctx.precision - 1)
        assert all(A % q == 1 for A in members)
        for A in members:
            rows = [(0,) * k + (1,) for k in range(ctx.precision)]
            rows[-1] = ((A - 1) // q,) + (0,) * (ctx.precision - 2) + (1,)
            twin = XorKey(ctx, tuple(rows))
            table = encryption_table(AdditiveKey(ctx.integer(A)))
            assert table.values == encryption_table(twin).values


def test_intersection_scan_redraws_keys_shared_with_second_family(monkeypatch):
    # seed 18 walks the additive sampler through both shared maps (A = 10 and
    # A = 19); the scan must redraw past them yet report a witness per key.
    drawn = []
    real = analysis._nonidentity_key

    def recording(ctx, family, rng, attempts=1000):
        key = real(ctx, family, rng, attempts)
        drawn.append(key.A.value)
        return key

    monkeypatch.setattr(analysis, "_nonidentity_key", recording)
    reports = intersection_scan(ADD, XOR, C33, n_keys=12, seed=18)
    assert len(reports) == 12
    assert all(rep.verdict == "counterexample" for rep in reports)
    reported = {key_from_json(rep.detail["key"]).A.value for rep in reports}
    skipped = set(drawn) - reported
    assert skipped == {10, 19}
    assert all(A % 9 != 1 for A in reported)


def test_intersection_scan_rejects_g_first():
    with pytest.raises(DomainError):
        intersection_scan(g_sym(G1()), ADD, C33)


def test_search_exhausts_when_no_counterexample():
    key = AdditiveKey(C33.integer(13))
    rep = counterexample_search(key, ADD, random_trials=64)
    assert rep.verdict == "exhausted"
    assert rep.witness is None
    assert rep.trials == 9 + 81 + 729 + 64


def test_level_over_the_pair_budget_is_refused_before_any_work():
    # enc alone would be 7^64 entries: only a refusal up front returns.
    key = keygen(PadicContext(7, 64), "additive", Random(0))
    assert 7 ** (2 * 4) <= analysis.PAIR_BUDGET < 7 ** (2 * 5)
    with pytest.raises(DomainError, match="over the budget"):
        homomorphism_test(key, ADD, exhaustive_k=64)
    with pytest.raises(DomainError, match="over the budget"):
        homomorphism_test(key, ADD, exhaustive_k=5)
    with pytest.raises(DomainError, match="over the budget"):
        counterexample_search(key, MUL, max_k=5)
    with pytest.raises(DomainError, match="over the budget"):
        intersection_scan(ADD, MUL, key.ctx, max_k=5)


def test_trial_and_key_counts_over_the_pair_budget_are_refused(monkeypatch):
    key = AdditiveKey(C33.integer(13))
    with pytest.raises(DomainError, match="over the budget"):
        homomorphism_test(key, MUL, trials=analysis.PAIR_BUDGET + 1)
    # A scan of n keys at (3, 3) counts n * (3^6 + 256) pairs: acceptance
    # criterion 4's 100 keys take 98,500 of them.
    monkeypatch.setattr(analysis, "keygen", None)  # no key may be drawn
    n = analysis.PAIR_BUDGET // (3**6 + 256) + 1
    with pytest.raises(DomainError, match="over the budget"):
        intersection_scan(ADD, MUL, C33, n_keys=n)
    with pytest.raises(DomainError, match="over the budget"):
        intersection_scan(ADD, MUL, C33, n_keys=1, random_trials=analysis.PAIR_BUDGET)


def test_operation_tables_hold_a_check_and_search_working_set():
    """The certify and refute work of the laws benchmark, done twice: the
    second pass finds every operation table it needs in the cache."""
    rng = Random(0)
    keys = [keygen(PadicContext(p, K), family, rng)
            for p, K in ((3, 5), (5, 3), (7, 3)) for family in FAMILIES]
    scans = [(first, second, PadicContext(p, K))
             for p, K in ((3, 3), (3, 4), (5, 2), (7, 2))
             for first in (ADD, XOR) for second in (G2(), G3(), G4())
             if not (first == ADD and isinstance(second, G4) and K == 2)]

    def work():
        for key in keys:
            for law in laws_for_key(key):
                for k in range(1, key.ctx.precision + 1):
                    homomorphism_test(key, law, exhaustive_k=k)
        for first, second, ctx in scans:
            intersection_scan(first, g_sym(second), ctx, n_keys=2, seed=1)

    analysis._op_table.cache_clear()
    work()
    built = analysis._op_table.cache_info().misses
    work()
    assert analysis._op_table.cache_info().misses == built


def test_report_json():
    key = AdditiveKey(C53.integer(2))
    rep = counterexample_search(key, MUL)
    data = rep.to_json()
    assert data["verdict"] == "counterexample"
    assert data["witness"] == [1, 1]
    assert data["mode"] == "exhaustive:k=1"
    assert isinstance(data["trials"], int)


def test_vdp_probe_known_key():
    key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    rep = vdp_coefficient_probe(key)
    assert rep.verdict == "pass"
    assert rep.trials == 24
    assert rep.detail == {"pure_powers": 8, "mixed": 16}


def test_vdp_probe_random_keys():
    rng = Random(31)
    for p in (3, 5):
        ctx = PadicContext(p, 3)
        for _ in range(8):
            key = keygen(ctx, "multiplicative", rng)
            assert vdp_coefficient_probe(key).verdict == "pass"


def test_vdp_probe_flags_wrong_parameters():
    # identity map encrypts with s = 1; claiming s = 3 must fail the probe
    table = encryption_table(MultiplicativeKey(A=C52.one, s=1, a=C52.one))
    rep = _vdp_probe_table(table, A=1, s=3, a=1)
    assert rep.verdict == "counterexample"
    assert rep.witness == (2,)
    assert rep.detail == {"m": 2, "expected": 3, "got": 2}


def test_vdp_probe_rejects_wrong_family():
    rng = Random(1)
    with pytest.raises(DomainError):
        vdp_coefficient_probe(keygen(C33, "xor", rng))


def test_vdp_probe_respects_limit():
    key = MultiplicativeKey(
        A=PadicContext(5, 16).one, s=3, a=PadicContext(5, 16).one
    )
    with pytest.raises(DomainError):
        vdp_coefficient_probe(key)
