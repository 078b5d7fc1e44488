from random import Random

import pytest

from padic_ciphers import analysis
from padic_ciphers.analysis import (
    ADD,
    AND,
    CANONICAL_PAIRS,
    MUL,
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
    GLIN,
    OP_NAMES,
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
    key_from_json,
    keygen,
    op_apply,
)
from padic_ciphers.core import (
    PAIR_BUDGET,
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
    assert ADD.name == "ADD" and XOR.name == "XOR" and repr(AND) == "AND"
    assert G1().name == "G1" and GLIN.name == "GLIN"
    assert [op.name for op in OP_NAMES.values()] == list(OP_NAMES) == [
        "ADD", "MUL", "XOR", "AND", "G1", "G2", "G3", "G4", "GLIN"]
    assert symbol_from_name("MUL") is MUL
    assert symbol_from_name("G3") == G3()
    assert symbol_from_name("GLIN") is GLIN
    with pytest.raises(FormatError):
        symbol_from_name("G9")


def test_op_apply():
    x, y = C52.integer(7), C52.integer(9)
    assert op_apply(ADD, x, y) == x + y
    assert op_apply(MUL, x, y) == x * y
    assert op_apply(G1(), x, y).value == (7 * 9**4) % 25
    lin = LinearG(C52.integer(2), C52.integer(3))
    assert op_apply(GLIN, x, y, linear_g=lin) == op_apply(lin, x, y)
    with pytest.raises(DomainError):
        op_apply(GLIN, x, y)


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
    assert laws_for_key(key) == (ADD, G1())


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
    rep = counterexample_search(AdditiveKey(C52.integer(2)), G1())
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

    def recording(ctx, family, rng):
        key = real(ctx, family, rng)
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
        intersection_scan(G1(), ADD, C33)


def test_search_exhausts_when_no_counterexample():
    key = AdditiveKey(C33.integer(13))
    rep = counterexample_search(key, ADD, random_trials=64)
    assert rep.verdict == "exhausted"
    assert rep.witness is None
    assert rep.trials == 9 + 81 + 729 + 64


def test_search_finds_in_the_random_phase_what_its_levels_miss():
    # f(x) = x + 9(x mod 3)^2 agrees with x mod 9, so levels 1 and 2 pass;
    # Random(0) finds f(13 + 1) = 23 against f(13) + f(1) = 5 on its second draw.
    table = ValueTable.from_callable(C33, lambda x: (x + 9 * (x % 3) ** 2) % 27)
    assert all(v % 9 == x % 9 for x, v in enumerate(table.values))
    rep = counterexample_search(table, ADD, max_k=2)
    assert (rep.verdict, rep.witness, rep.mode) == ("counterexample", (13, 1), "random:K=3")
    assert rep.trials == 9 + 81 + 2
    assert rep.detail == {"lhs": 23, "rhs": 5}


def test_level_over_the_pair_budget_is_refused_before_any_work():
    # enc alone would be 7^64 entries: only a refusal up front returns.
    key = keygen(PadicContext(7, 64), "additive", Random(0))
    assert 7 ** (2 * 4) <= PAIR_BUDGET < 7 ** (2 * 5)
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
        homomorphism_test(key, MUL, trials=PAIR_BUDGET + 1)
    # A scan of n keys at (3, 3) counts n * (3^6 + 256) pairs: acceptance
    # criterion 4's 100 keys take 98,500 of them.
    monkeypatch.setattr(analysis, "keygen", None)  # no key may be drawn
    n = PAIR_BUDGET // (3**6 + 256) + 1
    with pytest.raises(DomainError, match="over the budget"):
        intersection_scan(ADD, MUL, C33, n_keys=n)
    with pytest.raises(DomainError, match="over the budget"):
        intersection_scan(ADD, MUL, C33, n_keys=1, random_trials=PAIR_BUDGET)


def test_negative_trial_and_key_counts_are_refused(monkeypatch):
    key = AdditiveKey(C53.integer(2))
    with pytest.raises(DomainError, match="cannot be negative"):
        homomorphism_test(key, MUL, trials=-5, seed=0)
    with pytest.raises(DomainError, match="cannot be negative"):
        counterexample_search(key, ADD, random_trials=-7)
    monkeypatch.setattr(analysis, "keygen", None)  # no key may be drawn
    for counts in ({"n_keys": -1}, {"random_trials": -1}):
        with pytest.raises(DomainError, match="cannot be negative"):
            intersection_scan(ADD, MUL, C33, **counts)


def test_rows_a_check_and_search_working_set_reads_equal_the_pair_form(monkeypatch):
    """The certify and refute work of the laws benchmark: every row its scans
    read, each base and lower-level row included, equals the pair form."""
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
            intersection_scan(first, second, ctx, n_keys=2, seed=1)

    read = {}
    build = analysis._rows

    def recording(op, ctx):
        row = build(op, ctx)

        def recorded(y):
            read[op, ctx, y] = out = row(y)
            return out
        return recorded

    monkeypatch.setattr(analysis, "_rows", recording)
    work()
    assert len({(op, ctx) for op, ctx, _ in read}) > 40
    for (op, ctx, y), row in read.items():
        p, m = ctx.p, ctx.modulus
        want = [op.pair(x, y, p, m) for x in range(m)]
        assert row == (bytes(want) if m <= 256 else want), (op, ctx, y)


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


def _shifted(key, shift: dict[int, int]):
    """``key`` with its cached encrypt kernel replaced by one that adds
    ``shift.get(x, 0)`` to the value at x."""
    enc, m = key.enc_int, key.ctx.modulus
    vars(key)["enc_int"] = lambda v: (enc(v) + shift.get(v, 0)) % m
    return key


def test_vdp_probe_reports_a_nonzero_b0():
    key = _shifted(keygen(C33, "multiplicative", Random(2)), {0: 1})
    rep = vdp_coefficient_probe(key)
    assert (rep.verdict, rep.witness, rep.trials) == ("counterexample", (0,), 1)
    assert rep.detail == {"m": 0, "expected": 0, "got": 1}


def test_vdp_probe_reports_a_coefficient_not_divisible_by_its_power_of_p():
    # f(3) = f(0) + 1 mod 3: B_3 = f(3) - f(0) is no multiple of 3, and m = 3
    # is the first index with a divisibility condition
    key = _shifted(keygen(C33, "multiplicative", Random(2)), {3: 1})
    rep = vdp_coefficient_probe(key)
    assert (rep.verdict, rep.witness, rep.trials) == ("counterexample", (3,), 3)
    assert rep.detail == {"m": 3, "reason": "coefficient not divisible by p^(digits-1)"}


def test_homomorphism_test_refuses_a_non_key_unbound_glin_and_a_level_out_of_range():
    key = keygen(C33, "additive", Random(1))
    for call, message in [
        (lambda: homomorphism_test(5, ADD), "cannot test a int; pass a key or a table"),
        (lambda: homomorphism_test(key, GLIN),
         "bind the linear operation to coefficients before testing"),
        (lambda: homomorphism_test(key, ADD, exhaustive_k=0), "level must be in [1, 3], got 0"),
        (lambda: homomorphism_test(key, ADD, exhaustive_k=4), "level must be in [1, 3], got 4"),
    ]:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


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
