"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Verdict lines print with capture suspended, so a plain pytest run always
shows ACCEPTANCE n: PASS/FAIL for every criterion.  All value assertions
are exact; the only tolerances are the wall-clock budgets pinned in
criteria 1 (10 s) and 2 (30 s).
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from random import Random

import pytest

from padic_ciphers.analysis import (
    CANONICAL_PAIRS,
    XOR,
    counterexample_search,
    homomorphism_test,
    intersection_scan,
    laws_for_key,
    vdp_coefficient_probe,
)
from padic_ciphers.automaton import (
    check_induced_bijections,
    function_of_automaton,
    random_machine,
    unroll_from_function,
)
from padic_ciphers.ciphers import (
    AdditiveKey,
    FAMILIES,
    FheKey,
    G1,
    G2,
    G3,
    G4,
    InvalidKeyError,
    MultiplicativeKey,
    admissible_multipliers,
    decrypt,
    encrypt,
    g_eval,
    keygen,
    roots_of_unity,
)
from padic_ciphers.core import (
    PadicContext,
    PadicInt,
    pow_nat,
    pow_unit,
    teichmuller,
)
from padic_ciphers.formula import DEMO_FORMULA, encrypted_eval_demo, evaluate, parse
from padic_ciphers.lipschitz import (
    CoordRep,
    check_measure_bruteforce,
    check_measure_coord,
    check_measure_vdp,
    check_one_lipschitz,
    coord_from_table,
    random_one_lipschitz_table,
    table_from_coord,
    vdp_interpolate,
)


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def report(n: int, label: str):
        info: dict = {}
        try:
            yield info
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {n}: FAIL — {label}", flush=True)
            raise
        extra = f" [{info['extra']}]" if "extra" in info else ""
        with capfd.disabled():
            print(f"ACCEPTANCE {n}: PASS — {label}{extra}", flush=True)

    return report


def test_criterion_1_round_trip_fidelity(criterion):
    with criterion(1, "all five families round-trip at K=16 for p in {3,5,7}") as info:
        rng = Random(101)
        start = time.monotonic()
        count = 0
        for p in (3, 5, 7):
            ctx = PadicContext(p, 16)
            for family in FAMILIES:
                for _ in range(200):
                    key = keygen(ctx, family, rng, g=G1() if family == "fhe" else None)
                    for _ in range(50):
                        x = PadicInt(ctx, rng.randrange(ctx.modulus))
                        assert decrypt(key, encrypt(key, x)) == x
                        count += 1
        elapsed = time.monotonic() - start
        assert count == 3 * len(FAMILIES) * 200 * 50
        assert elapsed < 10.0, f"{elapsed:.2f}s exceeds the 10s budget"
        info["extra"] = f"{count} round trips in {elapsed:.2f}s"


def test_criterion_2_homomorphic_laws(criterion):
    with criterion(2, "family laws: exhaustive mod 27 plus random pairs at K=16") as info:
        start = time.monotonic()
        rng = Random(202)
        ctx27 = PadicContext(3, 3)
        for family in FAMILIES:
            totals: dict[str, int] = {}
            for _ in range(729):
                key = keygen(ctx27, family, rng, g=G1() if family == "fhe" else None)
                for law in laws_for_key(key):
                    rep = homomorphism_test(key, law, exhaustive_k=3)
                    assert rep.verdict == "pass", (family, law.name, rep)
                    totals[law.name] = totals.get(law.name, 0) + rep.trials
            for name, total in totals.items():
                assert total == 729 * 729, (family, name, total)
        ctx16 = PadicContext(5, 16)
        for family in FAMILIES:
            total = 0
            for _ in range(50):
                key = keygen(ctx16, family, rng, g=G1() if family == "fhe" else None)
                for law in laws_for_key(key):
                    rep = homomorphism_test(key, law, trials=200, rng=rng)
                    assert rep.verdict == "pass", (family, law.name, rep)
                    total += rep.trials
            assert total == 10_000 * (2 if family == "fhe" else 1)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{elapsed:.2f}s exceeds the 30s budget"
        info["extra"] = (
            f"729 keys x 729 pairs per law per family, then 10000 random "
            f"pairs per law per family at K=16, in {elapsed:.2f}s"
        )


def test_criterion_3_measure_criteria_agree(criterion):
    with criterion(3, "three measure-preservation criteria agree; level-2 banding shown weaker") as info:
        rng = Random(303)
        verdicts = {True: 0, False: 0}
        for ctx in (PadicContext(3, 3), PadicContext(5, 2)):
            for _ in range(500):
                t = random_one_lipschitz_table(ctx, rng, permutation_bias=0.9)
                brute = check_measure_bruteforce(t)
                assert check_measure_vdp(vdp_interpolate(t)) == brute
                assert check_measure_coord(coord_from_table(t)) == brute
                verdicts[brute] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0
        # permutations everywhere except one broken level-1 sub-function:
        # banding that only starts at level 2 cannot see the break
        phi0 = (0, 1, 2)
        phi1 = [0] * 9
        for prefix in range(3):
            sub = (0, 0, 0) if prefix == 0 else (0, 1, 2)
            for d in range(3):
                phi1[prefix + 3 * d] = sub[d]
        phi2 = tuple((a // 9) % 3 for a in range(27))
        t = table_from_coord(CoordRep(PadicContext(3, 3), (phi0, tuple(phi1), phi2)))
        assert not check_measure_bruteforce(t)
        assert not check_measure_vdp(vdp_interpolate(t), min_level=1)
        assert check_measure_vdp(vdp_interpolate(t), min_level=2)
        info["extra"] = (
            f"1000 random tables, {verdicts[True]} preserving / {verdicts[False]} not, "
            f"all three criteria agreed; level-2 blind spot witnessed"
        )


def test_criterion_4_pairwise_intersections_trivial(criterion):
    with criterion(4, "each of the six family pairs yields counterexamples for every key") as info:
        ctx = PadicContext(3, 3)
        total = 0
        for first, second in CANONICAL_PAIRS:
            reports = intersection_scan(first, second, ctx, n_keys=100, seed=404)
            assert len(reports) == 100
            for rep in reports:
                assert rep.verdict == "counterexample", (first.name, second.name, rep)
            total += len(reports)
        rep = counterexample_search(AdditiveKey(ctx.integer(13)), XOR)
        assert rep.verdict == "counterexample"
        assert rep.witness == (4, 1)
        assert rep.mode == "exhaustive:k=3"
        assert rep.detail == {"level": 3, "lhs": 11, "rhs": 2}
        info["extra"] = f"{total} non-identity keys all violated the second law; pinned witness (4, 1) reproduced"


def test_criterion_5_torsion_multipliers_and_fhe(criterion):
    with criterion(5, "admissible multipliers are the torsion lifts; fhe keys respect both laws") as info:
        for p in (3, 5, 7):
            ctx = PadicContext(p, 16)
            for a in range(1, p):
                w = teichmuller(ctx, a)
                assert pow_nat(w, p - 1) == ctx.one
                assert w.value % p == a
        C52 = PadicContext(5, 2)
        assert {a.value for a in roots_of_unity(C52, 4)} == {1, 7, 18, 24}
        assert {a.value for a in admissible_multipliers(C52, G1())} == {1, 7, 18, 24}
        assert {a.value for a in admissible_multipliers(C52, G3())} == {1}
        with pytest.raises(InvalidKeyError):
            keygen(C52, "fhe", Random(0), g=G3())
        trivial = FheKey(C52.one, G3())  # the only admissible multiplier
        for law in laws_for_key(trivial):
            assert homomorphism_test(trivial, law, exhaustive_k=2).verdict == "pass"
        rng = Random(505)
        big = PadicContext(5, 16)
        for g in (G1(), G2(), G4()):
            for _ in range(10):
                key = keygen(C52, "fhe", rng, g=g)
                for law in laws_for_key(key):
                    assert homomorphism_test(key, law, exhaustive_k=2).verdict == "pass"
                bigkey = keygen(big, "fhe", rng, g=g)
                for law in laws_for_key(bigkey):
                    rep = homomorphism_test(bigkey, law, trials=300, rng=rng)
                    assert rep.verdict == "pass", (g, law.name, rep)
        key = FheKey(C52.integer(7), G1())
        e2, e3 = encrypt(key, C52.integer(2)), encrypt(key, C52.integer(3))
        assert (e2.value, e3.value) == (14, 21)
        mixed = g_eval(G1(), e2, e3)
        assert mixed.value == 9
        assert decrypt(key, mixed).value == 12
        assert g_eval(G1(), C52.integer(2), C52.integer(3)).value == 12
        info["extra"] = "roots checked at K=16 for p in {3,5,7}; G1/G2/G4 keys pass both laws; worked chain exact"


def _digit_rule(key: MultiplicativeKey, x: PadicInt) -> PadicInt:
    """Map the leading digit through t0^s directly (no unit splitting)."""
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


def test_criterion_6_multiplicative_fidelity(criterion):
    with criterion(6, "unit-splitting multiplicative cipher exact; digit rule fails the law") as info:
        C52 = PadicContext(5, 2)
        rng = Random(606)
        keys = [MultiplicativeKey(A=C52.one, s=3, a=C52.one)]
        keys += [keygen(C52, "multiplicative", rng) for _ in range(20)]
        values = [PadicInt(C52, v) for v in range(25)]
        for key in keys:
            table = {x.value: encrypt(key, x) for x in values}
            for x in values:
                assert decrypt(key, table[x.value]) == x
                for y in values:
                    assert encrypt(key, x * y) == table[x.value] * table[y.value]
        canonical = keys[0]
        assert encrypt(canonical, C52.integer(2)).value == 23
        assert encrypt(canonical, C52.integer(4)).value == 4
        broken2 = _digit_rule(canonical, C52.integer(2))
        broken4 = _digit_rule(canonical, C52.integer(4))
        assert (broken2 * broken2).value == 9
        assert broken4.value == 4  # != 9, so the digit rule is not multiplicative
        assert broken2 * broken2 != broken4
        info["extra"] = "21 keys x 625 pairs exact mod 25; digit-rule regression witnessed at x = y = 2"


def test_criterion_7_coefficient_congruences(criterion):
    with criterion(7, "interpolation coefficients obey the closed congruences") as info:
        rng = Random(707)
        checked = 0
        for p in (3, 5):
            ctx = PadicContext(p, 3)
            for _ in range(25):
                key = keygen(ctx, "multiplicative", rng)
                rep = vdp_coefficient_probe(key)
                assert rep.verdict == "pass", rep
                assert rep.trials == ctx.modulus - 1
                checked += 1
        assert checked == 50
        info["extra"] = "50 random keys at p in {3,5}, K=3; every coefficient index matched"


def test_criterion_8_transducer_realization(criterion):
    with criterion(8, "unrolled transducers replay their tables; machines induce 1-Lipschitz maps") as info:
        rng = Random(808)
        ctx = PadicContext(3, 4)
        for _ in range(100):
            t = random_one_lipschitz_table(ctx, rng)
            machine = unroll_from_function(t)
            assert function_of_automaton(machine, 4) == t
        for _ in range(60):
            machine = random_machine(3, rng.randrange(1, 5), rng)
            t = function_of_automaton(machine, 3)
            assert check_one_lipschitz(t)
            assert check_induced_bijections(machine, 3) == check_measure_bruteforce(t)
        info["extra"] = "100 unroll round trips at p=3, K=4; 60 random machines, bijectivity verdicts agree"


def _power_form(ctx: PadicContext, xv: int, yv: int, zv: int) -> int:
    p, m = ctx.p, ctx.modulus
    q = p - 1
    return (
        pow(xv, q, m) * pow(yv, q * q, m) * zv
        + pow(xv, q, m) * pow(yv, q, m) * zv
        + pow(xv, p, m) * pow(yv, p * q, m)
        + pow(xv, p, m) * pow(yv, 2 * q * q, m)
    ) % m


def test_criterion_9_formula_pipeline(criterion):
    with criterion(9, "showcase formula: closed form, encrypted round trips, reproducible demo") as info:
        for p in (3, 5):
            ctx = PadicContext(p, 2)
            ast = parse(DEMO_FORMULA, ctx)
            for xv in range(ctx.modulus):
                for yv in range(ctx.modulus):
                    for zv in range(ctx.modulus):
                        env = {
                            "x": PadicInt(ctx, xv),
                            "y": PadicInt(ctx, yv),
                            "z": PadicInt(ctx, zv),
                        }
                        assert evaluate(ast, env).value == _power_form(ctx, xv, yv, zv)
        C52 = PadicContext(5, 2)
        env = {"x": C52.integer(2), "y": C52.integer(3), "z": C52.integer(4)}
        assert evaluate(parse(DEMO_FORMULA, C52), env).value == 22
        big = PadicContext(5, 16)
        rng = Random(909)
        key = keygen(big, "fhe", rng, g=G1())
        ast = parse(DEMO_FORMULA, big)
        for _ in range(1000):
            env = {n: PadicInt(big, rng.randrange(big.modulus)) for n in ("x", "y", "z")}
            report = encrypted_eval_demo(ast, env, key, law_trials=8)
            assert report["match"] is True
        cmd = [
            sys.executable, "-m", "padic_ciphers.cli",
            "demo", "--seed", "7", "--precision", "12",
        ]
        first = subprocess.run(cmd, capture_output=True, timeout=120)
        second = subprocess.run(cmd, capture_output=True, timeout=120)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout and first.stdout
        assert b"match: yes" in first.stdout
        info["extra"] = (
            "power form agrees on all triples mod 9 and mod 25; value 22 pinned; "
            "1000 encrypted evaluations matched at K=16; demo byte-identical"
        )
