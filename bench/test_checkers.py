"""Tests of the benchmark's own checkers.

    python3 -m pytest bench/test_checkers.py -q
"""

import os
import sys
from random import Random

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import import_package  # noqa: E402


def fhe_key(A, p, K):
    text = f"{p}:{K}:" + ",".join(map(str, ref.digits_of(A, p, K)))
    return ref.RefKey({"family": "fhe", "p": p, "precision": K, "A": text, "g": "G1"})


def test_reference_matches_the_package_readme_example():
    key = fhe_key(7, 5, 2)  # 7^4 = 1 mod 25
    cx, cy = key.encrypt(2), key.encrypt(3)
    assert (cx, cy) == (14, 21)
    g = ref.apply_op("G1", cx, cy, 5, 2)
    assert pow(7, -1, 25) * g % 25 == 12 == ref.apply_op("G1", 2, 3, 5, 2)


def test_reference_formula_matches_the_readme_eval_example():
    # eval --formula "STAR(x, y) + 3" --env x=2 --env y=3 --p 5 --precision 2  ->  15
    tree = ("ADD", ("G1", "x", "y"), "3")
    assert ref.formula_value(tree, {"x": 2, "y": 3}, 5, 2) == 15


def test_reference_keys_respect_their_own_laws():
    pkg = import_package()
    rng = Random(7)
    for p, K in ((5, 6), (7, 4), (3, 8)):
        ctx = pkg.core.PadicContext(p, K)
        for fam in workloads.FAMILIES:
            key = ref.RefKey(pkg.ciphers.key_to_json(pkg.ciphers.keygen(ctx, fam, rng)))
            for law in workloads.LAWS_OF[fam]:
                for _ in range(200):
                    x, y = rng.randrange(p**K), rng.randrange(p**K)
                    lhs = key.encrypt(ref.apply_op(law, x, y, p, K))
                    assert lhs == ref.apply_op(law, key.encrypt(x), key.encrypt(y), p, K)


def test_teichmuller_closed_form_is_a_root_of_unity_lifting_the_digit():
    for p, K in ((3, 64), (5, 16), (7, 64)):
        m = p**K
        for t in range(1, p):
            w = pow(t, p ** (K - 1), m)
            assert w % p == t and pow(w, p - 1, m) == 1


def test_random_tables_are_one_lipschitz_and_preserve_measure_as_built():
    rng = Random(3)
    for p, K in ((3, 5), (5, 3)):
        for preserving in (True, False):
            values = ref.random_lipschitz_table(p, K, rng, preserving)
            for j in range(1, K):
                assert all((values[x] - values[x % p**j]) % p**j == 0 for x in range(p**K))
            assert ref.is_bijective_at_every_level(values, p, K) == preserving


def test_large_formulas_have_the_stated_size_and_depth():
    rng = Random(5)
    env = {"x0": 3, "x1": 4}
    size = workloads.Formula.LARGE
    f = ref.make_formula(["ADD", "G1"], env, rng, 5, 16, size["spine"], size["side_leaves"])
    assert 350 <= f.nodes <= 450 and 100 <= f.depth <= 110


def test_a_flipped_digit_is_caught_and_counted_as_a_failure(monkeypatch, tmp_path):
    pkg = import_package()
    wl = workloads.Roundtrip(pkg, 1, str(tmp_path))
    clean = workloads.Tally()
    wl.run_round(clean, workloads.NullTracer())
    assert clean.wrong == clean.failed == 0 and clean.attempted > 0

    encrypt = pkg.ciphers.encrypt
    target = wl.cases[0][2][5][1]  # one plaintext of the first family and context

    def flipped(key, x):
        y = encrypt(key, x)
        if x is not target:
            return y
        p = y.ctx.p
        return pkg.core.PadicInt(y.ctx, y.value - y.value % p + (y.value + 1) % p)

    monkeypatch.setattr(pkg.ciphers, "encrypt", flipped)
    bad = workloads.Tally()
    wl.run_round(bad, workloads.NullTracer())
    # the wrong ciphertext, and then its wrong decryption
    assert bad.wrong == 2 and bad.failed == 2 and bad.attempted == clean.attempted


def test_a_flipped_witness_side_is_caught():
    key = {"family": "additive", "p": 3, "precision": 3, "A": "3:3:2,0,0"}
    x, y = 1, 1  # MUL: enc(1*1) = 2, enc(1)*enc(1) = 4 mod 27
    report = {"witness": [x, y], "detail": {"key": key, "level": 3, "lhs": 2, "rhs": 4}}
    assert workloads.witness_holds(report, "MUL")
    report["detail"]["rhs"] = 5
    assert not workloads.witness_holds(report, "MUL")
